"""End-to-end C-Extension tests: the paper's headline guarantees.

* hybrid: zero DC error always; zero CC error on non-intersecting CC sets
  (consistent targets); median CC error 0 on the bad set.
* baselines: reproduce the paper's failure modes.
* the running example (Figures 1–3) solves exactly.
"""
import re

import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro import census, workloads
from repro.core import metrics
from repro.core.constraints import CC, Cond
from repro.core.pipeline import METHODS, c_extension


def test_hybrid_good_ccs_zero_cc_error(spark, solved, ccs_good):
    rep = metrics.cc_report(solved.r1_hat, solved.r2_hat, ccs_good)
    assert metrics.cc_error_summary(rep)["max"] == 0.0


def test_hybrid_good_ccs_zero_dc_error(solved, dcs_all):
    assert metrics.dc_error(solved.r1_hat, dcs_all) == 0.0


def test_hybrid_bad_ccs_median_zero(spark, solved_bad, ccs_bad):
    rep = metrics.cc_report(solved_bad.r1_hat, solved_bad.r2_hat, ccs_bad)
    s = metrics.cc_error_summary(rep)
    assert s["median"] == 0.0
    assert s["mean"] < 0.15  # paper: 0.048–0.093


def test_hybrid_uses_alg2_for_good_set(solved):
    assert len(solved.phase1.s2_ids) == 0
    assert solved.phase1.timings["ilp"] == 0.0


def test_hybrid_bad_set_splits_s1_s2(solved_bad):
    assert len(solved_bad.phase1.s1_ids) > 0
    assert len(solved_bad.phase1.s2_ids) > 0


def test_baseline_marginals_zero_cc_error(spark, solved_baseline_marg, ccs_good):
    rep = metrics.cc_report(
        solved_baseline_marg.r1_hat, solved_baseline_marg.r2_hat, ccs_good
    )
    assert metrics.cc_error_summary(rep)["max"] == 0.0


def test_baseline_marginals_violates_dcs(solved_baseline_marg, dcs_all):
    assert metrics.dc_error(solved_baseline_marg.r1_hat, dcs_all) > 0.0


def test_baseline_has_cc_error(spark, solved_baseline, ccs_good):
    rep = metrics.cc_report(solved_baseline.r1_hat, solved_baseline.r2_hat, ccs_good)
    assert metrics.cc_error_summary(rep)["mean"] > 0.0


def test_result_timings_populated(solved):
    for k in ("pairwise", "recursion", "ilp", "fill", "coloring", "total"):
        assert k in solved.timings


def test_r1_hat_preserves_attributes(spark, db, solved):
    """Imputation must not alter any R1 attribute (only add the FK)."""
    orig = db.persons_missing_fk().sort_values("p_id").reset_index(drop=True)
    got = (
        solved.r1_hat.select("p_id", "Age", "Rel", "Multi_ling")
        .toPandas()
        .sort_values("p_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, orig, check_dtype=False)


@pytest.mark.parametrize(
    "name", ["solved", "solved_bad", "solved_baseline", "solved_baseline_marg"]
)
def test_allocation_sizes_equal_vjoin_counts(request, name):
    """Phase II reserves fresh keys from the allocation's per-combo sums
    instead of counting V_Join. That holds because phase I allocates every
    tuple of every bin, so the sums are V_Join's per-combo row counts."""
    res = request.getfixturevalue(name)
    alloc = res.phase1.alloc
    per_bin = alloc.groupby("bin_id")["count"].sum()
    bins = res.binning.bins.set_index("bin_id")["count"]
    pd.testing.assert_series_equal(per_bin, bins, check_names=False, check_dtype=False)
    want = alloc.groupby("combo_id")["count"].sum().to_dict()
    got = dict(res.vjoin.groupBy("combo_id").count().collect())
    assert got == want


def test_unread_r1_column_with_nulls_is_not_binned(spark, db, ccs_good, dcs_all):
    """Only the columns some CC's R1 condition reads are bin keys: a column
    no CC reads may hold nulls and is carried into R̂1 as it is."""
    r1 = db.spark_r1(spark).withColumn(
        "Note", F.when(F.col("p_id") % 3 == 0, F.lit("x"))
    )
    res = c_extension(
        spark, r1, db.spark_r2(spark), ccs_good, dcs_all, method="hybrid", seed=0
    )
    assert res.binning.attrs == ["Age", "Rel", "Multi_ling"]
    got = res.r1_hat.select("p_id", "Note", "h_id").toPandas()
    assert got["h_id"].notna().all()
    assert (got["Note"].isna() == (got["p_id"] % 3 != 0)).all()
    assert metrics.dc_error(res.r1_hat, dcs_all) == 0.0
    res.vjoin.unpersist()
    res.r1_hat.unpersist()


def test_invalid_method_rejected(spark, db, ccs_good, dcs_all):
    with pytest.raises(ValueError):
        c_extension(
            spark, db.spark_r1(spark), db.spark_r2(spark), ccs_good, dcs_all,
            method="nope",
        )


def test_running_example_solves_exactly(spark, running_example):
    """Figures 1–3: the full pipeline satisfies all 4 CCs and all DCs."""
    persons, housing, ccs, dcs = running_example
    r1 = spark.createDataFrame(persons)
    r2 = spark.createDataFrame(housing)
    res = c_extension(spark, r1, r2, ccs, dcs, method="hybrid", seed=0)
    rep = metrics.cc_report(res.r1_hat, res.r2_hat, ccs)
    assert metrics.cc_error_summary(rep)["max"] == 0.0
    assert metrics.dc_error(res.r1_hat, dcs) == 0.0
    # no fresh households needed: 6 owners, 6 homes
    assert res.r2_hat.count() == 6


def test_running_example_owner_distinct_households(spark, running_example):
    persons, housing, ccs, dcs = running_example
    res = c_extension(
        spark,
        spark.createDataFrame(persons),
        spark.createDataFrame(housing),
        ccs,
        dcs,
        method="hybrid",
        seed=0,
    )
    owners = res.r1_hat.filter(F.col("Rel") == "Owner")
    assert owners.select("h_id").distinct().count() == owners.count()


@pytest.mark.parametrize("seed", [1, 2])
def test_hybrid_deterministic_given_seed(spark, db, ccs_good, dcs_all, seed):
    r1, r2 = db.spark_r1(spark), db.spark_r2(spark)
    a = c_extension(spark, r1, r2, ccs_good, dcs_all, method="hybrid", seed=seed)
    b = c_extension(spark, r1, r2, ccs_good, dcs_all, method="hybrid", seed=seed)
    pa = a.r1_hat.toPandas().sort_values("p_id").reset_index(drop=True)
    pb = b.r1_hat.toPandas().sort_values("p_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(pa, pb)


def test_hybrid_with_good_dcs_subset(spark, db, ccs_good, dcs_good):
    res = c_extension(
        spark, db.spark_r1(spark), db.spark_r2(spark), ccs_good, dcs_good,
        method="hybrid", seed=0,
    )
    assert metrics.dc_error(res.r1_hat, dcs_good) == 0.0


@pytest.mark.parametrize("method", METHODS)
def test_null_r1_attribute_is_rejected(spark, db, ccs_good, dcs_all, method):
    """A null attribute value falls in no bin; the solve refuses the input
    instead of crashing in phase II or assigning the tuple a random combo."""
    first = int(db.persons["p_id"].iloc[0])
    r1 = db.spark_r1(spark).withColumn(
        "Rel", F.when(F.col("p_id") == first, None).otherwise(F.col("Rel"))
    )
    with pytest.raises(ValueError, match=r"\['Rel'\] hold nulls"):
        c_extension(spark, r1, db.spark_r2(spark), ccs_good, dcs_all, method=method)


@pytest.mark.parametrize("method", METHODS)
def test_empty_r2_with_r2_conditions_is_rejected(spark, db, dcs_all, method):
    """With R2 empty no B-combo exists, so CCs conditioned on R2 columns
    cannot be assigned: a clear error, not a crash on an empty combo table."""
    ccs = [CC(0, Cond.of(Rel="Owner"), Cond.of(Tenure="Owned"), 1)]
    with pytest.raises(ValueError, match="R2 is empty"):
        c_extension(
            spark, db.spark_r1(spark), db.spark_r2(spark).limit(0), ccs, dcs_all,
            method=method,
        )


@pytest.mark.parametrize("method", ["hybrid", "baseline"])
def test_null_r2_values_keep_their_households(spark, db, dcs_all, method):
    """R2 rows with a null in a CC's R2 column form null combos. Their
    households are FK candidates like any other: each null combo that V_Join
    gives tuples hands them to its own households, and a fresh household is
    minted for a combo only once every existing household of it holds a
    tuple."""
    ccs = workloads.make_cc_good(db, n_cc=30, seed=1)
    r2 = db.housing.copy()
    nulled = r2["h_id"].iloc[:20]
    r2.loc[r2["h_id"].isin(nulled), "Tenure"] = None
    res = c_extension(
        spark, db.spark_r1(spark), spark.createDataFrame(r2), ccs, dcs_all,
        method=method, seed=0,
    )
    fk = res.r1_hat.select("h_id").toPandas()["h_id"]
    r2_hat = res.r2_hat.toPandas()
    assert set(r2["h_id"]) <= set(r2_hat["h_id"])
    active = res.combos.active_cols
    combo_of = r2_hat.fillna({"Tenure": "∅"}).merge(
        res.combos.table.fillna({"Tenure": "∅"}), on=active
    )
    assert len(combo_of) == len(r2_hat)
    combo_of["used"] = combo_of["h_id"].isin(fk)
    combo_of["fresh"] = ~combo_of["h_id"].isin(r2["h_id"])
    sizes = res.vjoin.groupBy("combo_id").count().toPandas()
    null_ids = res.combos.table.loc[res.combos.table["Tenure"].isna(), "combo_id"]
    given = set(sizes.loc[sizes["combo_id"].isin(null_ids), "combo_id"])
    assert given
    for cid, hh in combo_of.groupby("combo_id"):
        old = hh[~hh["fresh"]]
        if cid in given:
            assert old["used"].any(), f"null combo {cid}: no household used"
        if hh["fresh"].any():
            assert old["used"].all(), f"combo {cid}: fresh household minted"
    if method == "hybrid":
        assert metrics.dc_error(res.r1_hat, dcs_all) == 0.0
    res.vjoin.unpersist()
    res.r1_hat.unpersist()


def test_unmet_cc_target_finishes_with_shortfall(spark, db, dcs_all):
    """A CC asking for more tuples than its bin holds cannot be met. The
    solve still finishes: Algorithm 2 reports the missing tuples, the DCs
    hold and every tuple's FK is a household of R̂2."""
    spouses = int((db.persons["Rel"] == census.SPOUSE).sum())
    ccs = [
        CC(0, Cond.of(Rel=census.SPOUSE), Cond.of(Tenure="Owned"), spouses + 10),
        CC(1, Cond.of(Rel=census.OWNER), Cond.of(Tenure="Rented"), 20),
    ]
    res = c_extension(
        spark, db.spark_r1(spark), db.spark_r2(spark), ccs, dcs_all,
        method="hybrid", seed=0,
    )
    assert res.phase1.shortfall == {0: 10}
    assert metrics.dc_error(res.r1_hat, dcs_all) == 0.0
    rep = metrics.cc_report(res.r1_hat, res.r2_hat, ccs).set_index("cc_id")
    assert rep.loc[0, "achieved"] == spouses and rep.loc[1, "rel_err"] == 0.0
    fk = res.r1_hat.select("h_id").toPandas()["h_id"]
    assert fk.notna().all()
    assert set(fk) <= set(res.r2_hat.select("h_id").toPandas()["h_id"])
    res.vjoin.unpersist()
    res.r1_hat.unpersist()


def test_recomputed_stages_give_the_same_fks(spark, db, ccs_good, dcs_all):
    """Dropping the cached V_Join and R̂1 makes Spark run the fill and
    phase II again on the next read: the FKs stay identical."""
    res = c_extension(
        spark, db.spark_r1(spark), db.spark_r2(spark), ccs_good, dcs_all,
        method="hybrid", seed=0,
    )

    def pairs():
        return sorted(map(tuple, res.r1_hat.select("p_id", "h_id").collect()))

    first = pairs()
    res.vjoin.unpersist(blocking=True)
    res.r1_hat.unpersist(blocking=True)
    assert not res.r1_hat.is_cached
    again = pairs()
    assert again == first
    keys = set(res.r2_hat.select("h_id").toPandas()["h_id"])
    assert all(h in keys for _, h in again)


@pytest.mark.parametrize("method", ["hybrid", "baseline"])
def test_outputs_do_not_depend_on_shuffle_partitions(
    spark, db, ccs_good, dcs_all, method
):
    """V_Join and R̂1 are cached at one partition per core whatever the
    session's shuffle fan-out; the FKs and the fresh households must not
    change with it."""
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    got = []
    try:
        for n in ("64", "3"):
            spark.conf.set(key, n)
            res = c_extension(
                spark, db.spark_r1(spark), db.spark_r2(spark), ccs_good, dcs_all,
                method=method, seed=0,
            )
            pairs = sorted(map(tuple, res.r1_hat.select("p_id", "h_id").collect()))
            r2 = sorted(map(tuple, res.r2_hat.collect()), key=str)
            got.append((pairs, r2))
            res.vjoin.unpersist()
            res.r1_hat.unpersist()
    finally:
        spark.conf.set(key, old)
    assert got[0] == got[1]


def _r1_plus_fk(r1, r1_key: str) -> StructType:
    """R1's fields with the key first, then a nullable long ``h_id``."""
    rest = [f for f in r1.schema if f.name != r1_key]
    return StructType([r1.schema[r1_key], *rest, StructField("h_id", LongType(), True)])


@pytest.mark.parametrize("r1_key", ["p_id", "person"])
def test_r1_hat_schema_is_r1_plus_fk(spark, dcs_all, r1_key):
    """R̂1 has R1's fields, the key first and the others in R1's order, then
    a nullable long FK, also when neither the key nor a bin column comes
    first in R1. ``r1_key != "p_id"`` is the snowflake driver's path."""
    db = census.generate(scale=1.0, shrink=0.01, seed=37 if r1_key == "p_id" else 38)
    ccs = workloads.make_cc_good(db, n_cc=60, seed=0)
    r1 = db.spark_r1(spark).withColumnRenamed("p_id", r1_key)
    r1 = r1.select("Rel", "Multi_ling", r1_key, "Age")
    res = c_extension(spark, r1, db.spark_r2(spark), ccs, dcs_all, r1_key=r1_key, seed=0)
    try:
        assert res.r1_hat.schema == _r1_plus_fk(r1, r1_key)
    finally:
        res.vjoin.unpersist()
        res.r1_hat.unpersist()


def _plan_nodes(df) -> list[tuple[object, tuple]]:
    """(operator, its ancestors nearest first) for every physical operator
    of ``df``'s executed plan, looking through adaptive plans, query stages
    and codegen wrappers and into the plans of the cached relations it
    reads."""
    out, todo = [], [(df._jdf.queryExecution().executedPlan(), ())]
    while todo:
        node, up = todo.pop()
        name = node.nodeName()
        if name == "AdaptiveSparkPlan":
            todo.append((node.executedPlan(), up))
            continue
        if name.endswith("QueryStage"):
            todo.append((node.plan(), up))
            continue
        if name == "InputAdapter" or name.startswith("WholeStageCodegen"):
            todo.append((node.child(), up))
            continue
        out.append((node, up))
        if name == "InMemoryTableScan":
            todo.append((node.relation().cachedPlan(), (node, *up)))
        todo.extend((kid, (node, *up)) for kid in _seq(node.children()))
    return out


def _seq(s) -> list:
    return [s.apply(i) for i in range(s.size())]


@pytest.mark.parametrize("name", ["solved", "solved_baseline"])
def test_solve_plan_fits_its_data(spark, db, request, name):
    """The cached frames hold one partition per core, the driver-built
    lookup tables (bin map, allocation ranges, combo map) are broadcast,
    and only V_Join and R̂1 are cached. R̂1 is the cogroup's output itself:
    no join rebuilds it, and its one hash exchange on ``p_id`` keeps the
    cogroup from being the cached plan's final stage, so adaptive execution
    still coalesces the cogroup's inputs into one task."""
    res = request.getfixturevalue(name)
    cores = spark.sparkContext.defaultParallelism
    assert res.vjoin.rdd.getNumPartitions() <= cores
    assert res.r1_hat.rdd.getNumPartitions() <= cores
    assert res.r1_hat.schema == _r1_plus_fk(db.spark_r1(spark), "p_id")

    nodes = _plan_nodes(res.r1_hat)
    names = [node.nodeName() for node, _ in nodes]
    assert "SortMergeJoin" not in names
    on_p_id = [
        m.group(1)
        for node, _ in nodes
        if node.nodeName() == "Exchange"
        and (m := re.fullmatch(r"hashpartitioning\(p_id#\d+L?, (\d+)\)",
                               node.outputPartitioning().toString()))
    ]
    assert on_p_id == [str(cores)]
    cogroup_reads = []
    for node, up in nodes:
        above = [a.nodeName() for a in up]
        if node.nodeName() == "AQEShuffleRead" and "FlatMapCoGroupsInPandas" in above:
            below_cogroup = above[: above.index("FlatMapCoGroupsInPandas")]
            if not {"Exchange", "InMemoryTableScan"} & set(below_cogroup):
                cogroup_reads.append(node)
    assert len(cogroup_reads) == 2
    assert all(read.isCoalescedRead() for read in cogroup_reads)

    # R1 rows carry p_id and R2 rows h_id; a leaf with neither is a lookup table
    lookups = {}
    for node, up in _plan_nodes(res.r1_hat):
        cols = frozenset(a.name() for a in _seq(node.output()))
        if node.children().isEmpty() and not {"p_id", "h_id"} & cols:
            lookups[cols] = [a.nodeName() for a in up[:2]]
    assert set(lookups) == {
        frozenset({"bin_id", *res.binning.attrs}),
        frozenset({"bin_id", "combo_id", "start", "end"}),
        frozenset({"combo_id", *res.combos.active_cols}),
    }
    for exchange, join in lookups.values():
        assert exchange == "BroadcastExchange"
        assert join.startswith("Broadcast") and join.endswith("Join")

    cached = {
        spark._jvm.System.identityHashCode(node.relation().cacheBuilder())
        for df in (res.r1_hat, res.r2_hat)
        for node, _ in _plan_nodes(df)
        if node.nodeName() == "InMemoryTableScan"
    }
    assert len(cached) == 2
