"""Tests for phase II (Algorithm 4): DC satisfaction, join consistency."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import census, workloads
from repro.core import metrics, phase2
from repro.core.constraints import CC, Cond
from repro.core.hybrid import INVALID_COMBO
from repro.core.phase2 import _key_bases, solve_invalid_tuples
from repro.core.pipeline import c_extension
from repro.oracle import assert_equivalent
from tests.conftest import build_phase1_inputs
from tests.scorer_oracle import Scorer


def test_key_bases_disjoint_ranges():
    bases = _key_bases({0: 5, 2: 3, 1: 4}, max_key=100)
    assert bases == {0: 101, 1: 106, 2: 110}


def test_solve_invalid_tuples_empty():
    from repro.core.binning import Binning, Combos

    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 1)]
    pdf = pd.DataFrame({"Age": [1], "Rel": ["A"], "count": [1]})
    binning = Binning.build(pdf, ccs, ["Age", "Rel"])
    combos = Combos.build(pd.DataFrame({"Area": ["C"], "count": [2]}), ["Area"])
    a, n = solve_invalid_tuples(pd.DataFrame(), ccs, binning, combos, 100)
    assert a.empty and n.empty


def test_all_fk_values_filled(solved):
    assert solved.r1_hat.filter(F.col("h_id").isNull()).count() == 0


def test_fk_referential_integrity(solved):
    """Every assigned FK exists in R̂2 (possibly a fresh household)."""
    missing = solved.r1_hat.join(
        solved.r2_hat.select("h_id"), on="h_id", how="left_anti"
    )
    assert missing.count() == 0


def test_r2_hat_extends_r2(spark, db, solved):
    """R̂2 is a copy of R2 possibly with extra tuples (Prop 5.5)."""
    r2 = db.spark_r2(spark)
    # original households survive unchanged
    diff = r2.exceptAll(solved.r2_hat.select(*r2.columns))
    assert diff.count() == 0


def test_new_households_have_fresh_keys(spark, db, solved):
    max_orig = int(db.housing["h_id"].max())
    new = solved.r2_hat.filter(F.col("h_id") > max_orig)
    n_new = new.count()
    # fresh keys must be unique
    assert new.select("h_id").distinct().count() == n_new


def test_join_consistency_prop_55(spark, db, solved):
    """R̂1 ⋈ R̂2 = V_Join on the active columns (Proposition 5.5)."""
    active = solved.combos.active_cols
    joined = solved.r1_hat.join(solved.r2_hat, on="h_id").select(
        "p_id", *active
    )
    combo_map = spark.createDataFrame(
        solved.combos.table[[*active, "combo_id"]]
    )
    vj = solved.vjoin.join(combo_map, on="combo_id", how="left").select(
        "p_id", *active
    )
    assert joined.exceptAll(vj).count() == 0
    assert vj.exceptAll(joined).count() == 0


def test_dc_error_zero_for_hybrid(solved, dcs_all):
    assert metrics.dc_error(solved.r1_hat, dcs_all) == 0.0


def test_dc_error_zero_for_hybrid_bad_ccs(solved_bad, dcs_all):
    assert metrics.dc_error(solved_bad.r1_hat, dcs_all) == 0.0


def test_no_two_owners_share_household_sql_oracle(spark, solved):
    """DC9 on the final R̂1, verified with a direct SQL count via DuckDB."""
    got = (
        solved.r1_hat.filter(F.col("Rel") == "Owner")
        .groupBy("h_id")
        .agg(F.count("*").alias("n"))
        .filter(F.col("n") > 1)
        .groupBy()
        .agg(F.count("*").alias("bad"))
    )
    assert_equivalent(
        got,
        """
        SELECT count(*) AS bad FROM (
          SELECT h_id, count(*) AS n FROM r1 WHERE Rel = 'Owner'
          GROUP BY h_id HAVING count(*) > 1
        )
        """,
        r1=solved.r1_hat.toPandas(),
    )
    assert got.collect()[0]["bad"] == 0


def test_baseline_random_fk_assigns_all(solved_baseline):
    assert solved_baseline.r1_hat.filter(F.col("h_id").isNull()).count() == 0


def test_baseline_typically_violates_dcs(solved_baseline, dcs_all):
    """Random FK assignment should violate DCs on ~any realistic instance."""
    assert metrics.dc_error(solved_baseline.r1_hat, dcs_all) > 0.0


# -- phase II runs once, deterministically, and caches only what it returns --


def _sorted(pdf: pd.DataFrame, key: str = "p_id") -> pd.DataFrame:
    return pdf.sort_values(key).reset_index(drop=True)


def _persistent_rdds(spark) -> set[int]:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


def _release(res) -> None:
    res.vjoin.unpersist()
    res.r1_hat.unpersist()


def _own_instance(spark, seed: int):
    """A database no other test solves: Spark shares the cache of plans with
    the same result, so a solve of another test's inputs would reuse (and,
    when released, drop) that test's cached V_Join."""
    db = census.generate(scale=1.0, shrink=0.01, seed=seed)
    ccs = workloads.make_cc_good(db, n_cc=60, seed=0)
    return db.spark_r1(spark), db.spark_r2(spark), ccs


@pytest.mark.parametrize("strategy", ["coloring", "random"])
def test_partition_fn_independent_of_row_order(db, dcs_all, strategy):
    """The per-partition function gives each tuple the same key whatever
    order Spark delivers the partition's V_Join rows in, and returns them as
    R̂1 rows: the R1 columns unchanged, bin_id and combo_id dropped, the FK
    added."""
    fn = (
        phase2._coloring_fn(dcs_all, {0: 10_000}, "h_id", "fk")
        if strategy == "coloring"
        else phase2._random_fn(5, {0: 10_000}, "h_id", "fk")
    )
    r1 = db.persons_missing_fk()
    left = r1.assign(bin_id=3, combo_id=0)
    right = db.housing.assign(combo_id=0)
    a = fn((0,), left, right)
    b = fn((0,), left.sample(frac=1, random_state=1), right.sample(frac=1, random_state=2))
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))
    assert list(a.columns) == [*r1.columns, "fk"]
    pd.testing.assert_frame_equal(_sorted(a).drop(columns="fk"), _sorted(r1))
    assert a["fk"].notna().all()


@pytest.mark.parametrize("method", ["hybrid", "baseline"])
def test_output_independent_of_input_order(spark, db, ccs_good, dcs_all, method, request):
    """Shuffled, repartitioned R1 and R2 give the same R̂1 and R̂2."""
    ref = request.getfixturevalue("solved" if method == "hybrid" else "solved_baseline")
    r1 = db.spark_r1(spark).orderBy(F.rand(3)).repartition(7)
    r2 = db.spark_r2(spark).orderBy(F.rand(4)).repartition(7)
    res = c_extension(spark, r1, r2, ccs_good, dcs_all, method=method, seed=0)
    try:
        for name, key in (("r1_hat", "p_id"), ("r2_hat", "h_id")):
            got, want = getattr(res, name).toPandas(), getattr(ref, name).toPandas()
            pd.testing.assert_frame_equal(_sorted(got, key), _sorted(want, key))
    finally:
        _release(res)


def test_coloring_runs_once_per_partition(spark, dcs_all, monkeypatch):
    """One call of the per-partition coloring per non-empty combo partition,
    and reading R̂1 and R̂2 afterwards does not run it again."""
    calls = spark.sparkContext.accumulator(0)
    make_fn = phase2._coloring_fn

    def counting_coloring_fn(*args):
        fn = make_fn(*args)

        def counted(key, left, right):
            if not left.empty:
                calls.add(1)
            return fn(key, left, right)

        return counted

    monkeypatch.setattr(phase2, "_coloring_fn", counting_coloring_fn)
    r1, r2, ccs = _own_instance(spark, seed=31)
    res = c_extension(spark, r1, r2, ccs, dcs_all, method="hybrid", seed=0)
    try:
        partitions = (
            res.vjoin.filter(F.col("combo_id") != INVALID_COMBO)
            .select("combo_id").distinct().count()
        )
        assert partitions > 1
        assert calls.value == partitions
        res.r1_hat.count()
        res.r2_hat.count()
        assert calls.value == partitions
    finally:
        _release(res)


@pytest.mark.parametrize("r1_key", ["p_id", "person"])
def test_no_cached_data_left_behind(spark, dcs_all, r1_key):
    """A solve caches V_Join and R̂1 and nothing else. ``r1_key != "p_id"``
    is the path the snowflake driver takes: only the renamed R̂1 is cached."""
    r1, r2, ccs = _own_instance(spark, seed=32 if r1_key == "p_id" else 33)
    r1 = r1.withColumnRenamed("p_id", r1_key)
    before = _persistent_rdds(spark)
    res = c_extension(spark, r1, r2, ccs, dcs_all, r1_key=r1_key, seed=0)
    res.r2_hat.count()
    assert len(_persistent_rdds(spark) - before) == 2
    assert r1_key in res.r1_hat.columns
    assert res.r1_hat.filter(F.col("h_id").isNull()).count() == 0
    _release(res)
    assert _persistent_rdds(spark) == before


def test_no_active_columns_fresh_households(spark, running_example):
    """CCs over no R2 column: one combo; R2's largest key still bounds the
    fresh households, which keep R2's schema."""
    persons, housing, _, dcs = running_example
    r2 = spark.createDataFrame(housing.iloc[:2])  # 2 homes for 6 owners
    ccs = [CC(0, Cond.of(Rel="Owner"), Cond.of(), 6)]
    before = _persistent_rdds(spark)
    res = c_extension(spark, spark.createDataFrame(persons), r2, ccs, dcs, seed=0)
    assert res.r2_hat.schema == r2.schema
    r2_hat = res.r2_hat.toPandas()
    fresh = r2_hat[r2_hat["h_id"] > 2]
    assert r2_hat["h_id"].is_unique
    assert len(fresh) == len(r2_hat) - 2 >= 4
    assert (fresh["Area"] == "Chicago").all()  # copied from the smallest-key row
    r1_hat = res.r1_hat.toPandas()
    assert set(r1_hat["h_id"]) <= set(r2_hat["h_id"])
    assert r1_hat.loc[r1_hat["Rel"] == "Owner", "h_id"].is_unique
    _release(res)
    assert _persistent_rdds(spark) == before


def test_empty_r2_every_tuple_gets_a_fresh_household(spark, dcs_all):
    """R2 empty and CCs over no R2 column: every tuple stays allocated to the
    one (household-less) combo, and phase II mints a household for each FK."""
    db = census.generate(scale=1.0, shrink=0.01, seed=34)
    r2 = db.spark_r2(spark).limit(0)
    persons = db.persons
    ccs = [
        CC(0, Cond.of(Rel="Owner"), Cond.of(), int((persons["Rel"] == "Owner").sum())),
        CC(1, Cond.of(Age=(0, 17)), Cond.of(), int((persons["Age"] <= 17).sum())),
    ]
    res = c_extension(spark, db.spark_r1(spark), r2, ccs, dcs_all, seed=0)
    try:
        assert res.phase1.alloc["count"].sum() == len(persons)
        assert (res.phase1.alloc["combo_id"] != INVALID_COMBO).all()
        r1_hat, r2_hat = res.r1_hat.toPandas(), res.r2_hat.toPandas()
        assert len(r1_hat) == len(persons)
        assert r1_hat["h_id"].notna().all()
        assert set(r1_hat["h_id"]) <= set(r2_hat["h_id"])
        assert r2_hat["h_id"].is_unique
        assert metrics.dc_error(res.r1_hat, dcs_all) == 0.0
        rep = metrics.cc_report(res.r1_hat, res.r2_hat, ccs)
        assert metrics.cc_error_summary(rep)["max"] == 0.0
    finally:
        _release(res)


@pytest.mark.parametrize("method", ["baseline", "baseline_marginals"])
def test_empty_r2_baselines_give_every_tuple_a_fresh_household(spark, dcs_all, method):
    """R2 empty and CCs over no R2 column under the baselines: phase I splits
    the tuples over the household-less combo, and phase II's random draw
    mints a fresh household per tuple instead of drawing from no keys."""
    db = census.generate(scale=1.0, shrink=0.01, seed=35)
    r2 = db.spark_r2(spark).limit(0)
    persons = db.persons
    ccs = [
        CC(0, Cond.of(Rel="Owner"), Cond.of(), int((persons["Rel"] == "Owner").sum())),
        CC(1, Cond.of(Age=(0, 17)), Cond.of(), int((persons["Age"] <= 17).sum())),
    ]
    res = c_extension(spark, db.spark_r1(spark), r2, ccs, dcs_all, method=method, seed=0)
    try:
        assert res.phase1.alloc["count"].sum() == len(persons)
        r1_hat, r2_hat = res.r1_hat.toPandas(), res.r2_hat.toPandas()
        assert len(r1_hat) == len(persons)
        assert r1_hat["h_id"].notna().all()
        assert set(r1_hat["h_id"]) <= set(r2_hat["h_id"])
        assert r2_hat["h_id"].is_unique
        assert len(r2_hat) == len(persons)
    finally:
        _release(res)


def test_invalid_tuples_get_their_own_fresh_households(spark, dcs_all):
    """One combo and an owner CC below the owner count leave the surplus
    owners no harmless combo: phase I marks them invalid. Each keeps its R1
    columns in R̂1 and gets its own fresh household, whose R̂2 row carries
    the combo ``solve_invalid_tuples`` chose, and the DCs still hold."""
    db = census.generate(scale=1.0, shrink=0.01, seed=36)
    owned = db.housing[db.housing["Tenure"] == "Owned"].reset_index(drop=True)
    owners = int((db.persons["Rel"] == census.OWNER).sum())
    ccs = [CC(0, Cond.of(Rel=census.OWNER), Cond.of(Tenure="Owned"), owners - 5)]
    r2 = spark.createDataFrame(owned)
    res = c_extension(spark, db.spark_r1(spark), r2, ccs, dcs_all, seed=0)
    try:
        assert len(res.combos) == 1
        assert res.phase1.n_invalid > 0
        r1_hat = _sorted(res.r1_hat.toPandas())
        r2_hat = res.r2_hat.toPandas().set_index("h_id")
        r1 = _sorted(db.persons_missing_fk())
        pd.testing.assert_frame_equal(r1_hat.drop(columns="h_id"), r1)

        invalid = (
            res.vjoin.filter(F.col("combo_id") == INVALID_COMBO)
            .select("p_id", "bin_id")
            .toPandas()
        )
        assert len(invalid) == res.phase1.n_invalid
        fresh_start = int(owned["h_id"].max()) + 1 + len(r1) - len(invalid)
        want, _ = solve_invalid_tuples(
            invalid, ccs, res.binning, res.combos, fresh_start
        )
        got = r1_hat.set_index("p_id").loc[want["p_id"], "h_id"].to_numpy()
        assert (got == want["h_id"].to_numpy()).all()
        assert (got >= fresh_start).all()
        assert (r1_hat["h_id"].value_counts()[got] == 1).all()
        combo = res.combos.table.set_index("combo_id").loc[want["combo_id"]]
        assert (r2_hat.loc[got, "Tenure"].to_numpy() == combo["Tenure"].to_numpy()).all()
        assert metrics.dc_error(res.r1_hat, dcs_all) == 0.0
    finally:
        _release(res)


def _solve_invalid_rowwise(invalid_pdf, ccs, binning, combos, fresh_start):
    """The row-at-a-time ``solve_invalid_tuples`` it replaced."""
    scorer = Scorer(ccs, binning, combos)
    combo_ids = combos.table["combo_id"].tolist()
    rows, news, nxt = [], [], fresh_start
    for _, t in invalid_pdf.sort_values("p_id").iterrows():
        b = int(t["bin_id"])
        best = min(combo_ids, key=lambda c: (scorer.score(b, c, set()), c))
        rows.append((int(t["p_id"]), nxt, int(best)))
        news.append((nxt, int(best)))
        nxt += 1
    return (
        pd.DataFrame(rows, columns=["p_id", "h_id", "combo_id"]),
        pd.DataFrame(news, columns=["h_id", "combo_id"]),
    )


def test_solve_invalid_tuples_matches_rowwise(db, ccs_bad):
    """Scoring each distinct bin once gives the row loop's exact output."""
    binning, combos = build_phase1_inputs(db, ccs_bad)
    g = np.random.default_rng(5)
    bins = binning.bins["bin_id"].to_numpy()
    invalid = pd.DataFrame(
        {
            "p_id": g.permutation(200).astype(np.int64) * 3 + 7,
            "bin_id": g.choice(bins[:12], 200).astype(np.int64),
        }
    )
    assert invalid["bin_id"].duplicated().any()
    got = solve_invalid_tuples(invalid, ccs_bad, binning, combos, 5000)
    want = _solve_invalid_rowwise(invalid, ccs_bad, binning, combos, 5000)
    for a, b in zip(got, want):
        pd.testing.assert_frame_equal(a, b)
