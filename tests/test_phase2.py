"""Tests for phase II (Algorithm 4): DC satisfaction, join consistency."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import census, workloads
from repro.core import metrics, phase2, pipeline
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
    out = solve_invalid_tuples(pd.Series(dtype=np.int64), ccs, binning, combos, 100)
    assert out.empty and list(out.columns) == ["bin_id", "start", "combo_id"]


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


# -- phase II runs once, deterministically, and caches nothing --


def _sorted(pdf: pd.DataFrame, key: str = "p_id") -> pd.DataFrame:
    return pdf.sort_values(key).reset_index(drop=True)


def _persistent_rdds(spark) -> set[int]:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


def _own_instance(spark, seed: int):
    """A small database of its own, generated from ``seed``, with good CCs."""
    db = census.generate(scale=1.0, shrink=0.01, seed=seed)
    ccs = workloads.make_cc_good(db, n_cc=60, seed=0)
    return db.spark_r1(spark), db.spark_r2(spark), ccs


@pytest.mark.parametrize("strategy", ["coloring", "random"])
def test_partition_fn_independent_of_row_order(db, dcs_all, strategy):
    """The per-partition function gives each tuple the same key whatever
    order Spark delivers the partition's V_Join rows in, and returns them as
    R̂1 rows: the R1 columns unchanged, bin_id and combo_id dropped, the FK
    added. Invalid tuples, spread over several bins, take distinct keys from
    their base in (bin_id, p_id) order."""
    bases = {0: 10_000, INVALID_COMBO: 20_000}
    fn = (
        phase2._coloring_fn(dcs_all, bases, "h_id", "fk")
        if strategy == "coloring"
        else phase2._random_fn(5, bases, "h_id", "fk")
    )
    r1 = db.persons_missing_fk()
    g = np.random.default_rng(0)
    invalid = g.random(len(r1)) < 0.3
    left = r1.assign(
        bin_id=g.integers(0, 3, len(r1)),
        combo_id=np.where(invalid, INVALID_COMBO, 0),
    )
    right = db.housing.assign(combo_id=0)
    a = fn((0,), left, right)
    b = fn((0,), left.sample(frac=1, random_state=1), right.sample(frac=1, random_state=2))
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))
    assert list(a.columns) == [*r1.columns, "fk"]
    pd.testing.assert_frame_equal(_sorted(a).drop(columns="fk"), _sorted(r1))
    assert a["fk"].notna().all()

    inv = left[invalid].sort_values(["bin_id", "p_id"])
    assert inv["bin_id"].nunique() >= 2
    keys = a.set_index("p_id").loc[inv["p_id"], "fk"].to_numpy()
    assert (keys == 20_000 + np.arange(len(inv))).all()
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("method", ["hybrid", "baseline"])
def test_output_independent_of_input_order(spark, db, ccs_good, dcs_all, method, request):
    """Shuffled, repartitioned R1 and R2 give the same R̂1 and R̂2."""
    ref = request.getfixturevalue("solved" if method == "hybrid" else "solved_baseline")
    r1 = db.spark_r1(spark).orderBy(F.rand(3)).repartition(7)
    r2 = db.spark_r2(spark).orderBy(F.rand(4)).repartition(7)
    res = c_extension(spark, r1, r2, ccs_good, dcs_all, method=method, seed=0)
    for name, key in (("r1_hat", "p_id"), ("r2_hat", "h_id")):
        got, want = getattr(res, name).toPandas(), getattr(ref, name).toPandas()
        pd.testing.assert_frame_equal(_sorted(got, key), _sorted(want, key))


def test_coloring_runs_once_per_partition(spark, dcs_all, monkeypatch):
    """The combo walker runs once per solve and colors each non-empty
    combo partition exactly once (each from its own fresh-key base), and
    reading R̂1 and R̂2 afterwards runs neither again."""
    calls, bases = [], []  # walker calls; fresh-key bases of the colorings
    make_fn, color = phase2._coloring_fn, phase2.color_with_extension

    def counting_coloring_fn(*args):
        fn = make_fn(*args)

        def counted(key, left, right):
            calls.append(len(left))
            return fn(key, left, right)

        return counted

    def counting_color(graph, colors, fresh_start):
        bases.append(fresh_start)
        return color(graph, colors, fresh_start)

    monkeypatch.setattr(phase2, "_coloring_fn", counting_coloring_fn)
    monkeypatch.setattr(phase2, "color_with_extension", counting_color)
    r1, r2, ccs = _own_instance(spark, seed=31)
    res = c_extension(spark, r1, r2, ccs, dcs_all, method="hybrid", seed=0)
    partitions = (
        res.vjoin.filter(F.col("combo_id") != INVALID_COMBO)
        .select("combo_id").distinct().count()
    )
    assert partitions > 1
    assert len(calls) == 1
    assert len(bases) == len(set(bases)) == partitions
    res.r1_hat.count()
    res.r2_hat.count()
    assert len(calls) == 1
    assert len(bases) == partitions


@pytest.mark.parametrize("r1_key", ["p_id", "person"])
def test_no_cached_data_left_behind(spark, dcs_all, r1_key):
    """A solve and reads of its outputs leave no persisted RDD: phase II
    collects V_Join once and R̂1 is built from the rows it returns.
    ``r1_key != "p_id"`` is the path the snowflake driver takes."""
    r1, r2, ccs = _own_instance(spark, seed=32 if r1_key == "p_id" else 33)
    r1 = r1.withColumnRenamed("p_id", r1_key)
    before = _persistent_rdds(spark)
    res = c_extension(spark, r1, r2, ccs, dcs_all, r1_key=r1_key, seed=0)
    res.r2_hat.count()
    assert r1_key in res.r1_hat.columns
    assert res.r1_hat.filter(F.col("h_id").isNull()).count() == 0
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
    assert res.phase1.alloc["count"].sum() == len(persons)
    r1_hat, r2_hat = res.r1_hat.toPandas(), res.r2_hat.toPandas()
    assert len(r1_hat) == len(persons)
    assert r1_hat["h_id"].notna().all()
    assert set(r1_hat["h_id"]) <= set(r2_hat["h_id"])
    assert r2_hat["h_id"].is_unique
    assert len(r2_hat) == len(persons)


def _invalid_instance(spark):
    """One combo and an owner CC below the owner count: phase I marks the
    surplus owners invalid."""
    db = census.generate(scale=1.0, shrink=0.01, seed=36)
    owned = db.housing[db.housing["Tenure"] == "Owned"].reset_index(drop=True)
    owners = int((db.persons["Rel"] == census.OWNER).sum())
    ccs = [CC(0, Cond.of(Rel=census.OWNER), Cond.of(Tenure="Owned"), owners - 5)]
    return db, owned, ccs


def _invalid_keys(invalid: pd.DataFrame, ranges: pd.DataFrame) -> pd.DataFrame:
    """(p_id, h_id, combo_id) of each invalid tuple in (bin_id, p_id) order,
    from ``solve_invalid_tuples``' per-bin ranges: a bin's tuples take its
    keys from ``start`` on."""
    inv = invalid.sort_values(["bin_id", "p_id"]).reset_index(drop=True)
    per_bin = ranges.set_index("bin_id").loc[inv["bin_id"]]
    return pd.DataFrame(
        {
            "p_id": inv["p_id"].to_numpy(np.int64),
            "h_id": per_bin["start"].to_numpy(np.int64)
            + inv.groupby("bin_id").cumcount().to_numpy(),
            "combo_id": per_bin["combo_id"].to_numpy(np.int64),
        }
    )


def test_invalid_tuples_get_their_own_fresh_households(spark, dcs_all):
    """Phase I marks the surplus owners invalid. Each keeps its R1 columns in
    R̂1 and gets its own fresh household, numbered in (bin_id, p_id) order,
    whose R̂2 row carries the combo ``solve_invalid_tuples`` chose for its
    bin, and the DCs still hold."""
    db, owned, ccs = _invalid_instance(spark)
    r2 = spark.createDataFrame(owned)
    res = c_extension(spark, db.spark_r1(spark), r2, ccs, dcs_all, seed=0)
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
    ranges = solve_invalid_tuples(
        invalid.groupby("bin_id").size(), ccs, res.binning, res.combos, fresh_start
    )
    want = _invalid_keys(invalid, ranges)
    got = r1_hat.set_index("p_id").loc[want["p_id"], "h_id"].to_numpy()
    assert (got == want["h_id"].to_numpy()).all()
    assert (got == fresh_start + np.arange(len(invalid))).all()
    assert (r1_hat["h_id"].value_counts()[got] == 1).all()
    combo = res.combos.table.set_index("combo_id").loc[want["combo_id"]]
    assert (r2_hat.loc[got, "Tenure"].to_numpy() == combo["Tenure"].to_numpy()).all()
    assert metrics.dc_error(res.r1_hat, dcs_all) == 0.0


def test_invalid_tuples_independent_of_input_order(spark, dcs_all):
    """Shuffled, repartitioned R1 and R2 of the invalid-tuple instance give
    the same R̂1 and R̂2, the invalid tuples' fresh households included."""
    db, owned, ccs = _invalid_instance(spark)
    got = []
    for r1, r2 in (
        (db.spark_r1(spark), spark.createDataFrame(owned)),
        (
            db.spark_r1(spark).orderBy(F.rand(5)).repartition(7),
            spark.createDataFrame(owned).orderBy(F.rand(6)).repartition(5),
        ),
    ):
        res = c_extension(spark, r1, r2, ccs, dcs_all, seed=0)
        assert res.phase1.n_invalid > 0
        got.append(
            (_sorted(res.r1_hat.toPandas()), _sorted(res.r2_hat.toPandas(), "h_id"))
        )
    for a, b in zip(*got):
        pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("invalid", [False, True])
def test_complete_fk_runs_one_action(spark, dcs_all, monkeypatch, invalid):
    """With or without invalid tuples, phase II runs two Spark actions, the
    collects of V_Join and of R2's (key, combo) pairs, and nothing else
    (actions inside another action not counted)."""
    actions, depth = [], [0]
    frame = type(spark.range(0))

    def counted(name):
        action = getattr(frame, name)

        def run(self, *a, **k):
            if inside[0] and not depth[0]:
                actions.append(name)
            depth[0] += 1
            try:
                return action(self, *a, **k)
            finally:
                depth[0] -= 1

        return run

    inside, complete_fk = [False], pipeline.complete_fk

    def watched(*a, **k):
        inside[0] = True
        try:
            return complete_fk(*a, **k)
        finally:
            inside[0] = False

    for name in ("toPandas", "collect", "count", "take", "first", "head"):
        monkeypatch.setattr(frame, name, counted(name))
    monkeypatch.setattr(pipeline, "complete_fk", watched)
    if invalid:
        db, owned, ccs = _invalid_instance(spark)
        r1, r2 = db.spark_r1(spark), spark.createDataFrame(owned)
    else:
        r1, r2, ccs = _own_instance(spark, seed=37)
    res = c_extension(spark, r1, r2, ccs, dcs_all, seed=0)
    assert (res.phase1.n_invalid > 0) == invalid
    assert actions == ["toPandas", "toPandas"]


def _solve_invalid_rowwise(invalid_pdf, ccs, binning, combos, fresh_start):
    """The row-at-a-time ``solve_invalid_tuples``: tuples numbered in
    (bin_id, p_id) order, each bin's combo scored by the set-based scorer."""
    scorer = Scorer(ccs, binning, combos)
    combo_ids = combos.table["combo_id"].tolist()
    rows, nxt = [], fresh_start
    for _, t in invalid_pdf.sort_values(["bin_id", "p_id"]).iterrows():
        b = int(t["bin_id"])
        best = min(combo_ids, key=lambda c: (scorer.score(b, c, set()), c))
        rows.append((int(t["p_id"]), nxt, int(best)))
        nxt += 1
    return pd.DataFrame(rows, columns=["p_id", "h_id", "combo_id"])


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
    ranges = solve_invalid_tuples(
        invalid.groupby("bin_id").size(), ccs_bad, binning, combos, 5000
    )
    assert ranges["bin_id"].is_monotonic_increasing
    got = _invalid_keys(invalid, ranges)
    want = _solve_invalid_rowwise(invalid, ccs_bad, binning, combos, 5000)
    pd.testing.assert_frame_equal(got, want)
