"""Tests for the Spark materialization of phase-I allocations."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.allocation import alloc_ranges, fill_null_combos_random, materialize_vjoin
from repro.core.binning import Binning, Combos
from repro.core.constraints import CC, Cond
from repro.oracle import assert_equivalent


def test_alloc_ranges_cumulative_per_bin():
    alloc = pd.DataFrame(
        {"bin_id": [0, 0, 1], "combo_id": [0, 1, 0], "count": [3, 2, 5]}
    )
    r = alloc_ranges(alloc)
    assert r.loc[0].tolist() == [0, 0, 0, 3]
    assert r.loc[1].tolist() == [0, 1, 3, 5]
    assert r.loc[2].tolist() == [1, 0, 0, 5]


@pytest.fixture(scope="module")
def tiny(spark):
    pdf = pd.DataFrame(
        {
            "p_id": range(1, 11),
            "Age": [5] * 4 + [20] * 6,
            "Rel": ["A"] * 10,
            "Multi_ling": [0] * 10,
        }
    )
    ccs = [CC(0, Cond.of(Age=(0, 10)), Cond.of(Area="C"), 0)]
    attrs = ["Age", "Rel", "Multi_ling"]
    binning = Binning.build(
        pdf.groupby(attrs).size().reset_index(name="count"), ccs, attrs
    )
    return spark.createDataFrame(pdf), pdf, binning


def test_materialize_counts_match_allocation(spark, tiny):
    r1_df, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    bin_old = [b for b in binning.avail if b != bin_young][0]
    alloc = pd.DataFrame(
        {
            "bin_id": [bin_young, bin_young, bin_old],
            "combo_id": [0, 1, 1],
            "count": [3, 1, 6],
        }
    )
    vj = materialize_vjoin(spark, r1_df, binning, alloc)
    got = vj.groupBy("bin_id", "combo_id").agg(F.count("*").alias("n")).toPandas()
    got = got.set_index(["bin_id", "combo_id"])["n"].to_dict()
    assert got[(bin_young, 0)] == 3
    assert got[(bin_young, 1)] == 1
    assert got[(bin_old, 1)] == 6


def test_materialize_caps_overallocation(spark, tiny):
    """Allocating more than a bin holds: extra range matches nothing."""
    r1_df, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    alloc = pd.DataFrame({"bin_id": [bin_young], "combo_id": [0], "count": [99]})
    vj = materialize_vjoin(spark, r1_df, binning, alloc)
    n = vj.filter(F.col("combo_id") == 0).count()
    assert n == 4  # only 4 tuples exist in that bin


def test_materialize_leaves_unallocated_null(spark, tiny):
    r1_df, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    alloc = pd.DataFrame({"bin_id": [bin_young], "combo_id": [0], "count": [2]})
    vj = materialize_vjoin(spark, r1_df, binning, alloc)
    assert vj.filter(F.col("combo_id").isNull()).count() == 8


def test_materialize_empty_allocation(spark, tiny):
    r1_df, pdf, binning = tiny
    vj = materialize_vjoin(spark, r1_df, binning, pd.DataFrame(
        {"bin_id": [], "combo_id": [], "count": []}))
    assert vj.filter(F.col("combo_id").isNull()).count() == 10


def test_materialize_is_deterministic(spark, tiny):
    r1_df, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    alloc = pd.DataFrame(
        {"bin_id": [bin_young, bin_young], "combo_id": [0, 1], "count": [2, 2]}
    )
    a = materialize_vjoin(spark, r1_df, binning, alloc).toPandas()
    b = materialize_vjoin(spark, r1_df, binning, alloc).toPandas()
    pd.testing.assert_frame_equal(
        a.sort_values("p_id").reset_index(drop=True),
        b.sort_values("p_id").reset_index(drop=True),
    )


def test_random_fill_independent_of_partitioning(spark, tiny):
    """The baseline's leftover combos do not depend on row order or
    partitioning."""
    r1_df, pdf, binning = tiny
    combos = Combos.build(pd.DataFrame({"Area": ["a", "b", "c"], "count": [1, 1, 1]}), ["Area"])
    empty = pd.DataFrame({"bin_id": [], "combo_id": [], "count": []})

    def filled(df):
        vj = materialize_vjoin(spark, df, binning, empty)
        out = fill_null_combos_random(vj, combos, seed=3).select("p_id", "combo_id")
        return out.toPandas().sort_values("p_id").reset_index(drop=True)

    a = filled(r1_df)
    b = filled(r1_df.orderBy(F.rand(1)).repartition(3))
    pd.testing.assert_frame_equal(a, b)
    assert a["combo_id"].between(0, 2).all()


def test_vjoin_row_count_equals_r1_oracle(spark, db, solved):
    """|V_Join| = |R1| (§3.1) — checked through the DuckDB oracle."""
    got = solved.vjoin.groupBy().agg(F.count("*").alias("n"))
    assert_equivalent(
        got,
        "SELECT count(*) AS n FROM persons",
        persons=db.persons_missing_fk(),
    )
