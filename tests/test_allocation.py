"""Tests for the driver's materialization of phase-I allocations."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.allocation import (
    alloc_ranges,
    fill_null_combos_random,
    materialize_vjoin,
    vjoin_schema,
)
from repro.core.binning import Binning, Combos, value_counts
from repro.core.constraints import CC, Cond
from repro.core.hybrid import INVALID_COMBO
from repro.oracle import assert_equivalent
from tests.vjoin_oracle import spark_fill


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


def test_materialize_counts_match_allocation(tiny):
    _, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    bin_old = [b for b in binning.avail if b != bin_young][0]
    alloc = pd.DataFrame(
        {
            "bin_id": [bin_young, bin_young, bin_old],
            "combo_id": [0, 1, 1],
            "count": [3, 1, 6],
        }
    )
    vj = materialize_vjoin(pdf, binning, alloc)
    got = vj.groupby(["bin_id", "combo_id"]).size().to_dict()
    assert got[(bin_young, 0)] == 3
    assert got[(bin_young, 1)] == 1
    assert got[(bin_old, 1)] == 6


def test_materialize_caps_overallocation(tiny):
    """Allocating more than a bin holds: extra range matches nothing."""
    _, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    alloc = pd.DataFrame({"bin_id": [bin_young], "combo_id": [0], "count": [99]})
    vj = materialize_vjoin(pdf, binning, alloc)
    assert (vj["combo_id"] == 0).sum() == 4  # only 4 tuples exist in that bin


def test_materialize_leaves_unallocated_null(tiny):
    _, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    alloc = pd.DataFrame({"bin_id": [bin_young], "combo_id": [0], "count": [2]})
    vj = materialize_vjoin(pdf, binning, alloc)
    assert vj["combo_id"].isna().sum() == 8


def test_materialize_empty_allocation(tiny):
    _, pdf, binning = tiny
    vj = materialize_vjoin(pdf, binning, pd.DataFrame(
        {"bin_id": [], "combo_id": [], "count": []}))
    assert vj["combo_id"].isna().sum() == 10


def test_materialize_is_deterministic(tiny):
    _, pdf, binning = tiny
    bin_young = int(binning.cond_bin_ids(Cond.of(Age=(0, 10)))[0])
    alloc = pd.DataFrame(
        {"bin_id": [bin_young, bin_young], "combo_id": [0, 1], "count": [2, 2]}
    )
    a = materialize_vjoin(pdf, binning, alloc)
    b = materialize_vjoin(pdf.sample(frac=1, random_state=1), binning, alloc)
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
    vj = spark.createDataFrame(
        materialize_vjoin(pdf, binning, empty), vjoin_schema(r1_df.schema)
    )

    def filled(df):
        out = fill_null_combos_random(df, combos, seed=3).select("p_id", "combo_id")
        return out.toPandas().sort_values("p_id").reset_index(drop=True)

    a = filled(vj)
    b = filled(vj.orderBy(F.rand(1)).repartition(3))
    pd.testing.assert_frame_equal(a, b)
    assert a["combo_id"].between(0, 2).all()


def _allocation(rng, avail: dict[int, int], case: str) -> pd.DataFrame:
    """Random (bin, combo, count) rows over ``avail``'s bins: each bin's
    total is split over four combos (INVALID_COMBO among the choices, empty
    parts included); ``over`` allocates more than a bin holds, ``under``
    less, ``empty`` nothing."""
    rows = []
    for b, n in ([] if case == "empty" else avail.items()):
        total = n + int(rng.integers(1, 4)) if case == "over" else int(rng.integers(0, n + 1))
        if case == "under":
            total = min(total, n - 1) if n else 0
        counts = np.diff([0, *np.sort(rng.integers(0, total + 1, size=3)), total])
        combos = rng.choice([INVALID_COMBO, 0, 1, 2, 3], size=4, replace=False)
        rows += [(b, int(c), int(k)) for c, k in zip(combos, counts)]
    return pd.DataFrame(rows, columns=["bin_id", "combo_id", "count"], dtype=np.int64)


def _null_safe(df: pd.DataFrame, by: list[str]) -> pd.DataFrame:
    """``df`` sorted by ``by`` with every null as None, so Spark's None and
    pandas' NaN group keys compare equal."""
    df = df.sort_values(by).reset_index(drop=True) if by else df
    return df.astype(object).where(df.notna(), None)


@pytest.mark.parametrize("case", ["over", "under", "empty", "no_attrs"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_driver_fill_and_histograms_equal_spark(spark, case, seed):
    """The NumPy fill equals the Spark range-join oracle row for row, on an
    R1 Spark has shuffled and repartitioned, and both pandas histograms
    equal Spark's ``groupBy().count()``, R2's nulls in a string and in a
    numeric active column included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    r1 = pd.DataFrame(
        {
            "Age": rng.integers(0, 30, n),
            "p_id": rng.permutation(1000)[:n],
            "Rel": rng.choice(["A", "B", "C"], n),
            "Other": np.where(rng.random(n) < 0.3, np.nan, rng.integers(0, 9, n)),
        }
    )
    r1_df = spark.createDataFrame(r1, "Age long, p_id long, Rel string, Other long")
    r1_df = r1_df.orderBy(F.rand(seed % 1000)).repartition(3)
    lo = int(rng.integers(0, 30))
    ccs = [CC(0, Cond.of(Age=(lo, lo + int(rng.integers(0, 10)))), Cond.of(Area="a"), 0)]
    attrs = [] if case == "no_attrs" else ["Age", "Rel"]

    rows = r1_df.toPandas()
    hist = value_counts(rows, attrs)
    spark_hist = r1_df.groupBy(*attrs).count().toPandas()
    pd.testing.assert_frame_equal(_null_safe(hist, attrs), _null_safe(spark_hist, attrs))
    binning = Binning.build(hist, ccs, attrs)
    alloc = _allocation(rng, binning.avail, case)
    got = spark.createDataFrame(
        materialize_vjoin(rows, binning, alloc), vjoin_schema(r1_df.schema)
    )
    want = spark_fill(spark, r1_df, binning, alloc)
    assert [f.dataType for f in got.schema] == [f.dataType for f in want.schema]
    pd.testing.assert_frame_equal(
        got.toPandas().sort_values("p_id").reset_index(drop=True),
        want.toPandas().sort_values("p_id").reset_index(drop=True),
    )

    m = int(rng.integers(0, 12))
    r2 = pd.DataFrame(
        {
            "h_id": np.arange(m),
            "Area": np.where(rng.random(m) < 0.3, None, rng.choice(["a", "b"], m)),
            "Ten": np.where(rng.random(m) < 0.3, np.nan, rng.integers(0, 3, m)),
        }
    )
    r2_df = spark.createDataFrame(r2, "h_id long, Area string, Ten long")
    active = ["Area", "Ten"]
    pd.testing.assert_frame_equal(
        _null_safe(value_counts(r2_df.toPandas(), active), active),
        _null_safe(r2_df.groupBy(*active).count().toPandas(), active),
    )


def test_vjoin_row_count_equals_r1_oracle(spark, db, solved):
    """|V_Join| = |R1| (§3.1) — checked through the DuckDB oracle."""
    got = solved.vjoin.groupBy().agg(F.count("*").alias("n"))
    assert_equivalent(
        got,
        "SELECT count(*) AS n FROM persons",
        persons=db.persons_missing_fk(),
    )
