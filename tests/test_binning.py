"""Tests for intervalization/binning (§4.1) and the active-combo table."""
import numpy as np
import pandas as pd
import pytest

from repro.core.binning import (
    Binning,
    Combos,
    Coverage,
    active_r2_columns,
    numeric_columns,
)
from repro.core.constraints import CC, Cond
from tests.conftest import build_phase1_inputs
from tests.scorer_oracle import Scorer


def _cc(i, r1, r2=None, k=0):
    return CC(i, Cond.of(**r1), Cond.of(**(r2 or {"Area": "C"})), k)


def _distinct(pdf, attrs):
    return pdf.groupby(attrs).size().reset_index(name="count")


@pytest.fixture
def small_r1():
    return pd.DataFrame(
        {
            "Age": [5, 10, 15, 20, 25, 25, 30, 40],
            "Rel": ["A", "A", "A", "B", "B", "B", "B", "A"],
            "Multi_ling": [0, 0, 0, 1, 0, 0, 1, 1],
        }
    )


def test_numeric_columns_detected_from_ranges(small_r1):
    ccs = [_cc(0, {"Age": (0, 14)}), _cc(1, {"Rel": "A"})]
    assert numeric_columns(ccs, ["Age", "Rel", "Multi_ling"]) == ["Age"]


def test_no_range_means_all_categorical(small_r1):
    ccs = [_cc(0, {"Rel": "A"})]
    b = Binning.build(_distinct(small_r1, ["Age", "Rel", "Multi_ling"]), ccs,
                      ["Age", "Rel", "Multi_ling"])
    assert b.num_cols == []
    # every distinct Age value is its own bin key then
    assert b.bins["count"].sum() == len(small_r1)


def test_bin_counts_sum_to_rows(small_r1):
    ccs = [_cc(0, {"Age": (0, 14)}), _cc(1, {"Age": (15, 27)})]
    b = Binning.build(_distinct(small_r1, ["Age", "Rel", "Multi_ling"]), ccs,
                      ["Age", "Rel", "Multi_ling"])
    assert b.bins["count"].sum() == len(small_r1)
    assert set(b.avail.values()) == set(b.bins["count"].astype(int))


def test_intervalization_reduces_bins(small_r1):
    """Ages 15..27 collapse into one interval per (Rel, Multi_ling)."""
    ccs = [_cc(0, {"Age": (0, 14)}), _cc(1, {"Age": (15, 27)})]
    attrs = ["Age", "Rel", "Multi_ling"]
    b = Binning.build(_distinct(small_r1, attrs), ccs, attrs)
    n_no_binning = len(small_r1.drop_duplicates(attrs))
    assert len(b.bins) < n_no_binning


def test_cond_bin_ids_exact_for_breakpoint_ranges(small_r1):
    ccs = [_cc(0, {"Age": (0, 14)}), _cc(1, {"Age": (15, 27)})]
    attrs = ["Age", "Rel", "Multi_ling"]
    b = Binning.build(_distinct(small_r1, attrs), ccs, attrs)
    ids = set(b.cond_bin_ids(Cond.of(Age=(0, 14))).tolist())
    merged = small_r1.merge(b.mapping, on=attrs)
    in_range = set(merged.loc[merged["Age"] <= 14, "bin_id"])
    out_range = set(merged.loc[merged["Age"] > 14, "bin_id"])
    assert in_range <= ids
    assert not (out_range & ids)


def test_mapping_covers_all_rows(small_r1):
    ccs = [_cc(0, {"Age": (10, 20)})]
    attrs = ["Age", "Rel", "Multi_ling"]
    b = Binning.build(_distinct(small_r1, attrs), ccs, attrs)
    merged = small_r1.merge(b.mapping, on=attrs, how="left")
    assert merged["bin_id"].notna().all()


def test_equality_on_numeric_column_becomes_singleton_interval(small_r1):
    ccs = [_cc(0, {"Age": (0, 30)}), _cc(1, {"Age": 25})]
    attrs = ["Age", "Rel", "Multi_ling"]
    b = Binning.build(_distinct(small_r1, attrs), ccs, attrs)
    ids = set(b.cond_bin_ids(Cond.of(Age=25)).tolist())
    merged = small_r1.merge(b.mapping, on=attrs)
    age25 = set(merged.loc[merged["Age"] == 25, "bin_id"])
    others = set(merged.loc[merged["Age"] != 25, "bin_id"])
    assert age25 <= ids and not (others & ids)


def test_paper_example_41_bins(running_example):
    """Example 4.1: intervalization splits Age into [0,24] and [25,114]."""
    persons, _, ccs, _ = running_example
    attrs = ["Age", "Rel", "Multi_ling"]
    b = Binning.build(_distinct(persons, attrs), ccs, attrs)
    assert b.num_cols == ["Age"]
    assert b.breaks["Age"].tolist() == [10, 25]  # domain min 10, split at 25
    # exactly the paper's 4 tuple types: (Owner,0)x[25,114], (Owner,1)x[25,114],
    # (Spouse,0)x[0,24], (Child,1)x[0,24]
    assert len(b.bins) == 4
    assert b.bins["count"].sum() == 9


def test_combos_build_and_len(db):
    c = Combos.build(
        db.housing.groupby(["Tenure", "Area"]).size().reset_index(name="count"),
        ["Tenure", "Area"],
    )
    assert len(c) == db.housing.groupby(["Tenure", "Area"]).ngroups
    assert c.table["n_households"].sum() == len(db.housing)


def test_combos_cond_ids(db):
    c = Combos.build(
        db.housing.groupby(["Tenure", "Area"]).size().reset_index(name="count"),
        ["Tenure", "Area"],
    )
    area = db.housing["Area"].iloc[0]
    ids = c.cond_combo_ids(Cond.of(Area=area))
    assert len(ids) == (c.table["Area"] == area).sum()


def test_combos_empty_active_cols():
    c = Combos.build(pd.DataFrame({"count": [42]}), [])
    assert len(c) == 1
    assert c.cond_combo_ids(Cond.of()).tolist() == [0]
    assert c.table["n_households"].iloc[0] == 42


def test_combos_non_active_column_raises(db):
    c = Combos.build(
        db.housing.groupby(["Area"]).size().reset_index(name="count"), ["Area"]
    )
    with pytest.raises(ValueError):
        c.cond_combo_ids(Cond.of(Tenure="Owned"))


def test_coverage_masks_match_cond_ids(db, ccs_bad):
    binning, combos = build_phase1_inputs(db, ccs_bad)
    cov = Coverage.build(ccs_bad, binning, combos)
    scorer = Scorer(ccs_bad, binning, combos)
    assert cov.count.shape == (len(binning.bins), len(combos))
    want = np.zeros(cov.count.shape, dtype=np.int64)
    for cc in ccs_bad:
        i = cov.row[cc.cc_id]
        bins = sorted(scorer.bin_sets[cc.cc_id])
        cids = sorted(scorer.combo_sets[cc.cc_id])
        np.testing.assert_array_equal(np.flatnonzero(cov.bins[i]), bins)
        np.testing.assert_array_equal(np.flatnonzero(cov.combos[i]), cids)
        want[np.ix_(bins, cids)] += 1
    np.testing.assert_array_equal(cov.count, want)


def test_active_r2_columns_union_order():
    ccs = [
        _cc(0, {"Rel": "A"}, {"Area": "C"}),
        _cc(1, {"Rel": "B"}, {"Tenure": "O", "Area": "C"}),
    ]
    assert active_r2_columns(ccs) == ["Area", "Tenure"]


def test_spark_bin_histogram_matches_duckdb(spark, db, ccs_good):
    """The pipeline's groupBy histogram (binning input) is oracle-checked."""
    from pyspark.sql import functions as F
    from repro.oracle import assert_equivalent

    r1 = db.spark_r1(spark)
    got = r1.groupBy("Age", "Rel", "Multi_ling").agg(F.count("*").alias("n"))
    assert_equivalent(
        got,
        "SELECT Age, Rel, Multi_ling, count(*) AS n FROM r1 GROUP BY 1,2,3",
        r1=db.persons_missing_fk(),
    )


def test_phase1_inputs_builder_consistency(db, ccs_good):
    binning, combos = build_phase1_inputs(db, ccs_good)
    assert binning.bins["count"].sum() == len(db.persons)
    assert combos.table["n_households"].sum() == len(db.housing)
