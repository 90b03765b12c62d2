"""Tests for the Census-like data substrate.

Critical property: the ground-truth household assignment must satisfy every
DC of Table 4 — otherwise true-count CC targets could be inconsistent with
the DCs and the paper's zero-DC-error guarantee would be vacuous here.
"""
import numpy as np
import pandas as pd
import pytest

from repro import census, workloads
from repro.core.conflict import enumerate_edges


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_row_counts_track_paper_ratio(scale):
    db = census.generate(scale=scale, shrink=0.01, seed=0)
    assert len(db.housing) == round(census.HOUSING_PER_SCALE * scale * 0.01)
    ratio = len(db.persons) / len(db.housing)
    assert 2.0 < ratio < 3.2  # paper's 2.556 ± sampling noise


def test_deterministic_in_seed():
    a = census.generate(scale=1.0, shrink=0.01, seed=5)
    b = census.generate(scale=1.0, shrink=0.01, seed=5)
    pd.testing.assert_frame_equal(a.persons, b.persons)
    pd.testing.assert_frame_equal(a.housing, b.housing)


def test_different_seeds_differ():
    a = census.generate(scale=1.0, shrink=0.01, seed=5)
    b = census.generate(scale=1.0, shrink=0.01, seed=6)
    assert not a.persons.equals(b.persons)


def test_schema_columns():
    db = census.generate(scale=0.5, shrink=0.01, seed=0)
    assert list(db.persons.columns) == ["p_id", "Age", "Rel", "Multi_ling", "h_id"]
    assert list(db.housing.columns) == ["h_id", "Tenure", "Area"]


@pytest.mark.parametrize("n_cols", [2, 4, 6, 8, 10])
def test_r2_column_ladder(n_cols):
    db = census.generate(scale=0.5, shrink=0.01, seed=0, n_r2_cols=n_cols)
    assert list(db.housing.columns) == ["h_id"] + census.R2_COLUMN_LADDER[n_cols]


def test_geography_hierarchy_consistent():
    db = census.generate(scale=1.0, shrink=0.01, seed=0, n_r2_cols=6)
    per_area = db.housing.groupby("Area")[["County", "St", "Div", "Reg"]].nunique()
    assert (per_area == 1).all().all()  # Area determines the hierarchy


def test_every_person_has_valid_household():
    db = census.generate(scale=1.0, shrink=0.01, seed=3)
    assert db.persons["h_id"].isin(db.housing["h_id"]).all()


def test_one_owner_per_household():
    db = census.generate(scale=2.0, shrink=0.01, seed=3)
    owners = db.persons[db.persons["Rel"] == census.OWNER]
    assert owners.groupby("h_id").size().max() == 1


def test_at_most_one_spouse_or_partner_per_household():
    db = census.generate(scale=2.0, shrink=0.01, seed=3)
    sp = db.persons[db.persons["Rel"].isin([census.SPOUSE, census.PARTNER])]
    assert sp.empty or sp.groupby("h_id").size().max() == 1


def test_ages_in_domain():
    db = census.generate(scale=1.0, shrink=0.01, seed=2)
    assert db.persons["Age"].between(0, census.AGE_MAX).all()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ground_truth_satisfies_all_12_dcs(seed):
    """Per household, the true assignment must create no conflict edge."""
    db = census.generate(scale=1.0, shrink=0.01, seed=seed)
    dcs = workloads.dcs_all()
    for _, grp in db.persons.groupby("h_id"):
        edges = enumerate_edges(grp.reset_index(drop=True), dcs)
        assert len(edges) == 0, f"household violates a DC: {grp}"


def test_truth_vjoin_shape():
    db = census.generate(scale=1.0, shrink=0.01, seed=1)
    vj = db.truth_vjoin
    assert len(vj) == len(db.persons)
    assert "Area" in vj.columns and "Tenure" in vj.columns


def test_persons_missing_fk_drops_hid():
    db = census.generate(scale=0.5, shrink=0.01, seed=1)
    assert "h_id" not in db.persons_missing_fk().columns


def test_spark_frames_roundtrip(spark):
    db = census.generate(scale=0.5, shrink=0.01, seed=1)
    assert db.spark_r1(spark).count() == len(db.persons)
    assert db.spark_r2(spark).count() == len(db.housing)


def test_truth_vjoin_counts_match_duckdb_oracle(spark, db):
    """Spark ground-truth join histogram == DuckDB's (oracle check)."""
    from repro.oracle import assert_equivalent
    from pyspark.sql import functions as F

    persons = spark.createDataFrame(db.persons)
    housing = spark.createDataFrame(db.housing)
    got = (
        persons.join(housing, on="h_id")
        .groupBy("Rel", "Area")
        .agg(F.count("*").alias("n"))
    )
    assert_equivalent(
        got,
        """
        SELECT Rel, Area, count(*) AS n
        FROM persons JOIN housing USING (h_id)
        GROUP BY Rel, Area
        """,
        persons=db.persons,
        housing=db.housing,
    )
