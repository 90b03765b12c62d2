"""Shared fixtures: small Census database, the paper's running example
(Figures 1–2), and cached end-to-end pipeline results per method."""
from __future__ import annotations

import pandas as pd
import pytest

from repro import census, workloads
from repro.core.binning import Binning, Combos, active_r2_columns, bin_columns
from repro.core.constraints import CC, Cond, DC, OutsideComp, pairwise_dc
from repro.core.pipeline import c_extension


@pytest.fixture(scope="session")
def db() -> census.CensusDB:
    """Scale 1× at shrink 0.01 — ≈250 persons, ≈100 households."""
    return census.generate(scale=1.0, shrink=0.01, seed=1)


@pytest.fixture(scope="session")
def db_mid() -> census.CensusDB:
    """A slightly larger instance for integration tests."""
    return census.generate(scale=2.0, shrink=0.01, seed=7)


@pytest.fixture(scope="session")
def ccs_good(db) -> list[CC]:
    return workloads.make_cc_good(db, n_cc=60, seed=0)


@pytest.fixture(scope="session")
def ccs_bad(db) -> list[CC]:
    return workloads.make_cc_bad(db, n_cc=60, seed=0)


@pytest.fixture(scope="session")
def dcs_all() -> list[DC]:
    return workloads.dcs_all()


@pytest.fixture(scope="session")
def dcs_good() -> list[DC]:
    return workloads.dcs_good()


def build_phase1_inputs(db: census.CensusDB, ccs: list[CC]):
    """Driver-side binning/combos exactly as the pipeline builds them."""
    r1 = db.persons_missing_fk()
    attrs = bin_columns(ccs, [c for c in r1.columns if c != "p_id"])
    binning = Binning.build(
        r1.groupby(attrs).size().reset_index(name="count"), ccs, attrs
    )
    active = active_r2_columns(ccs)
    if active:
        counts = db.housing.groupby(active).size().reset_index(name="count")
    else:
        counts = pd.DataFrame({"count": [len(db.housing)]})
    combos = Combos.build(counts, active)
    return binning, combos


@pytest.fixture(scope="session")
def running_example():
    """The paper's Figures 1–2: 9 persons, 6 households, 4 CCs, 3 DC rules."""
    persons = pd.DataFrame(
        {
            "p_id": range(1, 10),
            "Age": [75, 75, 25, 25, 24, 10, 10, 30, 30],
            "Rel": ["Owner"] * 4 + ["Spouse", "Child", "Child", "Owner", "Owner"],
            "Multi_ling": [0, 1, 0, 1, 0, 1, 1, 0, 1],
        }
    )
    housing = pd.DataFrame(
        {
            "h_id": range(1, 7),
            "Area": ["Chicago"] * 4 + ["NYC"] * 2,
        }
    )
    ccs = [
        CC(0, Cond.of(Rel="Owner"), Cond.of(Area="Chicago"), 4),
        CC(1, Cond.of(Rel="Owner"), Cond.of(Area="NYC"), 2),
        CC(2, Cond.of(Age=(0, 24)), Cond.of(Area="Chicago"), 3),
        CC(3, Cond.of(Multi_ling=1), Cond.of(Area="Chicago"), 4),
    ]
    owner = Cond.of(Rel="Owner")
    dcs = [
        pairwise_dc("dc_oo", owner, owner),
        DC(
            "dc_os",
            (owner, Cond.of(Rel="Spouse")),
            (OutsideComp(1, "Age", 0, "Age", -50, 50),),
        ),
        DC(
            "dc_oc",
            (Cond.of(Rel="Owner", Multi_ling=1), Cond.of(Rel="Child")),
            (OutsideComp(1, "Age", 0, "Age", -50, -12),),
        ),
    ]
    return persons, housing, ccs, dcs


@pytest.fixture(scope="session")
def solved(spark, db, ccs_good, dcs_all):
    """Hybrid end-to-end on (db, good CCs, all DCs) — shared by many tests."""
    r1, r2 = db.spark_r1(spark), db.spark_r2(spark)
    return c_extension(spark, r1, r2, ccs_good, dcs_all, method="hybrid", seed=0)


@pytest.fixture(scope="session")
def solved_bad(spark, db, ccs_bad, dcs_all):
    r1, r2 = db.spark_r1(spark), db.spark_r2(spark)
    return c_extension(spark, r1, r2, ccs_bad, dcs_all, method="hybrid", seed=0)


@pytest.fixture(scope="session")
def solved_baseline(spark, db, ccs_good, dcs_all):
    r1, r2 = db.spark_r1(spark), db.spark_r2(spark)
    return c_extension(spark, r1, r2, ccs_good, dcs_all, method="baseline", seed=0)


@pytest.fixture(scope="session")
def solved_baseline_marg(spark, db, ccs_good, dcs_all):
    r1, r2 = db.spark_r1(spark), db.spark_r2(spark)
    return c_extension(
        spark, r1, r2, ccs_good, dcs_all, method="baseline_marginals", seed=0
    )
