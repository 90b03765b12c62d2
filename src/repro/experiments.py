"""Experiment harness reproducing the evaluation tables (§6).

Each ``run_*`` function reproduces one table of the paper's evaluation and
returns a pandas DataFrame with one row per table cell group. The paper's
published numbers are kept alongside in ``PAPER_*`` constants so
EXPERIMENTS.md can diff them (see also jobs/ and benchmarks/).

Scale substitution (DESIGN.md §3): the paper's 1× = 25,099 persons; we run
at ``SHRINK`` (default 0.02 → 1× ≈ 500 persons) so the full grid fits a
laptop-class Spark local session. Workload sizes scale likewise (the paper's
1001 CCs → ``N_CC`` ≈ 140).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from . import census, workloads
from .core import metrics
from .core.constraints import CC, DC
from .core.pipeline import c_extension

SHRINK = 0.02
N_CC = 140
SEED = 1

#: Figure 8a (table): S_DC_all + S_CC_good, scales 1×–40×.
PAPER_FIG8A = pd.DataFrame(
    {
        "scale": [1, 2, 5, 10, 40],
        "cc_baseline": [0.300, 0.367, 0.526, 0.604, 0.559],
        "cc_baseline_marginals": [0, 0, 0, 0, 0],
        "cc_hybrid": [0, 0, 0, 0, 0],
        "dc_baseline": [0.218, 0.245, 0.274, 0.303, 0.371],
        "dc_baseline_marginals": [0.445, 0.465, 0.446, 0.489, 0.520],
        "dc_hybrid": [0, 0, 0, 0, 0],
    }
)

#: Figure 8b (table): S_DC_all + S_CC_bad.
PAPER_FIG8B = pd.DataFrame(
    {
        "scale": [1, 2, 5, 10, 40],
        "cc_baseline": [0.233, 0.300, 0.467, 0.537, 0.580],
        "cc_baseline_marginals": [0, 0, 0, 0, 0],
        "cc_hybrid": [0, 0, 0, 0, 0],
        "dc_baseline": [0.228, 0.246, 0.279, 0.305, 0.373],
        "dc_baseline_marginals": [0.435, 0.434, 0.402, 0.510, 0.489],
        "dc_hybrid": [0, 0, 0, 0, 0],
    }
)

#: Figure 10 (table): datasets 11, 12, 4, 9 at scale 10×.
PAPER_FIG10 = pd.DataFrame(
    {
        "dataset": [11, 12, 4, 9],
        "dcs": ["good", "good", "all", "all"],
        "ccs": ["good", "bad", "good", "bad"],
        "cc_baseline": [0.618, 0.573, 0.604, 0.537],
        "cc_baseline_marginals": [0, 0, 0, 0],
        "cc_hybrid": [0, 0, 0, 0],
        "dc_baseline": [0.081, 0.079, 0.303, 0.305],
        "dc_baseline_marginals": [0.009, 0.004, 0.489, 0.510],
        "dc_hybrid": [0, 0, 0, 0],
    }
)

#: Figure 13 (table): hybrid runtime breakdown, 10×, 900 CCs good vs bad.
PAPER_FIG13 = pd.DataFrame(
    {
        "flavor": ["good", "bad"],
        "pairwise_s": [4.48, 4.24],
        "recursion_s": [102.0, 77.4],      # 1.70m / 1.29m
        "ilp_s": [0.0, 3816.0],            # — / 1.06h
        "coloring_s": [292.2, 526.2],      # 4.87m / 8.77m
    }
)

#: Table 1: paper row counts per scale.
PAPER_TABLE1 = pd.DataFrame(
    {
        "scale": [1, 2, 5, 10, 40, 80, 120, 160],
        "persons": [25_099, 50_039, 124_746, 249_259, 1_015_686, 2_043_975,
                    3_064_328, 4_097_471],
        "housing": [9_820, 19_640, 49_100, 98_200, 392_800, 785_600,
                    1_178_400, 1_571_200],
    }
)


def make_ccs(db: census.CensusDB, flavor: str, n_cc: int = N_CC) -> list[CC]:
    """``S_CC_good`` for ``flavor='good'``, else ``S_CC_bad`` (Table 5)."""
    make = workloads.make_cc_good if flavor == "good" else workloads.make_cc_bad
    return make(db, n_cc=n_cc, seed=0)


def make_dcs(flavor: str) -> list[DC]:
    """``S_DC_good`` for ``flavor='good'``, else ``S_DC_all`` (Table 4)."""
    return workloads.dcs_good() if flavor == "good" else workloads.dcs_all()


def run_cell(spark: SparkSession, db: census.CensusDB, ccs, dcs, method: str) -> dict:
    """One table cell: a pipeline run plus its error metrics and timings.

    The one experiment path: the ``run_*`` tables, ``benchmarks/`` and the
    tests all go through it, so ``results/*.csv`` rows have its columns.
    """
    res = c_extension(
        spark, db.spark_r1(spark), db.spark_r2(spark), ccs, dcs,
        method=method, seed=SEED,
    )
    rep = metrics.cc_report(res.r1_hat, res.r2_hat, ccs)
    s = metrics.cc_error_summary(rep)
    out = {
        "method": method,
        "cc_median": s["median"],
        "cc_mean": round(s["mean"], 4),
        "dc_error": round(metrics.dc_error(res.r1_hat, dcs), 4),
        "ilp_s": round(res.timings["ilp"], 3),
        "pairwise_s": round(res.timings["pairwise"], 3),
        "recursion_s": round(res.timings["recursion"], 3),
        "coloring_s": round(res.timings["coloring"], 3),
        "phase1_s": round(res.timings["phase1_total"], 3),
        "total_s": round(res.timings["total"], 3),
        "n_persons": len(db.persons),
    }
    res.vjoin.unpersist()
    res.r1_hat.unpersist()
    return out


def run_table1(scales=(1, 2, 5, 10, 40, 80, 120, 160), shrink=SHRINK) -> pd.DataFrame:
    """Table 1: data-scale row counts at our shrink factor."""
    rows = []
    for sc in scales:
        db = census.generate(scale=sc, shrink=shrink, seed=SEED)
        rows.append(
            {
                "scale": sc,
                "persons": len(db.persons),
                "housing": len(db.housing),
                "vjoin": len(db.persons),
                "paper_persons": int(PAPER_TABLE1.set_index("scale")["persons"].get(sc, -1)),
                "paper_housing": int(PAPER_TABLE1.set_index("scale")["housing"].get(sc, -1)),
            }
        )
    return pd.DataFrame(rows)


def run_fig8(
    spark: SparkSession,
    flavor: str,
    scales=(1, 2, 5, 10),
    methods=("baseline", "baseline_marginals", "hybrid"),
    n_cc: int = N_CC,
    shrink: float = SHRINK,
) -> pd.DataFrame:
    """Figures 8a (flavor='good') / 8b (flavor='bad'): error vs data scale."""
    dcs = workloads.dcs_all()
    rows = []
    for sc in scales:
        db = census.generate(scale=sc, shrink=shrink, seed=SEED)
        ccs = make_ccs(db, flavor, n_cc)
        for method in methods:
            r = run_cell(spark, db, ccs, dcs, method)
            r.update({"scale": sc, "ccs": flavor})
            rows.append(r)
    return pd.DataFrame(rows)


#: Table 2 datasets 11, 12, 4, 9 — (DC set, CC set) combos at scale 10×.
FIG10_DATASETS = [
    (11, "good", "good"),
    (12, "good", "bad"),
    (4, "all", "good"),
    (9, "all", "bad"),
]


def run_fig10(
    spark: SparkSession,
    scale: float = 10,
    methods=("baseline", "baseline_marginals", "hybrid"),
    n_cc: int = N_CC,
    shrink: float = SHRINK,
) -> pd.DataFrame:
    """Figure 10: good/bad DC × CC combos at fixed scale."""
    db = census.generate(scale=scale, shrink=shrink, seed=SEED)
    rows = []
    for ds, dc_flavor, cc_flavor in FIG10_DATASETS:
        dcs = make_dcs(dc_flavor)
        ccs = make_ccs(db, cc_flavor, n_cc)
        for method in methods:
            r = run_cell(spark, db, ccs, dcs, method)
            r.update({"dataset": ds, "dcs": dc_flavor, "ccs": cc_flavor})
            rows.append(r)
    return pd.DataFrame(rows)


def run_fig11(
    spark: SparkSession,
    scales=(10, 20, 40),
    n_cc: int = N_CC,
    shrink: float = SHRINK,
) -> pd.DataFrame:
    """Figure 11b (shape): hybrid runtime vs scale, good DCs, good/bad CCs."""
    dcs = workloads.dcs_good()
    rows = []
    for sc in scales:
        db = census.generate(scale=sc, shrink=shrink, seed=SEED)
        for flavor in ("good", "bad"):
            r = run_cell(spark, db, make_ccs(db, flavor, n_cc), dcs, "hybrid")
            r.update({"scale": sc, "ccs": flavor})
            rows.append(r)
    return pd.DataFrame(rows)


def run_fig12(
    spark: SparkSession,
    n_cols=(2, 4, 6, 8, 10),
    scale: float = 10,
    n_cc: int = N_CC,
    shrink: float = SHRINK,
) -> pd.DataFrame:
    """Figure 12 (shape): hybrid runtime as the number of R2 columns grows."""
    dcs = workloads.dcs_good()
    rows = []
    for nc in n_cols:
        db = census.generate(scale=scale, shrink=shrink, seed=SEED, n_r2_cols=nc)
        r = run_cell(spark, db, make_ccs(db, "good", n_cc), dcs, "hybrid")
        r.update({"n_r2_cols": nc})
        rows.append(r)
    return pd.DataFrame(rows)


def run_fig13(
    spark: SparkSession,
    n_ccs=(60, 100, 140),
    scale: float = 10,
    shrink: float = SHRINK,
) -> pd.DataFrame:
    """Figure 13: hybrid runtime breakdown vs CC-set size, good vs bad."""
    dcs = workloads.dcs_all()
    db = census.generate(scale=scale, shrink=shrink, seed=SEED)
    rows = []
    for n_cc in n_ccs:
        for flavor in ("good", "bad"):
            r = run_cell(spark, db, make_ccs(db, flavor, n_cc), dcs, "hybrid")
            r.update({"n_cc": n_cc, "ccs": flavor})
            rows.append(r)
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame, title: str) -> str:
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        return f"== {title} ==\n{df.round(4).to_string(index=False)}\n"
