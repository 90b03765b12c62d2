"""Experiment harness reproducing the evaluation tables (§6).

:data:`TABLES` defines each table of the paper's evaluation (Figs 8a/8b/10/
11b/12/13) once, as data: the cell fields it holds fixed, the axes it sweeps
and the labels its rows carry. :func:`run_table` runs a table's cells through
:func:`run_cell`, the one experiment path; ``benchmarks/bench_tables.py``
runs the same cells one benchmark each and writes ``results/<table>.csv``,
``jobs/run_table.py`` prints a table and ``jobs/run_pipeline.py`` one
cell. The paper's published numbers are kept alongside in ``PAPER_*``
constants so EXPERIMENTS.md can diff them.

Scale substitution (DESIGN.md §3): the paper's 1× = 25,099 persons; we run
at ``SHRINK`` (default 0.02 → 1× ≈ 500 persons) so the full grid fits a
laptop-class Spark local session. Workload sizes scale likewise (the paper's
1001 CCs → ``N_CC`` ≈ 140).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

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

    The one experiment path: ``run_table``, ``benchmarks/`` and the tests
    all go through it, so ``results/*.csv`` rows have its columns.
    """
    res = c_extension(
        spark, db.spark_r1(spark), db.spark_r2(spark), ccs, dcs,
        method=method, seed=SEED,
    )
    rep = metrics.cc_report(res.r1_hat, res.r2_hat, ccs)
    s = metrics.cc_error_summary(rep)
    return {
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


@functools.cache
def census_db(scale: float, n_r2_cols: int, shrink: float) -> census.CensusDB:
    """The database of a cell, generated once per process; callers share it
    and must not modify it."""
    return census.generate(scale=scale, shrink=shrink, seed=SEED, n_r2_cols=n_r2_cols)


@dataclass
class Table:
    """One evaluation table as a grid of cells.

    A cell sets ``method``, ``dcs``/``ccs`` (the DC and CC flavor: ``make_dcs``
    / ``make_ccs``), ``scale``, ``n_cc`` and ``n_r2_cols``; a Table 2
    ``dataset`` id sets ``dcs`` and ``ccs`` instead. ``fixed`` holds the
    fields every cell shares, ``axes`` the swept ones (the first varies
    slowest), and ``labels`` the fields each row carries after
    ``run_cell``'s columns: the trailing columns of ``results/<table>.csv``.
    """

    title: str
    fixed: dict
    axes: dict
    labels: tuple[str, ...]

    def cells(self, **override) -> list[dict]:
        """The cells in row order. ``override`` replaces an axis's values
        (a sequence) or a fixed field's value."""
        unknown = set(override) - set(self.fixed) - set(self.axes)
        if unknown:
            raise ValueError(f"{self.title} has no field {sorted(unknown)}")
        fixed = {k: override.get(k, v) for k, v in self.fixed.items()}
        axes = {k: tuple(override.get(k, v)) for k, v in self.axes.items()}
        cells = [dict(fixed, **dict(zip(axes, vs))) for vs in itertools.product(*axes.values())]
        for c in cells:
            if "dataset" in c:
                c["dcs"], c["ccs"] = TABLE2_DATASETS[c["dataset"]]
        return cells


#: The paper's method order (its table columns).
METHODS = ("baseline", "baseline_marginals", "hybrid")

#: Table 2 datasets of Figure 10: id → (DC set, CC set).
TABLE2_DATASETS = {11: ("good", "good"), 12: ("good", "bad"), 4: ("all", "good"), 9: ("all", "bad")}

TABLES = {
    "fig8a": Table(
        "Figure 8a: error vs data scale, S_DC_all + S_CC_good",
        fixed=dict(dcs="all", ccs="good", n_cc=N_CC, n_r2_cols=2),
        axes=dict(method=METHODS, scale=(1, 2, 5, 10)),
        labels=("scale",),
    ),
    "fig8b": Table(
        "Figure 8b: error vs data scale, S_DC_all + S_CC_bad",
        fixed=dict(dcs="all", ccs="bad", n_cc=N_CC, n_r2_cols=2),
        axes=dict(method=METHODS, scale=(1, 2, 5, 10)),
        labels=("scale",),
    ),
    "fig10": Table(
        "Figure 10: good/bad DC x CC sets at 10x",
        fixed=dict(scale=10, n_cc=N_CC, n_r2_cols=2),
        axes=dict(method=METHODS, dataset=tuple(TABLE2_DATASETS)),
        labels=("dataset", "dcs", "ccs"),
    ),
    "fig11b": Table(
        "Figure 11b: hybrid runtime vs data scale, S_DC_good",
        fixed=dict(method="hybrid", dcs="good", n_cc=N_CC, n_r2_cols=2),
        axes=dict(ccs=("good", "bad"), scale=(10, 20, 40)),
        labels=("scale", "ccs"),
    ),
    "fig12": Table(
        "Figure 12: hybrid runtime vs R2 columns at 10x",
        fixed=dict(method="hybrid", dcs="good", ccs="good", scale=10, n_cc=N_CC),
        axes=dict(n_r2_cols=(2, 4, 6, 8, 10)),
        labels=("n_r2_cols",),
    ),
    "fig13": Table(
        "Figure 13: hybrid runtime breakdown vs CC-set size at 10x, S_DC_all",
        fixed=dict(method="hybrid", dcs="all", scale=10, n_r2_cols=2),
        axes=dict(ccs=("good", "bad"), n_cc=(60, 100, 140)),
        labels=("n_cc", "ccs"),
    ),
}


def run_table(
    spark: SparkSession, name: str, *, shrink: float = SHRINK, **override
) -> pd.DataFrame:
    """Run the cells of ``TABLES[name]`` (narrowed or extended by
    ``override``, see ``Table.cells``): one row per cell."""
    table = TABLES[name]
    rows = []
    for cell in table.cells(**override):
        db = census_db(cell["scale"], cell["n_r2_cols"], shrink)
        ccs = make_ccs(db, cell["ccs"], cell["n_cc"])
        row = run_cell(spark, db, ccs, make_dcs(cell["dcs"]), cell["method"])
        rows.append({**row, **{k: cell[k] for k in table.labels}})
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame, title: str) -> str:
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        return f"== {title} ==\n{df.round(4).to_string(index=False)}\n"
