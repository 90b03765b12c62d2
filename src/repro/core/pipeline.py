"""End-to-end C-Extension solver (Figure 4): phase I + phase II.

``c_extension`` wires the pieces: Spark computes the bin histogram and the
active-combo table (which also yields R2's largest key and its
smallest-key row, the template of fresh households), a driver-side
phase-I strategy (hybrid or a baseline) produces the (bin, combo, count)
allocation, Spark tags V_Join with it, R2's rows are matched to their
combos through the broadcast combo map, and phase II completes the FKs,
invalid tuples included, on the driver: it collects V_Join and R2's
``(key, combo_id)`` pairs once and builds ``R̂1`` from V_Join's rows (R1's
key, R1's other columns in R1's order, the FK), and the fresh households
of ``R̂2`` from the fresh keys it handed out. Phase II takes the
allocation table itself: both phase-I strategies allocate every tuple of
every bin, so its per-combo and per-bin sums are V_Join's row counts, and
they fix the fresh-key ranges without a Spark job to count them. The
result is ``R̂1`` plus the (possibly augmented) ``R̂2``; a solve caches
nothing and runs no Python UDF. The lookup tables built on the driver are
broadcast by per-query hints; the solver reads and writes no session
setting.

Per-stage wall times are recorded for the Figure-11/13 runtime tables.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .allocation import (
    fill_null_combos_random,
    mark_null_combos_invalid,
    materialize_vjoin,
)
from .baseline import baseline_phase1
from .binning import Binning, Combos, active_r2_columns, bin_columns
from .constraints import CC, DC
from .hybrid import Phase1Result, hybrid_phase1
from .phase2 import complete_fk

METHODS = ("hybrid", "baseline", "baseline_marginals")


@dataclass
class CExtensionResult:
    r1_hat: DataFrame
    r2_hat: DataFrame
    vjoin: DataFrame
    phase1: Phase1Result
    binning: Binning
    combos: Combos
    timings: dict = field(default_factory=dict)


def c_extension(
    spark: SparkSession,
    r1_df: DataFrame,
    r2_df: DataFrame,
    ccs: list[CC],
    dcs: list[DC],
    *,
    method: str = "hybrid",
    seed: int = 0,
    r1_key: str = "p_id",
    r2_key: str = "h_id",
    fk: str = "h_id",
) -> CExtensionResult:
    """Solve C-Extension for ``r1_df`` (missing FK) and ``r2_df``.

    Tuples are binned on the R1 columns some CC's R1 condition reads
    (:func:`~.binning.bin_columns`); every other column, such as an FK the
    snowflake driver imputed in an earlier step, is carried through V_Join
    untouched.

    Raises ``ValueError`` when a bin column holds a null (its tuples would
    fall in no bin) or when R2 is empty while some CC has an R2 condition
    (no B-combo exists to assign).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    t_total = time.perf_counter()

    attrs = bin_columns(ccs, [c for c in r1_df.columns if c != r1_key])
    if r1_key != "p_id":
        r1_df = r1_df.withColumnRenamed(r1_key, "p_id")

    distinct_counts = r1_df.groupBy(*attrs).count().toPandas()
    null_cols = [c for c in attrs if distinct_counts[c].isna().any()]
    if null_cols:
        raise ValueError(f"R1 attribute columns {null_cols} hold nulls")
    binning = Binning.build(distinct_counts, ccs, attrs)

    active = active_r2_columns(ccs)
    # a struct orders by its first field: its minimum is the smallest-key row
    row = F.struct(r2_key, *[c for c in r2_df.columns if c != r2_key])
    aggs = [
        F.count("*").alias("count"),
        F.max(r2_key).alias("__max_key"),
        F.min(row).alias("__first"),
    ]
    active_counts = r2_df.groupBy(*active).agg(*aggs).toPandas()
    if active and active_counts.empty:
        raise ValueError(f"R2 is empty but CCs have conditions on {active}")
    max_key = active_counts.pop("__max_key").max()
    max_key = 0 if pd.isna(max_key) else int(max_key)
    firsts = active_counts.pop("__first").dropna()
    r2_first = min(firsts, key=lambda r: r[r2_key], default=None)
    combos = Combos.build(active_counts, active)

    t0 = time.perf_counter()
    if method == "hybrid":
        p1 = hybrid_phase1(ccs, binning, combos, seed=seed)
    else:
        p1 = baseline_phase1(
            ccs,
            binning,
            combos,
            with_marginals=(method == "baseline_marginals"),
            seed=seed,
        )
    t_phase1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    vjoin = materialize_vjoin(spark, r1_df, binning, p1.alloc)
    if method == "hybrid":
        vjoin = mark_null_combos_invalid(vjoin)
    else:
        vjoin = fill_null_combos_random(vjoin, combos, seed=seed)
    t_fill = time.perf_counter() - t0

    if active:
        # null-safe: a household with a null active value belongs to the
        # null combo that Combos.build counted for it
        combo_map = F.broadcast(
            spark.createDataFrame(combos.table[[*active, "combo_id"]])
        )
        same = [r2_df[c].eqNullSafe(combo_map[c]) for c in active]
        r2_with_combo = r2_df.join(combo_map, same, "inner").select(
            r2_df["*"], combo_map["combo_id"]
        )
    else:
        r2_with_combo = r2_df.withColumn("combo_id", F.lit(0).cast("long"))

    t0 = time.perf_counter()
    r1_hat, r2_hat = complete_fk(
        spark,
        vjoin,
        r2_with_combo,
        r2_df,
        combos,
        binning,
        dcs,
        ccs,
        alloc=p1.alloc,
        max_key=max_key,
        r2_first=r2_first,
        strategy="coloring" if method == "hybrid" else "random",
        r1_key=r1_key,
        r2_key=r2_key,
        fk=fk,
        seed=seed,
    )
    t_coloring = time.perf_counter() - t0

    timings = dict(p1.timings)
    timings.update(
        {
            "phase1_total": t_phase1,
            "fill": t_fill,
            "coloring": t_coloring,
            "total": time.perf_counter() - t_total,
        }
    )
    return CExtensionResult(
        r1_hat=r1_hat,
        r2_hat=r2_hat,
        vjoin=vjoin,
        phase1=p1,
        binning=binning,
        combos=combos,
        timings=timings,
    )
