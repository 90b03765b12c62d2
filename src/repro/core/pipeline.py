"""End-to-end C-Extension solver (Figure 4): phase I + phase II.

``c_extension`` wires the pieces: Spark computes the bin histogram and the
active-combo table (which also yields R2's largest key), a driver-side
phase-I strategy (hybrid or a baseline) produces the (bin, combo, count)
allocation, Spark tags V_Join with it (persisted; phase II's first action
fills the cache), R2's rows are matched to their combos through the
broadcast combo map, and phase II completes the FKs in one Spark pass that
builds ``R̂1`` from V_Join's rows (R1's key, R1's other columns in R1's
order, the FK), persists and materialises it; fresh households for ``R̂2``
are read back from the cached ``R̂1``. Phase II's per-combo sizes, which fix
its fresh-key ranges, are the allocation's per-combo sums: both phase-I
strategies allocate every tuple of every bin, so they equal V_Join's
per-combo row counts without a Spark job to count them. The result is
``R̂1`` plus the (possibly augmented) ``R̂2``. Only ``vjoin`` and
``r1_hat`` are cached, each at one partition per core
(``defaultParallelism``) so that later reads of them do not fan out to the
session's shuffle partitions; unpersisting those two releases everything a
solve cached. The lookup tables built on the driver are broadcast by
per-query hints; the solver reads and writes no session setting.

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
    method: str = "hybrid"


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
    aggs = [F.count("*").alias("count"), F.max(r2_key).alias("__max_key")]
    active_counts = r2_df.groupBy(*active).agg(*aggs).toPandas()
    if active and active_counts.empty:
        raise ValueError(f"R2 is empty but CCs have conditions on {active}")
    max_key = active_counts.pop("__max_key").max()
    max_key = 0 if pd.isna(max_key) else int(max_key)
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
    vjoin = vjoin.coalesce(spark.sparkContext.defaultParallelism).persist()
    per_combo = p1.alloc.groupby("combo_id")["count"].sum()
    sizes = {int(c): int(n) for c, n in per_combo.items()}
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
        sizes=sizes,
        max_key=max_key,
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
        method=method,
    )
