"""End-to-end C-Extension solver (Figure 4): phase I + phase II.

``c_extension`` wires the pieces. Spark reads each input once: R1's and
R2's rows are collected (``toPandas``), and everything up to the output
DataFrames runs on the driver. pandas counts the bin histogram and the
active-combo table (R2's largest key and its smallest-key row, the
template of fresh households, come from R2's rows too), a phase-I
strategy (hybrid or a baseline) produces the (bin, combo, count)
allocation, NumPy tags V_Join's rows with it, R2's rows are matched to
their combos by a pandas merge, and phase II completes the FKs, invalid
tuples included: it builds ``R̂1`` from V_Join's rows (R1's key, R1's
other columns in R1's order, the FK), and the fresh households of ``R̂2``
from the fresh keys it handed out. Phase II takes the allocation table
itself: both phase-I strategies allocate every tuple of every bin, so its
per-combo and per-bin sums are V_Join's row counts, and they fix the
fresh-key ranges without counting rows. V_Join and R2's ``(key,
combo_id)`` pairs reach phase II as DataFrames over the driver-built rows,
which phase II collects again. The result is ``R̂1`` plus the (possibly
augmented) ``R̂2``; a solve caches nothing, runs no Python UDF and reads
or writes no session setting.

Per-stage wall times are recorded for the Figure-11/13 runtime tables:
``read`` (the two collects, both histograms and the bin and combo
tables), ``phase1_total``, ``fill`` (V_Join and R2's pairs) and
``coloring`` (phase II) split ``total``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from .allocation import (
    fill_null_combos_random,
    mark_null_combos_invalid,
    materialize_vjoin,
    vjoin_schema,
)
from .baseline import baseline_phase1
from .binning import Binning, Combos, active_r2_columns, bin_columns, value_counts
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

    t0 = time.perf_counter()
    r1 = r1_df.toPandas()
    r2 = r2_df.toPandas()
    distinct_counts = value_counts(r1, attrs)
    null_cols = [c for c in attrs if distinct_counts[c].isna().any()]
    if null_cols:
        raise ValueError(f"R1 attribute columns {null_cols} hold nulls")
    binning = Binning.build(distinct_counts, ccs, attrs)

    active = active_r2_columns(ccs)
    active_counts = value_counts(r2, active)
    if active and active_counts.empty:
        raise ValueError(f"R2 is empty but CCs have conditions on {active}")
    keys = r2[r2_key]
    max_key = int(keys.max()) if len(keys) else 0
    r2_first = r2.loc[keys.idxmin()].to_dict() if len(keys) else None
    combos = Combos.build(active_counts, active)
    t_read = time.perf_counter() - t0

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
    vjoin = spark.createDataFrame(
        materialize_vjoin(r1, binning, p1.alloc), vjoin_schema(r1_df.schema)
    )
    if method == "hybrid":
        vjoin = mark_null_combos_invalid(vjoin)
    else:
        vjoin = fill_null_combos_random(vjoin, combos, seed=seed)

    if active:
        # pandas matches null keys to null keys, as eqNullSafe does: a
        # household with a null active value belongs to the null combo that
        # Combos.build counted for it
        pairs = r2.merge(combos.table[[*active, "combo_id"]], on=active)
    else:
        pairs = r2.assign(combo_id=np.int64(0))
    pairs_schema = StructType([r2_df.schema[r2_key], StructField("combo_id", LongType())])
    r2_with_combo = spark.createDataFrame(pairs[[r2_key, "combo_id"]], pairs_schema)
    t_fill = time.perf_counter() - t0

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
            "read": t_read,
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
