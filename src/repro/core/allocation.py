"""Materialise a phase-I allocation into the completed V_Join (driver).

The driver-side phase-I algorithms produce ``(bin_id, combo_id, count)``
rows. Because tuples within a bin are interchangeable for every CC, the
assignment to concrete tuples is one NumPy pass over R1's collected rows:

1. tag every R1 tuple with its ``bin_id`` (merge with the binning mapping);
2. rank tuples within each bin in ``p_id`` order (a lexsort — deterministic,
   whatever order the rows arrived in);
3. turn the allocation rows into per-bin ``[start, end)`` index ranges and
   find each tuple's range with one ``searchsorted`` of its ``(bin, rank)``
   key over the ranges' ``(bin, start)`` keys, yielding its ``combo_id``;
4. order the columns ``p_id``, R1's other columns in R1's order, ``bin_id``
   and ``combo_id`` (:func:`vjoin_schema`); phase II keeps this order in
   ``R̂1``.

A tuple outside every range keeps a null ``combo_id``. Both phase-I
strategies allocate every tuple of every bin (Algorithm 1's draws are capped
at a bin's availability and the leftovers are filled), and ``c_extension``
rejects nulls in the bin columns, so no tuple of a solve falls outside the
ranges; the two null-combo fills below, over the V_Join DataFrame, are kept
for the benchmark's tracer, which wraps them by name.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from .binning import Binning, Combos
from .hybrid import INVALID_COMBO


def alloc_ranges(alloc: pd.DataFrame) -> pd.DataFrame:
    """Per-bin cumulative [start, end) ranges, deterministic order."""
    pdf = alloc.sort_values(["bin_id", "combo_id"]).reset_index(drop=True).copy()
    pdf["end"] = pdf.groupby("bin_id")["count"].cumsum()
    pdf["start"] = pdf["end"] - pdf["count"]
    return pdf[["bin_id", "combo_id", "start", "end"]]


def vjoin_schema(r1_schema: StructType) -> StructType:
    """V_Join's columns: R1's fields with ``p_id`` first, then ``bin_id`` and
    a nullable ``combo_id``."""
    fields = [r1_schema["p_id"], *(f for f in r1_schema if f.name != "p_id")]
    ids = [StructField("bin_id", LongType()), StructField("combo_id", LongType())]
    return StructType([*fields, *ids])


def materialize_vjoin(r1: pd.DataFrame, binning: Binning, alloc: pd.DataFrame) -> pd.DataFrame:
    """R1's rows ⟶ V_Join's: every tuple tagged with bin_id and combo_id.

    ``combo_id`` (nullable ``Int64``) is null for tuples with no allocation
    and INVALID_COMBO for tuples phase I explicitly marked invalid. Rows keep
    R1's order.
    """
    if binning.attrs:
        tagged = r1.merge(binning.mapping, on=binning.attrs, how="left")
    else:  # no binnable attributes: a single bin holds everything
        tagged = r1.assign(bin_id=np.int64(0))
    bins = tagged["bin_id"].to_numpy(np.int64)
    order = np.lexsort((tagged["p_id"].to_numpy(), bins))
    rank = np.empty(len(bins), dtype=np.int64)
    rank[order] = np.arange(len(bins)) - np.searchsorted(bins[order], bins[order])

    ranges = alloc_ranges(alloc)
    ranges = ranges[ranges["end"] > ranges["start"]]  # an empty range holds no rank
    r_bin, r_start, r_end = (ranges[c].to_numpy(np.int64) for c in ("bin_id", "start", "end"))
    width = max(len(bins), int(r_end.max(initial=0))) + 1  # (bin, rank) keys never collide
    hit = np.searchsorted(r_bin * width + r_start, bins * width + rank, side="right") - 1
    found = hit >= 0
    found[found] = (r_bin[hit[found]] == bins[found]) & (rank[found] < r_end[hit[found]])
    combo = np.zeros(len(bins), dtype=np.int64)
    combo[found] = ranges["combo_id"].to_numpy(np.int64)[hit[found]]

    r1_cols = [c for c in r1.columns if c != "p_id"]
    return tagged[["p_id", *r1_cols]].assign(
        bin_id=bins, combo_id=pd.arrays.IntegerArray(combo, ~found)
    )


def fill_null_combos_random(
    vjoin: DataFrame, combos: Combos, *, seed: int = 0
) -> DataFrame:
    """Baseline leftover handling at the tuple level: uniform random combo.

    The draw hashes the tuple's ``p_id`` with ``seed``, so it does not depend
    on how Spark partitions or orders the rows.
    """
    n = len(combos)
    return vjoin.withColumn(
        "combo_id",
        F.when(
            F.col("combo_id").isNull(),
            F.pmod(F.xxhash64(F.col("p_id"), F.lit(seed)), F.lit(n)),
        ).otherwise(F.col("combo_id")),
    )


def mark_null_combos_invalid(vjoin: DataFrame) -> DataFrame:
    return vjoin.withColumn(
        "combo_id",
        F.coalesce(F.col("combo_id"), F.lit(INVALID_COMBO).cast("long")),
    )
