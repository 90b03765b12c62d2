"""Materialise a phase-I allocation into the completed V_Join (Spark).

The driver-side phase-I algorithms produce ``(bin_id, combo_id, count)``
rows. Because tuples within a bin are interchangeable for every CC, the
assignment to concrete tuples is a single distributed pass:

1. tag every R1 tuple with its ``bin_id`` (join with the binning mapping);
2. number tuples within each bin (window ``row_number`` ordered by key —
   deterministic);
3. turn the allocation rows into per-bin ``[start, end)`` index ranges and
   range-join them, yielding each tuple's ``combo_id``;
4. select ``p_id``, R1's other columns in R1's order, ``bin_id`` and
   ``combo_id``; phase II keeps this order in ``R̂1``.

The mapping and the ranges are built on the driver and hold one row per
bin or per allocation row, so both joins are broadcast; only R1 is
shuffled (for the window). Both carry explicit schemas, so an empty R1
(no bins, no allocation rows) gives an empty V_Join. V_Join is not cached:
phase II collects it once, invalid tuples included, to build ``R̂1``.

Both phase-I strategies allocate every tuple of every bin (Algorithm 1's
draws are capped at a bin's availability and the leftovers are filled), and
``c_extension`` rejects nulls in the bin columns, so no tuple falls outside
the ranges; the two null-combo fills below are kept for the benchmark's
tracer, which wraps them by name.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from .binning import Binning, Combos
from .hybrid import INVALID_COMBO


_RANGES_SCHEMA = "bin_id long, combo_id long, start long, end long"


def alloc_ranges(alloc: pd.DataFrame) -> pd.DataFrame:
    """Per-bin cumulative [start, end) ranges, deterministic order."""
    pdf = alloc.sort_values(["bin_id", "combo_id"]).reset_index(drop=True).copy()
    pdf["end"] = pdf.groupby("bin_id")["count"].cumsum()
    pdf["start"] = pdf["end"] - pdf["count"]
    return pdf[["bin_id", "combo_id", "start", "end"]]


def materialize_vjoin(
    spark: SparkSession,
    r1_df: DataFrame,
    binning: Binning,
    alloc: pd.DataFrame,
) -> DataFrame:
    """R1 ⟶ V_Join skeleton: every tuple tagged with bin_id and combo_id.

    ``combo_id`` is null for tuples with no allocation and INVALID_COMBO for
    tuples phase I explicitly marked invalid.
    """
    if binning.attrs:
        fields = [*(r1_df.schema[c] for c in binning.attrs), StructField("bin_id", LongType())]
        map_df = F.broadcast(spark.createDataFrame(binning.mapping, StructType(fields)))
        tagged = r1_df.join(map_df, on=binning.attrs, how="left")
    else:  # no binnable attributes: a single bin holds everything
        tagged = r1_df.withColumn("bin_id", F.lit(0).cast("long"))
    w = Window.partitionBy("bin_id").orderBy("p_id")
    tagged = tagged.withColumn("__idx", F.row_number().over(w) - F.lit(1))
    ranges = F.broadcast(spark.createDataFrame(alloc_ranges(alloc), _RANGES_SCHEMA))
    vjoin = tagged.join(
        ranges,
        on=(
            (tagged["bin_id"] == ranges["bin_id"])
            & (tagged["__idx"] >= ranges["start"])
            & (tagged["__idx"] < ranges["end"])
        ),
        how="left",
    )
    r1_cols = [c for c in r1_df.columns if c != "p_id"]
    return vjoin.select("p_id", *r1_cols, tagged["bin_id"], "combo_id")


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
