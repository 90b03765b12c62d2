"""Slow, obviously correct twin of the V_Join fill, in Spark (§4.1 lines
15–17 as written): tag R1 with its bins through a broadcast join with the
bin map, number each bin's tuples with a window ``row_number`` in ``p_id``
order, and range-join the numbers onto the allocation's per-bin
``[start, end)`` ranges. Tests compare :func:`repro.core.allocation.
materialize_vjoin`, the driver's NumPy fill, against it.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.allocation import alloc_ranges
from repro.core.binning import Binning

_RANGES_SCHEMA = "bin_id long, combo_id long, start long, end long"


def spark_fill(
    spark: SparkSession, r1_df: DataFrame, binning: Binning, alloc: pd.DataFrame
) -> DataFrame:
    """V_Join's columns (``p_id``, R1's other columns, ``bin_id``,
    ``combo_id``) over ``r1_df``; ``combo_id`` is null outside every range."""
    if binning.attrs:
        fields = [*(r1_df.schema[c] for c in binning.attrs), StructField("bin_id", LongType())]
        map_df = F.broadcast(spark.createDataFrame(binning.mapping, StructType(fields)))
        tagged = r1_df.join(map_df, on=binning.attrs, how="left")
    else:
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
