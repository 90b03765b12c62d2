"""Snowflake-schema extension (§5.2, Example 5.6).

The paper generalises C-Extension to snowflake schemas by walking the FK
links breadth-first from the fact table: at every step the accumulated join
view plays R1 and the next linked table plays R2, so CCs may span all tables
joined so far and artificial R2 tuples are only ever added before a table
takes the R1 role.

This module implements that driver for *star/chain* schemas where each step
imputes one missing FK column of the current R1 view's base table (the case
the paper's example walks through step by step). Deeper links whose FK lives
in an interior dimension reuse the same machinery with the dimension as R1
and CCs over dimension attributes — a restriction documented in DESIGN.md.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from .constraints import CC, DC
from .pipeline import CExtensionResult, c_extension


@dataclass
class FkLink:
    """One BFS step: impute ``fk`` in the current R1 from table ``r2``."""

    name: str
    r2: DataFrame
    r2_key: str
    fk: str
    ccs: list[CC]
    dcs: list[DC]


@dataclass
class SnowflakeResult:
    view: DataFrame                      # fully joined, all FKs imputed
    steps: list[CExtensionResult]


def snowflake_extension(
    spark: SparkSession,
    fact: DataFrame,
    links: list[FkLink],
    *,
    r1_key: str = "p_id",
    seed: int = 0,
) -> SnowflakeResult:
    """Impute every FK link in BFS order, widening R1 as we go."""
    r1 = fact
    steps: list[CExtensionResult] = []
    for i, link in enumerate(links):
        res = c_extension(
            spark,
            r1,
            link.r2,
            link.ccs,
            link.dcs,
            r1_key=r1_key,
            r2_key=link.r2_key,
            fk=link.fk,
            seed=seed + i,
        )
        steps.append(res)
        # widen R1 with the completed dimension (prefix to avoid collisions)
        dim = res.r2_hat
        for col in dim.columns:
            if col != link.r2_key and col in res.r1_hat.columns:
                dim = dim.withColumnRenamed(col, f"{link.name}_{col}")
        joined = res.r1_hat.withColumnRenamed(link.fk, link.r2_key).join(
            dim, on=link.r2_key, how="left"
        )
        r1 = joined.withColumnRenamed(link.r2_key, link.fk)
    return SnowflakeResult(view=r1, steps=steps)
