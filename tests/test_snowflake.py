"""Tests for the snowflake-schema extension (Example 5.6 shape)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import metrics
from repro.core.constraints import CC, Cond, pairwise_dc
from repro.core.snowflake import FkLink, snowflake_extension


@pytest.fixture(scope="module")
def star(spark):
    """Students → Majors and Students → Courses (both FKs missing)."""
    g = np.random.default_rng(0)
    students = pd.DataFrame(
        {
            "p_id": range(1, 41),
            "Year": g.integers(1, 5, 40),
            "Honors": g.integers(0, 2, 40),
        }
    )
    majors = pd.DataFrame(
        {"m_id": [1, 2, 3], "Dept": ["CS", "CS", "Math"]}
    )
    courses = pd.DataFrame(
        {"c_id": [10, 11, 12, 13], "Level": ["U", "U", "G", "G"]}
    )
    return students, majors, courses


def test_star_two_links(spark, star):
    students, majors, courses = star
    n_cs = 25
    ccs1 = [CC(0, Cond.of(Year=(1, 4)), Cond.of(Dept="CS"), n_cs)]
    # no two honors students in year 4 share a major (toy DC)
    dcs1 = [
        pairwise_dc(
            "honors",
            Cond.of(Honors=1, Year=(4, 4)),
            Cond.of(Honors=1, Year=(4, 4)),
        )
    ]
    ccs2 = [CC(0, Cond.of(Honors=1), Cond.of(Level="G"), 10)]
    res = snowflake_extension(
        spark,
        spark.createDataFrame(students),
        [
            FkLink("majors", spark.createDataFrame(majors), "m_id", "m_id", ccs1, dcs1),
            FkLink("courses", spark.createDataFrame(courses), "c_id", "c_id", ccs2, []),
        ],
    )
    view = res.view
    assert view.count() == 40
    assert "Dept" in view.columns and "Level" in view.columns
    # both FKs imputed everywhere
    assert view.filter(F.col("m_id").isNull() | F.col("c_id").isNull()).count() == 0
    # step-1 CC holds (targets are feasible: 25 ≤ 40 students, CS majors exist)
    got_cs = view.filter((F.col("Year") <= 4) & (F.col("Dept") == "CS")).count()
    assert got_cs == n_cs
    # step-2 CC: 10 honors students in graduate courses
    got_g = view.filter((F.col("Honors") == 1) & (F.col("Level") == "G")).count()
    assert got_g == 10


def test_star_step1_dc_satisfied(spark, star):
    students, majors, _ = star
    dcs1 = [pairwise_dc("h", Cond.of(Honors=1), Cond.of(Honors=1))]
    res = snowflake_extension(
        spark,
        spark.createDataFrame(students),
        [FkLink("majors", spark.createDataFrame(majors), "m_id", "m_id", [], dcs1)],
    )
    step = res.steps[0]
    assert metrics.dc_error(step.r1_hat, dcs1, fk="m_id") == 0.0


def test_snowflake_widen_prefixes_collisions(spark, star):
    students, majors, courses = star
    majors2 = majors.rename(columns={"Dept": "Year"})  # force a collision
    res = snowflake_extension(
        spark,
        spark.createDataFrame(students),
        [FkLink("majors", spark.createDataFrame(majors2), "m_id", "m_id", [], [])],
    )
    assert "majors_Year" in res.view.columns
