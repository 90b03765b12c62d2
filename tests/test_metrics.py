"""Tests for the error measures, cross-checked against the DuckDB oracle."""
import duckdb
import pandas as pd
import pytest

from repro.core import metrics
from repro.core.constraints import Cond, pairwise_dc
from repro.oracle import dc_violators


def test_cc_report_counts_match_duckdb(spark, db, solved, ccs_good):
    """Every CC's achieved count equals a direct SQL count on R̂1 ⋈ R̂2."""
    rep = metrics.cc_report(solved.r1_hat, solved.r2_hat, ccs_good)
    r1 = solved.r1_hat.toPandas()
    r2 = solved.r2_hat.toPandas()
    con = duckdb.connect()
    con.register("r1", r1)
    con.register("r2", r2)
    for cc in ccs_good[:20]:  # spot-check a prefix for speed
        sql = (
            "SELECT count(*) FROM r1 JOIN r2 USING (h_id) WHERE "
            + cc.full.to_sql()
        )
        expected = con.execute(sql).fetchone()[0]
        got = int(rep.loc[rep.cc_id == cc.cc_id, "achieved"].iloc[0])
        assert got == expected, str(cc)
    con.close()


def test_relative_error_threshold_ten():
    rep = pd.DataFrame({"cc_id": [0], "target": [2], "achieved": [4],
                        "rel_err": [abs(4 - 2) / max(10, 2)]})
    assert rep["rel_err"].iloc[0] == pytest.approx(0.2)


def test_cc_error_formula_in_report(spark, db, solved, ccs_good):
    rep = metrics.cc_report(solved.r1_hat, solved.r2_hat, ccs_good)
    for _, r in rep.iterrows():
        assert r["rel_err"] == pytest.approx(
            abs(r["achieved"] - r["target"]) / max(10, r["target"])
        )


def test_cc_error_summary_fields(spark, solved, ccs_good):
    rep = metrics.cc_report(solved.r1_hat, solved.r2_hat, ccs_good)
    s = metrics.cc_error_summary(rep)
    assert set(s) == {"median", "mean", "max", "n_nonzero"}


def test_dc_violators_matches_duckdb_oracle():
    """NumPy violators == the DC's own SQL on DuckDB."""
    pdf = pd.DataFrame(
        {
            "p_id": [1, 2, 3, 4],
            "Rel": ["Owner", "Owner", "Owner", "Spouse"],
            "Age": [50, 50, 30, 20],
            "Multi_ling": [0, 0, 0, 0],
            "h_id": [1, 1, 2, 2],
        }
    )
    dc = pairwise_dc("dc_oo", Cond.of(Rel="Owner"), Cond.of(Rel="Owner"))
    got = pdf["p_id"][metrics.dc_violating(pdf, [dc], "h_id")].tolist()
    assert got == dc_violators(pdf, [dc]) == [1, 2]
    sql = dc.to_sql_violation("pdf", key="p_id", fk="h_id")
    assert duckdb.sql(sql).fetchone()[0] == len(got)


def test_dc_error_counts_fraction(spark):
    pdf = pd.DataFrame(
        {
            "p_id": [1, 2, 3, 4],
            "Rel": ["Owner", "Owner", "Owner", "Spouse"],
            "Age": [50, 50, 30, 20],
            "Multi_ling": [0, 0, 0, 0],
            "h_id": [1, 1, 2, 2],
        }
    )
    df = spark.createDataFrame(pdf)
    dcs = [pairwise_dc("dc_oo", Cond.of(Rel="Owner"), Cond.of(Rel="Owner"))]
    assert metrics.dc_error(df, dcs) == pytest.approx(0.5)  # tuples 1,2 of 4


def test_dc_error_outside_comp(spark):
    """Paper's example: two co-housed owners → DC error 2/9 (Figure 3 text)."""
    pdf = pd.DataFrame(
        {
            "p_id": range(1, 10),
            "Age": [75, 75, 25, 25, 24, 10, 10, 30, 30],
            "Rel": ["Owner"] * 4 + ["Spouse", "Child", "Child", "Owner", "Owner"],
            "Multi_ling": [0, 1, 0, 1, 0, 1, 1, 0, 1],
            "h_id": [2, 2, 3, 4, 2, 2, 2, 5, 6],  # owners 1,2 share home 2!
        }
    )
    df = spark.createDataFrame(pdf)
    dcs = [pairwise_dc("dc_oo", Cond.of(Rel="Owner"), Cond.of(Rel="Owner"))]
    assert metrics.dc_error(df, dcs) == pytest.approx(2 / 9)


def test_dc_error_null_fk_shares_no_household(spark):
    """Two owners with a null FK are not in one household (SQL ``=``)."""
    pdf = pd.DataFrame(
        {"p_id": [1, 2, 3], "Rel": ["Owner"] * 3, "h_id": [None, None, 1]}
    )
    df = spark.createDataFrame(pdf, "p_id long, Rel string, h_id long")
    dcs = [pairwise_dc("dc_oo", Cond.of(Rel="Owner"), Cond.of(Rel="Owner"))]
    assert metrics.dc_error(df, dcs) == 0.0


def test_dc_error_empty_inputs(spark):
    pdf = pd.DataFrame(
        {"p_id": [1], "Rel": ["Owner"], "Age": [10], "Multi_ling": [0], "h_id": [1]}
    )
    df = spark.createDataFrame(pdf)
    assert metrics.dc_error(df, []) == 0.0


def test_three_ary_dc_violators():
    from repro.core.constraints import Comp, DC

    pdf = pd.DataFrame(
        {
            "p_id": [1, 2, 3, 4],
            "Cls": ["C0", "C0", "C0", "C1"],
            "Var": ["a", "b", "c", "d"],
            "Alpha": [0, 1, 0, 1],
            "Chosen": [1, 1, 1, 0],
        }
    )
    dc = DC(
        "nae",
        (Cond.of(), Cond.of(), Cond.of()),
        (Comp(0, "Cls", "=", 1, "Cls"), Comp(1, "Cls", "=", 2, "Cls")),
    )
    v = pdf["p_id"][metrics.dc_violating(pdf, [dc], "Chosen")].tolist()
    assert v == dc_violators(pdf, [dc], fk="Chosen") == [1, 2, 3]
