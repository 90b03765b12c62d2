"""Tests for the experiment harness (the table grid and its runner)."""
from pathlib import Path

import pandas as pd
import pytest

from repro import experiments

RESULTS = Path(__file__).resolve().parents[1] / "results"

#: Cells per table of the paper's evaluation at our grid.
CELL_COUNTS = {"fig8a": 12, "fig8b": 12, "fig10": 12, "fig11b": 6, "fig12": 5, "fig13": 6}


def test_table1_counts_and_paper_columns():
    df = experiments.run_table1(scales=(1, 2), shrink=0.01)
    assert list(df["scale"]) == [1, 2]
    assert (df["vjoin"] == df["persons"]).all()
    assert df["paper_persons"].iloc[0] == 25_099


def test_paper_constants_shapes():
    assert len(experiments.PAPER_FIG8A) == 5
    assert len(experiments.PAPER_FIG8B) == 5
    assert list(experiments.PAPER_FIG10["dataset"]) == [11, 12, 4, 9]
    assert len(experiments.PAPER_TABLE1) == 8


def test_fig10_dataset_grid_matches_table2():
    cells = experiments.TABLES["fig10"].cells(method=("hybrid",))
    assert [(c["dataset"], c["dcs"], c["ccs"]) for c in cells] == [
        (11, "good", "good"),
        (12, "good", "bad"),
        (4, "all", "good"),
        (9, "all", "bad"),
    ]


def test_tables_have_the_papers_cell_counts():
    tables = experiments.TABLES
    assert {name: len(t.cells()) for name, t in tables.items()} == CELL_COUNTS


@pytest.mark.parametrize("name", sorted(CELL_COUNTS))
def test_table_labels_are_the_trailing_csv_columns(name):
    header = (RESULTS / f"{name}.csv").read_text().splitlines()[0].split(",")
    labels = experiments.TABLES[name].labels
    assert tuple(header[-len(labels):]) == labels
    assert not set(labels) & set(header[: -len(labels)])


def test_table_override_narrows_extends_and_rejects_unknown_fields():
    cells = experiments.TABLES["fig8a"].cells(scale=(1, 40), method=("hybrid",), n_cc=30)
    assert [(c["method"], c["scale"], c["n_cc"]) for c in cells] == [
        ("hybrid", 1, 30),
        ("hybrid", 40, 30),
    ]
    with pytest.raises(ValueError):
        experiments.TABLES["fig12"].cells(dataset=(11,))


def test_format_table_contains_values():
    out = experiments.format_table(pd.DataFrame({"a": [1.23456]}), "T")
    assert "== T ==" in out and "1.2346" in out


def test_run_fig8_smoke(spark):
    df = experiments.run_table(
        spark, "fig8a", scale=(1,), method=("hybrid",), n_cc=30, shrink=0.01
    )
    assert len(df) == 1
    assert df["dc_error"].iloc[0] == 0.0
    assert df["cc_median"].iloc[0] == 0.0


def test_run_fig13_smoke(spark):
    df = experiments.run_table(spark, "fig13", n_cc=(20,), scale=1, shrink=0.01)
    assert len(df) == 2
    good = df[df.ccs == "good"].iloc[0]
    assert good["ilp_s"] == 0.0
