"""Figure 12 (shape): hybrid runtime at 10× as R2 grows from 2 to 10
non-key columns (S_DC_good, S_CC_good). Paper: 5.17 min → 38.66 min,
coloring growing faster than the Hasse recursion.
"""
import pytest

from benchmarks._util import get_db, record
from repro.experiments import make_ccs, make_dcs, run_cell

N_COLS = [2, 4, 6, 8, 10]


@pytest.mark.parametrize("n_cols", N_COLS)
def test_fig12_cell(benchmark, spark, n_cols):
    db = get_db(10, n_r2_cols=n_cols)
    ccs = make_ccs(db, "good")
    dcs = make_dcs("good")
    out = benchmark.pedantic(
        lambda: run_cell(spark, db, ccs, dcs, "hybrid"), rounds=1, iterations=1
    )
    out["n_r2_cols"] = n_cols
    record("fig12", out, benchmark)
    assert out["dc_error"] == 0.0
