"""Figure 8b (table): same as 8a but with S_CC_bad (intersecting CCs).

Paper: hybrid keeps median CC error 0 (mean 0.048–0.093) and DC error 0;
baseline 0.23–0.58 CC / 0.23–0.37 DC; marginals 0 CC / 0.40–0.51 DC.
"""
import pytest

from benchmarks._util import get_db, record
from repro.experiments import make_ccs, make_dcs, run_cell

SCALES = [1, 2, 5, 10]
METHODS = ["baseline", "baseline_marginals", "hybrid"]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("method", METHODS)
def test_fig8b_cell(benchmark, spark, scale, method):
    db = get_db(scale)
    ccs = make_ccs(db, "bad")
    dcs = make_dcs("all")
    out = benchmark.pedantic(
        lambda: run_cell(spark, db, ccs, dcs, method), rounds=1, iterations=1
    )
    out["scale"] = scale
    record("fig8b", out, benchmark)
    if method == "hybrid":
        assert out["dc_error"] == 0.0
        assert out["cc_median"] == 0.0
