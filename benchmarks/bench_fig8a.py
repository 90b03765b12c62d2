"""Figure 8a (table): baseline vs baseline+marginals vs hybrid error rates
as data grows, with S_DC_all (12 DCs) and S_CC_good.

Paper: hybrid and baseline+marginals reach CC error 0; baseline CC error
0.30–0.60; DC error 0 only for hybrid. One benchmark per table cell.
"""
import pytest

from benchmarks._util import get_db, record
from repro.experiments import make_ccs, make_dcs, run_cell

SCALES = [1, 2, 5, 10]
METHODS = ["baseline", "baseline_marginals", "hybrid"]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("method", METHODS)
def test_fig8a_cell(benchmark, spark, scale, method):
    db = get_db(scale)
    ccs = make_ccs(db, "good")
    dcs = make_dcs("all")
    out = benchmark.pedantic(
        lambda: run_cell(spark, db, ccs, dcs, method), rounds=1, iterations=1
    )
    out["scale"] = scale
    record("fig8a", out, benchmark)
    if method == "hybrid":  # the paper's guarantee must hold while timing
        assert out["dc_error"] == 0.0
        assert out["cc_median"] == 0.0
