"""Figure 11b (shape): hybrid total runtime as data scales, S_DC_good,
S_CC_good vs S_CC_bad. The paper's claim: the approach scales ~linearly and
the bad set costs more (ILP); phase II (shaded) grows with data.
"""
import pytest

from benchmarks._util import get_db, record
from repro.experiments import make_ccs, make_dcs, run_cell

SCALES = [10, 20, 40]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("flavor", ["good", "bad"])
def test_fig11b_cell(benchmark, spark, scale, flavor):
    db = get_db(scale)
    ccs = make_ccs(db, flavor)
    dcs = make_dcs("good")
    out = benchmark.pedantic(
        lambda: run_cell(spark, db, ccs, dcs, "hybrid"), rounds=1, iterations=1
    )
    out.update({"scale": scale, "ccs": flavor})
    record("fig11b", out, benchmark)
    assert out["dc_error"] == 0.0
