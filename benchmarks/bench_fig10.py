"""Figure 10 (table): CC/DC error for good/bad combinations of DCs and CCs
at data scale 10× (the paper's datasets 11, 12, 4, 9).
"""
import pytest

from benchmarks._util import get_db, record
from repro.experiments import FIG10_DATASETS, make_ccs, make_dcs, run_cell

METHODS = ["baseline", "baseline_marginals", "hybrid"]


@pytest.mark.parametrize("dataset,dc_flavor,cc_flavor", FIG10_DATASETS)
@pytest.mark.parametrize("method", METHODS)
def test_fig10_cell(benchmark, spark, dataset, dc_flavor, cc_flavor, method):
    db = get_db(10)
    ccs = make_ccs(db, cc_flavor)
    dcs = make_dcs(dc_flavor)
    out = benchmark.pedantic(
        lambda: run_cell(spark, db, ccs, dcs, method), rounds=1, iterations=1
    )
    out.update({"dataset": dataset, "dcs": dc_flavor, "ccs": cc_flavor})
    record("fig10", out, benchmark)
    if method == "hybrid":
        assert out["dc_error"] == 0.0
        assert out["cc_median"] == 0.0
