"""Figure 13 (table): hybrid runtime breakdown (pairwise comparison, Hasse
recursion, ILP solver, coloring) at 10× with S_DC_all, sweeping the CC-set
size, good vs bad. Paper shape: good → no ILP time, coloring dominates;
bad → ILP dominates (86%).
"""
import pytest

from benchmarks._util import get_db, record
from repro.experiments import make_ccs, make_dcs, run_cell

N_CCS = [60, 100, 140]


@pytest.mark.parametrize("n_cc", N_CCS)
@pytest.mark.parametrize("flavor", ["good", "bad"])
def test_fig13_cell(benchmark, spark, n_cc, flavor):
    db = get_db(10)
    ccs = make_ccs(db, flavor, n_cc=n_cc)
    dcs = make_dcs("all")
    out = benchmark.pedantic(
        lambda: run_cell(spark, db, ccs, dcs, "hybrid"), rounds=1, iterations=1
    )
    out.update({"n_cc": n_cc, "ccs": flavor})
    record("fig13", out, benchmark)
    if flavor == "good":
        assert out["ilp_s"] == 0.0  # no intersecting CCs → ILP never runs
