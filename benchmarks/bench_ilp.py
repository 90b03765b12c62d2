"""Algorithm 1's ILP without Spark: the row-sparse simplex under
branch-and-bound (``repro.ilp.solve_ilp``) against the tests' dense oracle.

The system is the one ``alg1_allocate`` builds for the baseline with
marginals on bad CCs (the full bins × combos cross product, one marginal row
per bin and one row per CC), at 5× and 10× — the ILPs behind Figure 8b's
baseline-with-marginals cells. The bin histogram and the combo table come
from pandas ``groupby`` on the same Census instance and CC set as those
cells. Both solvers must return the same ``x``; vars, rows, nodes and the
median solve time go to ``results/ilp.csv``.
Run with ``pytest benchmarks/bench_ilp.py --benchmark-only``.
"""
import numpy as np
import pytest

from benchmarks._util import record
from repro.core.baseline import NODE_LIMIT
from repro.core.binning import Coverage
from repro.core.ilp_phase import alg1_system
from repro.experiments import SHRINK, census_db, make_ccs
from repro.ilp import solve_ilp
from tests import simplex_oracle as oracle
from tests.conftest import build_phase1_inputs

SCALES = (5, 10)
SOLVERS = {"sparse": solve_ilp, "oracle": oracle.solve_ilp}
ROUNDS = {"sparse": 5, "oracle": 1}
_X: dict[int, dict] = {}


@pytest.mark.parametrize(
    "scale,impl", [(s, i) for s in SCALES for i in SOLVERS], ids=lambda v: str(v)
)
def test_ilp_baseline_marginals_bad(benchmark, scale, impl):
    db = census_db(scale, 2, SHRINK)
    ccs = make_ccs(db, "bad")
    binning, combos = build_phase1_inputs(db, ccs)
    ilp = alg1_system(ccs, Coverage.build(ccs, binning, combos), binning.avail, "all")
    res = benchmark.pedantic(
        lambda: SOLVERS[impl](ilp.A, ilp.b, ilp.c, node_limit=NODE_LIMIT),
        rounds=ROUNDS[impl],
        iterations=1,
    )
    _X.setdefault(scale, {})[impl] = res.x
    if len(_X[scale]) == len(SOLVERS):
        assert np.array_equal(_X[scale]["sparse"], _X[scale]["oracle"])
    record(
        "ilp",
        {
            "impl": impl,
            "scale": scale,
            "vars": len(ilp.var_bins),
            "rows": len(ilp.b),
            "nodes": res.nodes,
            "median_s": round(benchmark.stats.stats.median, 3),
        },
        benchmark,
    )
