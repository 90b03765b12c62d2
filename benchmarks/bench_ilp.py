"""Algorithm 1's ILP without Spark: the row-sparse simplex under
branch-and-bound (``repro.ilp.solve_ilp``) against the tests' dense oracle.

Two systems, both on bad CCs (the CC set and Census instance of Figure 8b's
cells), with the bin histogram and the combo table from pandas ``groupby``:

* ``baseline_marginals`` at 5× and 10×: the system ``alg1_allocate`` builds
  for the baseline with marginals (the full bins × combos cross product,
  one marginal row per bin and one row per CC);
* ``hybrid_s2`` at 10×: the restricted system ``hybrid_phase1`` builds for
  S2, the CCs of the diagrams that ``split_s1_s2`` discards, over the
  availability that ``alg2_allocate`` leaves after drawing for S1.

Both solvers must return the same ``x``; vars, rows, nodes and the median
solve time go to ``results/ilp.csv``.
Run with ``pytest benchmarks/bench_ilp.py --benchmark-only``.
"""
import numpy as np
import pytest

from benchmarks._util import record
from repro.core import baseline, hybrid
from repro.core.binning import Coverage
from repro.core.hasse import alg2_allocate, build_structure, split_s1_s2
from repro.core.ilp_phase import alg1_system
from repro.experiments import SHRINK, census_db, make_ccs
from repro.ilp import solve_ilp
from tests import simplex_oracle as oracle
from tests.conftest import build_phase1_inputs

SYSTEMS = (("baseline_marginals", 5), ("baseline_marginals", 10), ("hybrid_s2", 10))
SOLVERS = {"sparse": solve_ilp, "oracle": oracle.solve_ilp}
ROUNDS = {"sparse": 5, "oracle": 1}
_X: dict[tuple, dict] = {}


def _system(kind: str, scale: int):
    """The ILP ``kind`` builds at ``scale``, and its node limit."""
    db = census_db(scale, 2, SHRINK)
    ccs = make_ccs(db, "bad")
    binning, combos = build_phase1_inputs(db, ccs)
    cov, avail = Coverage.build(ccs, binning, combos), binning.avail
    if kind == "baseline_marginals":
        return alg1_system(ccs, cov, avail, "all"), baseline.NODE_LIMIT
    structure = build_structure(ccs)
    s1_ids, s2_ids = split_s1_s2(structure)
    alg2_allocate(structure, s1_ids, cov, avail)
    by_id = {cc.cc_id: cc for cc in ccs}
    s2_ccs = [by_id[i] for i in s2_ids]
    return alg1_system(s2_ccs, cov, avail, "restricted"), hybrid.NODE_LIMIT


@pytest.mark.parametrize(
    "system,scale,impl",
    [(k, s, i) for k, s in SYSTEMS for i in SOLVERS],
    ids=lambda v: str(v),
)
def test_ilp_bad(benchmark, system, scale, impl):
    ilp, node_limit = _system(system, scale)
    res = benchmark.pedantic(
        lambda: SOLVERS[impl](ilp.A, ilp.b, ilp.c, node_limit=node_limit),
        rounds=ROUNDS[impl],
        iterations=1,
    )
    xs = _X.setdefault((system, scale), {})
    xs[impl] = res.x
    if len(xs) == len(SOLVERS):
        assert np.array_equal(xs["sparse"], xs["oracle"])
    record(
        "ilp",
        {
            "system": system,
            "impl": impl,
            "scale": scale,
            "vars": len(ilp.var_bins),
            "rows": len(ilp.b),
            "nodes": res.nodes,
            "median_s": round(benchmark.stats.stats.median, 3),
        },
        benchmark,
    )
