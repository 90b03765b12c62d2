"""Phase II's per-partition work without Spark: conflict-graph enumeration
(Def 5.1) plus Algorithm 3's list coloring with fresh colors, dense
(``repro.core``) against the tests' tuple-list oracle.

The frame is a whole Census instance (every person of an 8× database at the
experiments' shrink, sorted by ``p_id``: 4,061 tuples, 2.36 M edges)
colored with all of R2's keys — a little larger than the largest phase-II
partition of an 80× solve (3,376 tuples). Both paths must produce the same
coloring; edges, colors and fresh colors go to ``results/coloring.csv``.
Run with ``pytest benchmarks/bench_coloring.py --benchmark-only``.
"""
import pytest

from benchmarks._util import record
from repro import census, workloads
from repro.core.coloring import color_with_extension
from repro.core.conflict import enumerate_edges
from repro.experiments import SEED, SHRINK
from tests import coloring_oracle as oracle

SCALE = 8
ROUNDS = {"dense": 5, "oracle": 1}
_COLORINGS: dict[str, dict] = {}


def _dense(pdf, keys, fresh_start):
    graph = enumerate_edges(pdf, workloads.dcs_all())
    return len(graph), color_with_extension(graph, keys, fresh_start)


def _oracle(pdf, keys, fresh_start):
    edges = oracle.edge_list(pdf, workloads.dcs_all())
    return len(edges), oracle.color_with_extension(len(pdf), edges, keys, fresh_start)


@pytest.mark.parametrize("impl", ["dense", "oracle"])
def test_coloring_largest_frame(benchmark, impl):
    db = census.generate(scale=SCALE, shrink=SHRINK, seed=SEED)
    pdf = db.persons_missing_fk().sort_values("p_id").reset_index(drop=True)
    keys = sorted(db.housing["h_id"].tolist())
    run = _dense if impl == "dense" else _oracle
    n_edges, (c, fresh) = benchmark.pedantic(
        lambda: run(pdf, keys, keys[-1] + 1), rounds=ROUNDS[impl], iterations=1
    )
    _COLORINGS[impl] = c
    if len(_COLORINGS) == 2:
        assert _COLORINGS["dense"] == _COLORINGS["oracle"]
    record(
        "coloring",
        {
            "impl": impl,
            "scale": SCALE,
            "vertices": len(pdf),
            "edges": n_edges,
            "colors_used": len(set(c.values())),
            "fresh_colors": len(fresh),
            "median_s": round(benchmark.stats.stats.median, 3),
        },
        benchmark,
    )
