"""Tests for Algorithm 3 (largest-first list coloring), incl. Example 5.3."""
import pytest

from repro.core.coloring import color_with_extension, coloring_lf
from repro.core.conflict import ConflictGraph

_g = ConflictGraph.from_edges


def _proper(edges, c):
    """Hyperedge-proper: every edge has ≥ 2 distinct colors."""
    for e in edges:
        cols = {c[v] for v in e}
        if len(e) >= 2 and len(cols) == 1:
            return False
    return True


def test_empty_graph_all_get_smallest_color():
    c, s = coloring_lf(_g(3, []), {}, [7, 3, 9])
    assert s == []
    assert all(c[v] == 3 for v in range(3))


def test_single_edge_two_colors():
    c, s = coloring_lf(_g(2, [(0, 1)]), {}, [1, 2])
    assert s == []
    assert c[0] != c[1]


def test_triangle_needs_three():
    edges = [(0, 1), (0, 2), (1, 2)]
    c, s = coloring_lf(_g(3, edges), {}, [1, 2, 3])
    assert s == []
    assert _proper(edges, c)
    assert len({c[v] for v in range(3)}) == 3


def test_clique_skips_when_colors_run_out():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    c, s = coloring_lf(_g(4, edges), {}, [1, 2])
    assert len(s) == 2


def test_largest_first_order():
    """The hub of a star is colored first (highest degree) → gets min color."""
    edges = [(0, i) for i in range(1, 5)]
    c, s = coloring_lf(_g(5, edges), {}, [1, 2])
    assert c[0] == 1
    assert all(c[i] == 2 for i in range(1, 5))


def test_partial_coloring_respected():
    edges = [(0, 1)]
    c, s = coloring_lf(_g(2, edges), {0: 5}, [5, 6])
    assert c[0] == 5 and c[1] == 6


def test_hyperedge_forbids_only_when_all_others_same():
    # edge {0,1,2}: 0 and 1 share color 1 → 2 must avoid 1
    c, s = coloring_lf(_g(3, [(0, 1, 2)]), {0: 1, 1: 1}, [1, 2])
    assert c[2] == 2
    # but if 0 and 1 differ, 2 may reuse either
    c2, _ = coloring_lf(_g(3, [(0, 1, 2)]), {0: 1, 1: 2}, [1, 2])
    assert c2[2] == 1  # smallest available


def test_example_53_running_example_coloring():
    """Figure 7's conflict graph (solid+dashed): 9 vertices; greedy must
    produce a proper coloring with candidate colors = the 6 household keys."""
    # edges from the DCs over the full (unpartitioned) relation, as in the
    # example: all owner pairs conflict (DC_OO), spouse 5 with owners 1,2
    # (age gap ok so no edge), children 6,7 with multi-lingual owner 2 only
    # if outside [A-50, A-12]: ages 10 vs 75 → outside → edge
    owners = [0, 1, 2, 3, 7, 8]  # positional ids of p_id 1,2,3,4,8,9
    edges = [(a, b) for i, a in enumerate(owners) for b in owners[i + 1 :]]
    edges += [(1, 5), (1, 6)]  # multiling owner 75 vs children aged 10
    c, s = coloring_lf(_g(9, edges), {}, [1, 2, 3, 4, 5, 6])
    assert s == []
    assert _proper(edges, c)
    assert len({c[v] for v in owners}) == 6  # owners all distinct


def test_color_with_extension_adds_fresh_colors():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    c, fresh = color_with_extension(_g(4, edges), [1, 2], fresh_start=100)
    assert _proper(edges, c)
    assert len(fresh) == 2
    assert set(fresh) <= {100, 101}


def test_color_with_extension_no_fresh_when_enough():
    c, fresh = color_with_extension(_g(3, [(0, 1)]), [1, 2], fresh_start=100)
    assert fresh == []


def test_extension_chain_terminates():
    """Adversarial: a clique larger than |L| plus fresh rounds still ends."""
    n = 7
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    c, fresh = color_with_extension(_g(n, edges), [1], fresh_start=50)
    assert _proper(edges, c)
    assert len(set(c.values())) == n
