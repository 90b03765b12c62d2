"""Algorithm 3: largest-first greedy list coloring of a conflict hypergraph.

Vertices are tuple positions, edges are sets of positions that may not all
share one FK value. A color is forbidden for ``v`` only when some edge
through ``v`` has *all* its other vertices colored with that same color
(hyperedge semantics — at least two distinct colors per edge suffice); for
a pairwise edge that is simply the colored neighbour's color. Vertices whose
candidate list is exhausted are *skipped* and returned for the caller to
retry with fresh colors (Algorithm 4 lines 11–12).

The graph is a :class:`~repro.core.conflict.ConflictGraph`. Each vertex's
forbidden colors are marked in one boolean array over the candidate list L,
read off its adjacency-matrix row; only k-ary edges are walked in Python.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .conflict import ConflictGraph


def coloring_lf(
    graph: ConflictGraph,
    c: dict[int, int],
    colors: Iterable[int],
) -> tuple[dict[int, int], list[int]]:
    """Run Algorithm 3 over vertices ``0..graph.n-1``.

    ``c`` is the (possibly partial) coloring built so far — it is extended in
    place and also returned. ``colors`` is the shared candidate list L,
    tried in ascending order ("smallest available color", line 10).
    Vertices are taken by descending degree (edges through them), ties by
    position.
    """
    L = sorted(set(colors))
    m = len(L)
    slot = {col: k for k, col in enumerate(L)}
    # position in L of each vertex's color; m = uncolored or a color not in L
    pos = np.full(graph.n, m, dtype=np.int64)
    for v, col in c.items():
        pos[v] = slot.get(col, m)
    adj = graph.adj
    deg = adj.sum(axis=1)
    hyper_of: dict[int, list[tuple[int, ...]]] = {}
    for e in graph.hyper:
        for v in e:
            deg[v] += 1
            hyper_of.setdefault(v, []).append(e)
    todo = np.array([v for v in range(graph.n) if v not in c], dtype=np.int64)
    order = todo[np.argsort(-deg[todo], kind="stable")]

    taken = np.zeros(m + 1, dtype=bool)
    skipped: list[int] = []
    for v in order.tolist():
        blocked = pos[adj[v]]
        if v in hyper_of:
            shared = [slot.get(col, m) for col in _shared(hyper_of[v], v, c)]
            blocked = np.concatenate([blocked, np.array(shared, dtype=np.int64)])
        taken[blocked] = True
        taken[m] = False
        k = int(taken.argmin())  # the smallest free color, or m if none is
        taken[blocked] = False
        if k == m:
            skipped.append(v)
        else:
            c[v] = L[k]
            pos[v] = k
    return c, skipped


def _shared(edges: list[tuple[int, ...]], v: int, c: dict[int, int]) -> list[int]:
    """Colors shared by all other vertices of a k-ary edge through ``v``."""
    out = []
    for e in edges:
        others = {c.get(u) for u in e if u != v}
        if len(others) == 1 and None not in others:
            out.append(others.pop())
    return out


def color_with_extension(
    graph: ConflictGraph,
    colors: Iterable[int],
    fresh_start: int,
) -> tuple[dict[int, int], list[int]]:
    """Color everything: Algorithm 3, then fresh colors for skipped vertices.

    Fresh colors are ``fresh_start, fresh_start+1, ...`` (they become new R2
    keys in Algorithm 4). Returns the total coloring and the list of fresh
    colors actually used.
    """
    c, skipped = coloring_lf(graph, {}, colors)
    used_fresh: list[int] = []
    next_fresh = fresh_start
    while skipped:
        fresh = range(next_fresh, next_fresh + len(skipped))
        c, skipped = coloring_lf(graph, c, fresh)
        assigned = set(c.values())
        used_fresh.extend(col for col in fresh if col in assigned)
        next_fresh += len(fresh)
    return c, used_fresh
