"""Algorithms 3–4: largest-first greedy list coloring of a conflict hypergraph.

Vertices are tuple positions, edges are sets of positions that may not all
share one FK value. A color is forbidden for ``v`` only when some edge
through ``v`` has *all* its other vertices colored with that same color
(hyperedge semantics — at least two distinct colors per edge suffice); for
a pairwise edge that is simply the colored neighbour's color.

One greedy pass colors every vertex from the candidate list L followed by
``n`` reserved fresh colors. That equals Algorithm 3 over L followed by
Algorithm 4 lines 11–12, which color the skipped vertices, in the same
order, from fresh colors: a fresh color never blocks a color of L, and a
fresh color is blocked only by an earlier vertex that holds it.

The graph is a :class:`~repro.core.conflict.ConflictGraph`. Each vertex's
forbidden colors are marked in one boolean array over the list, read off
its adjacency-matrix row; only k-ary edges are walked in Python.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .conflict import ConflictGraph


def color_with_extension(
    graph: ConflictGraph,
    colors: Iterable[int],
    fresh_start: int,
) -> tuple[dict[int, int], list[int]]:
    """Color vertices ``0..graph.n-1`` from ``L' = sorted(set(colors)) +
    range(fresh_start, fresh_start + graph.n)``.

    Vertices are taken by descending degree (edges through them), ties by
    position, and each takes the smallest free entry of L' ("smallest
    available color", Algorithm 3 line 10). A blocked entry is held by an
    earlier vertex, so at most ``graph.n - 1`` entries are ever blocked and
    a free one always exists: every fresh color lies in ``[fresh_start,
    fresh_start + graph.n)``, the partition's reserved key range. Fresh
    colors become new R2 keys (Algorithm 4) and must exceed every color in
    ``colors``. Returns the coloring and the sorted fresh colors it uses.
    """
    L = sorted(set(colors))
    n, m = graph.n, len(L)
    palette = np.array(L + list(range(fresh_start, fresh_start + n)), dtype=np.int64)
    # position in the palette of each vertex's color; m + n = uncolored
    pos = np.full(n, m + n, dtype=np.int64)
    adj = graph.adj
    deg = adj.sum(axis=1)
    hyper_of: dict[int, list[list[int]]] = {}
    for e in graph.hyper:
        for v in e:
            deg[v] += 1
            hyper_of.setdefault(v, []).append([u for u in e if u != v])
    order = np.argsort(-deg, kind="stable")

    taken = np.zeros(m + n + 1, dtype=bool)
    for v in order.tolist():
        blocked = pos[adj[v]]
        if v in hyper_of:
            # a k-ary edge blocks the color its other vertices all hold
            held = [pos[others] for others in hyper_of[v]]
            shared = [ks[0] for ks in held if (ks == ks[0]).all()]
            blocked = np.concatenate([blocked, np.array(shared, dtype=np.int64)])
        taken[blocked] = True
        taken[m + n] = False
        pos[v] = taken.argmin()  # the smallest free entry; one always exists
        taken[blocked] = False
    col = palette[pos]
    return dict(enumerate(col.tolist())), np.unique(col[pos >= m]).tolist()
