"""Slow, obviously correct twins of phase II's conflict graph and coloring.

``brute_edges`` checks every ordered k-tuple of distinct rows against each
DC row by row; ``coloring_lf`` / ``color_with_extension`` are Algorithm 3
over an explicit list of edge tuples, walked one edge at a time. Tests
compare the dense :mod:`repro.core.conflict` / :mod:`repro.core.coloring`
against them. ``edge_list`` is the tuple-per-edge enumeration the dense
graph replaced, and ``dense_graph`` the row-by-row n×n evaluation the type
matrix replaced, both kept so benchmarks can time the old paths on large
frames.
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.conflict import ConflictGraph, pairwise_mask, violations


def edge_set(graph) -> set[tuple[int, ...]]:
    """A ``ConflictGraph``'s edges as sorted vertex tuples."""
    xs, ys = np.nonzero(np.triu(graph.adj, 1))
    return set(zip(xs.tolist(), ys.tolist())) | set(graph.hyper)


def brute_edges(pdf, dcs) -> list[tuple[int, ...]]:
    """All conflict edges of ``pdf`` under ``dcs``, deduplicated and sorted."""
    rows = [pdf.iloc[i] for i in range(len(pdf))]
    out = set()
    for dc in dcs:
        for ts in itertools.permutations(range(len(pdf)), dc.arity):
            if not all(p.matches_row(rows[t]) for p, t in zip(dc.preds, ts)):
                continue
            if all(
                bool(comp.apply(np.array(rows[ts[comp.i]][comp.col_i]),
                                np.array(rows[ts[comp.j]][comp.col_j])))
                for comp in dc.comps
            ):
                out.add(tuple(sorted(ts)))
    return sorted(out)


def edge_list(pdf, dcs) -> list[tuple[int, ...]]:
    """All conflict edges as sorted Python tuples, deduplicated in a set."""
    out: set[tuple[int, ...]] = set()
    for dc in dcs:
        if dc.arity != 2:
            rows = np.stack(violations(pdf, dc, np.zeros(len(pdf))), axis=1)
            out |= set(map(tuple, np.sort(rows).tolist()))
            continue
        i1, i2, ok = pairwise_mask(pdf, dc)
        xs, ys = np.nonzero(ok)
        for x, y in zip(i1[xs].tolist(), i2[ys].tolist()):
            if x != y:
                out.add((x, y) if x < y else (y, x))
    return sorted(out)


def dense_graph(pdf, dcs) -> ConflictGraph:
    """The conflict graph with every 2-ary DC evaluated over all row pairs."""
    n = len(pdf)
    adj = np.zeros((n, n), dtype=bool)
    for dc in dcs:
        if dc.arity == 2:
            i1, i2, ok = pairwise_mask(pdf, dc)
            adj[np.ix_(i1, i2)] |= ok
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return ConflictGraph(adj, edge_list(pdf, [dc for dc in dcs if dc.arity != 2]))


def coloring_lf(
    n: int,
    edges: list[tuple[int, ...]],
    c: dict[int, int],
    colors: list[int],
) -> tuple[dict[int, int], list[int]]:
    """Algorithm 3 over vertices ``0..n-1``; extends ``c`` in place."""
    adj: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(n)}
    for e in edges:
        for v in e:
            adj[v].append(e)
    order = sorted(
        (v for v in range(n) if v not in c),
        key=lambda v: (-len(adj[v]), v),
    )
    L = sorted(colors)
    skipped: list[int] = []
    for v in order:
        forbidden = set()
        for e in adj[v]:
            others = [c[u] for u in e if u != v and u in c]
            if len(others) == len(e) - 1 and len(set(others)) == 1:
                forbidden.add(others[0])
        for col in L:
            if col not in forbidden:
                c[v] = col
                break
        else:
            skipped.append(v)
    return c, skipped


def color_with_extension(
    n: int,
    edges: list[tuple[int, ...]],
    colors: list[int],
    fresh_start: int,
) -> tuple[dict[int, int], list[int]]:
    """Algorithm 3, then fresh colors for skipped vertices."""
    c, skipped = coloring_lf(n, edges, {}, colors)
    used_fresh: list[int] = []
    next_fresh = fresh_start
    while skipped:
        fresh = list(range(next_fresh, next_fresh + len(skipped)))
        c, skipped = coloring_lf(n, edges, c, fresh)
        used_fresh.extend(col for col in fresh if col in c.values())
        next_fresh += len(fresh)
    assigned = set(c.values())
    used_fresh = [col for col in used_fresh if col in assigned]
    return c, used_fresh
