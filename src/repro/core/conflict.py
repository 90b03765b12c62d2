"""Conflict hypergraph construction (Def 5.1).

Edges connect sets of R1 tuples that would violate a Foreign-Key DC's
condition φ if they shared an FK value. Enumeration is per phase-II
partition (tuples sharing a B-combo). Pairwise edges, the only kind the
Table-4 DCs produce, go into a dense boolean adjacency matrix filled with
NumPy broadcasting (``pairwise_mask``); k-ary edges (k ≥ 3, only from the
NP-hardness gadget) are listed explicitly by ``violations``, the same
evaluator ``metrics.dc_error`` runs over households.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .constraints import DC


@dataclass
class ConflictGraph:
    """One partition's conflict hypergraph over vertices ``0..n-1``.

    ``adj`` is the symmetric n×n matrix of pairwise edges (diagonal clear);
    ``hyper`` lists the k-ary edges (k ≥ 3) as sorted vertex tuples.
    """

    adj: np.ndarray
    hyper: list[tuple[int, ...]]

    @property
    def n(self) -> int:
        return len(self.adj)

    def __len__(self) -> int:
        """Number of distinct edges."""
        return int(self.adj.sum()) // 2 + len(self.hyper)

    @staticmethod
    def from_edges(n: int, edges) -> "ConflictGraph":
        """Build from explicit edges (vertex tuples of any arity ≥ 2)."""
        adj = np.zeros((n, n), dtype=bool)
        hyper = set()
        for e in edges:
            if len(e) == 2:
                adj[e[0], e[1]] = adj[e[1], e[0]] = True
            else:
                hyper.add(tuple(sorted(e)))
        np.fill_diagonal(adj, False)
        return ConflictGraph(adj, sorted(hyper))


def pairwise_mask(
    pdf: pd.DataFrame, dc: DC
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows matching each side of a 2-ary DC and the ``(i1 × i2)`` mask of
    pairs satisfying its comparisons (a row paired with itself included)."""
    i1 = np.flatnonzero(dc.preds[0].mask(pdf))
    i2 = np.flatnonzero(dc.preds[1].mask(pdf))
    ok = np.ones((i1.size, i2.size), dtype=bool)
    # comp.i / comp.j index the DC's tuple variables: variable 0 ranges over
    # i1 (rows matching pred 0, the first broadcast axis), variable 1 over i2.
    for comp in dc.comps:
        ci = pdf[comp.col_i].to_numpy()
        cj = pdf[comp.col_j].to_numpy()
        left = ci[i1][:, None] if comp.i == 0 else ci[i2][None, :]
        right = cj[i1][:, None] if comp.j == 0 else cj[i2][None, :]
        ok &= comp.apply(left, right)
    return i1, i2, ok


def violations(pdf: pd.DataFrame, dc: DC, group) -> tuple[np.ndarray, ...]:
    """Every k-tuple of distinct rows of ``pdf`` that shares a non-null
    ``group`` value and violates ``dc``, as k aligned row-index arrays.

    Each tuple variable's rows are filtered by its predicate, the k row
    sets are merged on ``group``, tuples repeating a row are dropped and the
    comparisons are evaluated on the gathered columns.
    """
    codes, _ = pd.factorize(pd.Series(group))  # a null group gets -1
    merged = None
    for v, p in enumerate(dc.preds):
        idx = np.flatnonzero(p.mask(pdf) & (codes >= 0))
        side = pd.DataFrame({"g": codes[idx], v: idx})
        merged = side if merged is None else merged.merge(side, on="g")
    rows = [merged[v].to_numpy(np.int64) for v in range(dc.arity)]
    ok = np.ones(len(merged), dtype=bool)
    for a in range(dc.arity):
        for b in range(a + 1, dc.arity):
            ok &= rows[a] != rows[b]
    for comp in dc.comps:
        ci = pdf[comp.col_i].to_numpy()[rows[comp.i]]
        cj = pdf[comp.col_j].to_numpy()[rows[comp.j]]
        ok &= comp.apply(ci, cj)
    return tuple(r[ok] for r in rows)


def enumerate_edges(pdf: pd.DataFrame, dcs: list[DC]) -> ConflictGraph:
    """The partition's conflict hypergraph, with edges deduplicated."""
    n = len(pdf)
    adj = np.zeros((n, n), dtype=bool)
    hyper: set[tuple[int, ...]] = set()
    for dc in dcs:
        if dc.arity == 2:
            i1, i2, ok = pairwise_mask(pdf, dc)
            adj[np.ix_(i1, i2)] |= ok
        else:
            tuples = np.sort(np.stack(violations(pdf, dc, np.zeros(n)), axis=1))
            hyper.update(map(tuple, tuples.tolist()))
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return ConflictGraph(adj, sorted(hyper))
