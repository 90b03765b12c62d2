"""Conflict hypergraph construction (Def 5.1).

Edges connect sets of R1 tuples that would violate a Foreign-Key DC's
condition φ if they shared an FK value. Enumeration is per phase-II
partition (tuples sharing a B-combo). Pairwise edges, the only kind the
Table-4 DCs produce, go into a dense boolean adjacency matrix filled with
NumPy broadcasting; k-ary edges (k ≥ 3, only from the NP-hardness gadget)
are listed explicitly after a filtered nested loop — gadget instances are
small by construction.
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


def _nary_edges(pdf: pd.DataFrame, dc: DC) -> set[tuple[int, ...]]:
    """Generic k-ary enumeration (k ≥ 3), nested loops with pred filters."""
    idx = [np.where(p.mask(pdf))[0] for p in dc.preds]
    cols = {c: pdf[c].to_numpy() for c in pdf.columns}
    out: set[tuple[int, ...]] = set()

    def rec(pos: int, chosen: list[int]):
        if pos == dc.arity:
            vals = chosen
            for comp in dc.comps:
                vi = cols[comp.col_i][vals[comp.i]]
                vj = cols[comp.col_j][vals[comp.j]]
                if not bool(comp.apply(np.array(vi), np.array(vj))):
                    return
            out.add(tuple(sorted(set(vals))) if len(set(vals)) == dc.arity else None)
            return
        for i in idx[pos]:
            if i in chosen:
                continue
            rec(pos + 1, chosen + [int(i)])

    rec(0, [])
    out.discard(None)
    return out


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
            hyper |= _nary_edges(pdf, dc)
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return ConflictGraph(adj, sorted(hyper))
