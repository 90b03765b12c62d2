"""Conflict hypergraph construction (Def 5.1).

Edges connect sets of R1 tuples that would violate a Foreign-Key DC's
condition φ if they shared an FK value. Enumeration is per phase-II
partition (tuples sharing a B-combo). Pairwise edges, the only kind the
Table-4 DCs produce, go into a dense boolean adjacency matrix. Two tuples
with equal values in the 2-ary DCs' columns conflict with exactly the same
tuples, so the DC predicates are evaluated once over the distinct such
tuples, the *types* (``type_conflicts``, NumPy broadcasting through
``pairwise_mask``), and a partition's matrix is a gather of the type matrix
at its rows' type codes. k-ary edges (k ≥ 3, only from the NP-hardness
gadget) are listed explicitly by ``violations``, the same evaluator
``metrics.dc_error`` runs over households.
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


def _comps_hold(pdf: pd.DataFrame, dc: DC, rows) -> np.ndarray:
    """AND of ``dc``'s comparisons with tuple variable ``v`` at the rows
    ``rows[v]`` of ``pdf``; the index arrays broadcast against each other,
    and so does the result."""
    ok = np.ones(np.broadcast_shapes(*(np.shape(r) for r in rows)), dtype=bool)
    for comp in dc.comps:
        ci = pdf[comp.col_i].to_numpy()[rows[comp.i]]
        cj = pdf[comp.col_j].to_numpy()[rows[comp.j]]
        ok &= comp.apply(ci, cj)
    return ok


def pairwise_mask(
    pdf: pd.DataFrame, dc: DC
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows matching each side of a 2-ary DC and the ``(i1 × i2)`` mask of
    pairs satisfying its comparisons (a row paired with itself included)."""
    i1 = np.flatnonzero(dc.preds[0].mask(pdf))
    i2 = np.flatnonzero(dc.preds[1].mask(pdf))
    # tuple variable 0 ranges over i1 (the first broadcast axis), 1 over i2
    return i1, i2, _comps_hold(pdf, dc, (i1[:, None], i2[None, :]))


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
    ok = _comps_hold(pdf, dc, rows)
    for a in range(dc.arity):
        for b in range(a + 1, dc.arity):
            ok &= rows[a] != rows[b]
    return tuple(r[ok] for r in rows)


def type_conflicts(pdf: pd.DataFrame, dcs: list[DC]) -> tuple[np.ndarray, np.ndarray]:
    """The conflict matrix over ``pdf``'s types and each row's type code.

    A type is a distinct tuple of values in the columns the 2-ary DCs read,
    nulls included; codes number the types in order of first appearance.
    Entry ``(s, t)`` of the symmetric T×T matrix says whether a row of type
    ``s`` and a different row of type ``t`` form a pairwise edge; a set
    diagonal entry means two rows of that type conflict with each other.
    """
    cols = list(dict.fromkeys(c for dc in dcs if dc.arity == 2 for c in dc.columns))
    if cols:
        codes = pdf.groupby(cols, dropna=False, sort=False).ngroup().to_numpy()
    else:
        codes = np.zeros(len(pdf), dtype=np.int64)
    _, first = np.unique(codes, return_index=True)
    types = pdf.iloc[first]
    conf = np.zeros((len(types), len(types)), dtype=bool)
    for dc in dcs:
        if dc.arity == 2:
            i1, i2, ok = pairwise_mask(types, dc)
            conf[np.ix_(i1, i2)] |= ok
    return conf | conf.T, codes


def enumerate_edges(
    pdf: pd.DataFrame,
    dcs: list[DC],
    types: tuple[np.ndarray, np.ndarray] | None = None,
) -> ConflictGraph:
    """The partition's conflict hypergraph, with edges deduplicated.

    ``types`` is ``type_conflicts``' output for a frame holding these rows,
    its codes taken at them; without it the matrix is built from ``pdf``.
    """
    conf, codes = type_conflicts(pdf, dcs) if types is None else types
    adj = conf[np.ix_(codes, codes)]
    np.fill_diagonal(adj, False)
    hyper: set[tuple[int, ...]] = set()
    for dc in dcs:
        if dc.arity != 2:
            tuples = np.sort(np.stack(violations(pdf, dc, np.zeros(len(pdf))), axis=1))
            hyper.update(map(tuple, tuples.tolist()))
    return ConflictGraph(adj, sorted(hyper))
