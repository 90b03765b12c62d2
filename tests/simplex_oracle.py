"""Slow, obviously correct twin of :mod:`repro.ilp.simplex`.

``solve_lp`` is the two-phase tableau simplex with the dense pivot: every
pivot subtracts the outer product of the pivot column and the pivot row from
the whole tableau. The fast solver touches only the rows whose pivot-column
entry is non-zero, which must give the same pivots, basis and ``x``.
``solve_ilp`` is the repo's branch-and-bound over this LP engine. Tests and
``benchmarks/bench_ilp.py`` compare the fast solver against them.
"""
from __future__ import annotations

from unittest import mock

import numpy as np

from repro.ilp import branch_bound
from repro.ilp.simplex import _EPS, INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, piv)
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _iterate(T: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int) -> str:
    """Run simplex iterations on tableau ``T`` (last row = objective).

    Returns OPTIMAL or UNBOUNDED. ``ncols`` excludes the RHS column.
    """
    m = T.shape[0] - 1
    bland_after = max(200, 4 * (m + ncols))
    for it in range(max_iter):
        obj = T[-1, :ncols]
        if it < bland_after:
            col = int(np.argmin(obj))
            if obj[col] >= -_EPS:
                return OPTIMAL
        else:  # Bland: first improving column
            neg = np.where(obj < -_EPS)[0]
            if neg.size == 0:
                return OPTIMAL
            col = int(neg[0])
        ratios = np.full(m, np.inf)
        pos = T[:m, col] > _EPS
        ratios[pos] = T[:m, -1][pos] / T[:m, col][pos]
        if not np.isfinite(ratios).any():
            return UNBOUNDED
        row = int(np.argmin(ratios))
        if it >= bland_after:  # Bland tie-break: lowest basis index leaves
            best = ratios[row]
            cand = np.where(np.abs(ratios - best) <= _EPS)[0]
            row = int(cand[np.argmin(basis[cand])])
        _pivot(T, basis, row, col)
    raise RuntimeError(f"simplex did not converge in {max_iter} iterations")


def solve_lp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    max_iter: int = 200_000,
) -> LPResult:
    """Solve ``min c·x  s.t.  A x = b, x >= 0``."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if m == 0:
        x = np.zeros(n)
        return LPResult(OPTIMAL, x, 0.0)
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # --- phase 1 tableau: [A | I_art | b], objective = sum of artificials ---
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    # price out artificials from the phase-1 objective row
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    status = _iterate(T, basis, n + m, max_iter)
    if status == UNBOUNDED:  # cannot happen in phase 1, defensive
        return LPResult(INFEASIBLE, None, None)
    if -T[-1, -1] > 1e-7 * max(1.0, np.abs(b).sum()):
        return LPResult(INFEASIBLE, None, None)

    # drive any artificial still in the basis out (or drop its row)
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            cand = np.where(np.abs(T[r, :n]) > _EPS)[0]
            if cand.size:
                _pivot(T, basis, r, int(cand[0]))
            else:
                keep[r] = False  # redundant row
    T = np.vstack([T[:m][keep], T[-1:]])
    basis = basis[keep]
    m2 = T.shape[0] - 1

    # --- phase 2: replace objective, drop artificial columns ---
    T2 = np.zeros((m2 + 1, n + 1))
    T2[:m2, :n] = T[:m2, :n]
    T2[:m2, -1] = T[:m2, -1]
    T2[-1, :n] = c
    # price out basic columns
    for r in range(m2):
        j = basis[r]
        if np.abs(T2[-1, j]) > _EPS:
            T2[-1] -= T2[-1, j] * T2[r]
    status = _iterate(T2, basis, n, max_iter)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    x = np.zeros(n)
    for r in range(m2):
        if basis[r] < n:
            x[basis[r]] = T2[r, -1]
    x[np.abs(x) < 1e-10] = 0.0
    return LPResult(OPTIMAL, x, float(c @ x))


def solve_ilp(A, b, c, node_limit: int = 200) -> branch_bound.ILPResult:
    """``branch_bound.solve_ilp`` with every LP, root and bounded nodes alike,
    solved by the dense :func:`solve_lp` above."""
    with mock.patch.object(branch_bound, "solve_lp", solve_lp):
        return branch_bound.solve_ilp(A, b, c, node_limit=node_limit)
