"""Branch-and-bound integer programming over the simplex LP engine.

Solves ``min c·x  s.t.  A x = b, x >= 0, x integer``.
Branching adds bound rows (``x_i <= f`` / ``x_i >= f+1``) as explicit
equality rows with slack/surplus columns, so the LP stays in standard form.

A ``node_limit`` caps the search; if no fully-integral solution is found
within the limit the best LP solution is returned with ``integral=False``
and the caller applies a structure-aware rounding (Algorithm 1 knows the
bin-marginal structure, the generic solver does not).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, solve_lp

_INT_TOL = 1e-6


@dataclass
class ILPResult:
    status: str            # 'optimal' | 'infeasible'
    x: np.ndarray | None   # best solution found (may be fractional)
    objective: float | None
    integral: bool
    nodes: int


def _solve_with_bounds(A, b, c, lows: dict[int, int], highs: dict[int, int]):
    """Solve the LP with extra integer bound constraints on variables."""
    m, n = A.shape
    extra = len(lows) + len(highs)
    if extra == 0:
        return solve_lp(A, b, c)
    A2 = np.zeros((m + extra, n + extra))
    A2[:m, :n] = A
    b2 = np.concatenate([b, np.zeros(extra)])
    r = m
    s = n
    for i, lo in lows.items():
        A2[r, i] = 1.0
        A2[r, s] = -1.0  # surplus: x_i - u = lo
        b2[r] = lo
        r += 1
        s += 1
    for i, hi in highs.items():
        A2[r, i] = 1.0
        A2[r, s] = 1.0   # slack: x_i + u = hi
        b2[r] = hi
        r += 1
        s += 1
    c2 = np.concatenate([c, np.zeros(extra)])
    res = solve_lp(A2, b2, c2)
    if res.x is not None:
        res.x = res.x[:n]
    return res


def solve_ilp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    node_limit: int = 200,
) -> ILPResult:
    """Branch and bound over all-integer variables."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)

    root = solve_lp(A, b, c)
    if root.status != OPTIMAL:
        return ILPResult(INFEASIBLE, None, None, False, 1)

    best_x, best_obj, best_integral = root.x, root.objective, False
    nodes = 1

    def fractional(x):
        return np.flatnonzero(np.abs(x - np.round(x)) > _INT_TOL)

    frac = fractional(root.x)
    if frac.size == 0:
        return ILPResult(OPTIMAL, np.round(root.x), root.objective, True, 1)

    # best-first queue: (lp bound, tiebreak, lows, highs, x)
    tie = 0
    heap = [(root.objective, tie, {}, {}, root.x)]
    incumbent = np.inf
    while heap and nodes < node_limit:
        bound, _, lows, highs, x = heapq.heappop(heap)
        if bound >= incumbent - 1e-9:
            continue
        frac = fractional(x)
        if frac.size == 0:
            if bound < incumbent:
                incumbent, best_x, best_integral = bound, np.round(x), True
                best_obj = bound
            continue
        # branch on most fractional variable
        dist = np.abs(x[frac] - np.round(x[frac]) )
        i = int(frac[np.argmax(np.minimum(dist, 1 - dist))])
        f = int(np.floor(x[i]))
        for lo2, hi2 in (
            (dict(lows), {**highs, i: min(highs.get(i, f), f)}),
            ({**lows, i: max(lows.get(i, f + 1), f + 1)}, dict(highs)),
        ):
            nodes += 1
            res = _solve_with_bounds(A, b, c, lo2, hi2)
            if res.status != OPTIMAL:
                continue
            fr = fractional(res.x)
            if fr.size == 0:
                if res.objective < incumbent:
                    incumbent = res.objective
                    best_x, best_obj, best_integral = (
                        np.round(res.x),
                        res.objective,
                        True,
                    )
            elif res.objective < incumbent - 1e-9:
                tie += 1
                heapq.heappush(
                    heap, (res.objective, tie, lo2, hi2, res.x)
                )
        if best_integral and incumbent <= root.objective + 1e-9:
            break  # proven optimal: matches the LP relaxation bound

    if not best_integral:
        # return the best (fractional) relaxation; caller rounds
        return ILPResult(OPTIMAL, best_x, best_obj, False, nodes)
    return ILPResult(OPTIMAL, best_x, float(incumbent), True, nodes)
