"""Algorithm 1 (§4.1): model CCs as an integer program over (bin, combo)
variables and derive a V_Join allocation from its solution.

Variable ``x[(bin, combo)]`` counts tuples of R1-bin ``bin`` assigned the
B-values of ``combo``. Rows are (optionally) the all-way marginals — one per
bin, pinning the bin's total — plus one row per CC. The paper solves a pure
feasibility system with CBC; our substrate minimises the L1 slack of the CC
rows (zero slack ⇔ the paper's feasible solution) with branch-and-bound and
falls back to per-bin largest-remainder rounding when the node limit is hit.

``marginals``:
  * ``'none'``        — the plain baseline (Algorithm 1 without line 8);
  * ``'all'``         — every bin (baseline-with-marginals);
  * ``'restricted'``  — only bins relevant to the given CCs (the hybrid's
    "modified marginals" of §4.3), with variables limited to the (bin,
    combo) pairs that can contribute to some CC plus a ⊥ (unassigned)
    variable per marginal bin — the hybrid's smaller ILP.

The other two use the full bins × combos cross product, which reproduces
the baselines' large-ILP behaviour.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ilp import solve_ilp
from .binning import Coverage
from .constraints import CC
from .hasse import Alloc


@dataclass
class Alg1Result:
    allocations: list[Alloc]
    ilp_time: float = 0.0
    integral: bool = True
    nodes: int = 0
    n_vars: int = 0
    n_rows: int = 0
    slack: float = 0.0


def _round_per_bin(
    x: np.ndarray, var_bins: np.ndarray, bin_totals: dict[int, int]
) -> np.ndarray:
    """Largest-remainder rounding keeping each bin's total ≤ its target.

    Applied only when branch-and-bound returns a fractional solution; bins
    without a pinned total are rounded to nearest.
    """
    out = np.floor(x + 1e-9).astype(np.int64)
    rem = x - out
    for b in np.unique(var_bins):
        idx = np.where(var_bins == b)[0]
        tgt = bin_totals.get(int(b))
        if tgt is None:
            out[idx] += (rem[idx] > 0.5).astype(np.int64)
            continue
        deficit = int(round(tgt - out[idx].sum()))
        if deficit > 0:
            order = idx[np.argsort(-rem[idx])]
            out[order[:deficit]] += 1
        elif deficit < 0:
            order = idx[np.argsort(rem[idx])]
            for i in order:
                if deficit == 0:
                    break
                if out[i] > 0:
                    out[i] -= 1
                    deficit += 1
    return np.maximum(out, 0)


@dataclass
class Alg1System:
    """Algorithm 1's ILP ``min c·x  s.t.  A x = b, x >= 0`` over variables
    ``(var_bins[i], var_combos[i])`` (combo ``-1`` is ⊥), followed by one
    ``s+``/``s-`` slack pair per CC row. ``bin_totals`` holds the pinned
    total of each marginal bin."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    var_bins: np.ndarray
    var_combos: np.ndarray
    bin_totals: dict[int, int]


def alg1_system(
    ccs: list[CC], cov: Coverage, avail: dict[int, int], marginals: str
) -> Alg1System:
    """Build the Algorithm-1 ILP for ``ccs`` (see :func:`alg1_allocate`)."""
    cc_rows = cov.rows(cc.cc_id for cc in ccs)
    cc_bins, cc_combos = cov.bins[cc_rows], cov.combos[cc_rows]
    n_bins, n_combos = cov.count.shape

    all_bins = [b for b, n in sorted(avail.items()) if n > 0]
    if marginals == "all":
        marg_bins = list(all_bins)
    elif marginals == "restricted":
        rel = cc_bins.any(axis=0)
        marg_bins = [b for b in all_bins if rel[b]]
    else:
        marg_bins = []

    # --- variables: (bin, combo) in sorted order; combo == -1 is ⊥ -------
    if marginals == "restricted":
        # cells some CC counts, in bins with tuples left, plus a ⊥ slot per
        # marginal bin so marginal rows can leave tuples over
        has_room = np.zeros(n_bins, dtype=bool)
        has_room[all_bins] = True
        vb, vc = np.nonzero((cov.cells(cc_rows) > 0) & has_room[:, None])
        var_bins = np.concatenate([vb, marg_bins]).astype(np.int64)
        var_combos = np.concatenate([vc, np.full(len(marg_bins), -1)]).astype(np.int64)
        order = np.lexsort((var_combos, var_bins))
        var_bins, var_combos = var_bins[order], var_combos[order]
    else:
        var_bins = np.repeat(np.array(all_bins, dtype=np.int64), n_combos)
        var_combos = np.tile(np.arange(n_combos, dtype=np.int64), len(all_bins))
    n = len(var_bins)
    real = var_combos >= 0  # ⊥ must not index the last combo

    n_slack = 2 * len(ccs)
    rows = len(marg_bins) + len(ccs)
    A = np.zeros((rows, n + n_slack))
    b_vec = np.zeros(rows)
    c_vec = np.zeros(n + n_slack)
    c_vec[n:] = 1.0                      # CC slack cost
    c_vec[:n][~real] = 1e-3              # mild pressure to assign tuples

    r = 0
    bin_totals: dict[int, int] = {}
    for bbin in marg_bins:
        A[r, :n][var_bins == bbin] = 1.0
        b_vec[r] = avail[bbin]
        bin_totals[bbin] = avail[bbin]
        r += 1
    # set only the ones: A starts as untouched zero pages, and writing whole
    # rows would make every page of the CC rows resident
    cols = np.flatnonzero(real)
    col_bins, col_combos = var_bins[cols], var_combos[cols]
    for k, cc in enumerate(ccs):
        A[r, cols[cc_bins[k, col_bins] & cc_combos[k, col_combos]]] = 1.0
        A[r, n + 2 * k] = 1.0       # s+
        A[r, n + 2 * k + 1] = -1.0  # s-
        b_vec[r] = cc.target
        r += 1
    return Alg1System(A, b_vec, c_vec, var_bins, var_combos, bin_totals)


def alg1_allocate(
    ccs: list[CC],
    cov: Coverage,
    avail: dict[int, int],
    *,
    marginals: str = "all",
    node_limit: int = 50,
) -> Alg1Result:
    """Build and solve the Algorithm-1 ILP; return the allocation.

    ``cov`` covers (at least) ``ccs``; their mask rows give the CC rows and
    the restricted variable set. ``avail`` gives each bin's remaining tuple
    budget (already net of any Algorithm-2 draws in the hybrid). Mutated in
    place for assigned counts.
    """
    import time

    if marginals not in ("none", "all", "restricted"):
        raise ValueError(marginals)
    if not ccs:
        return Alg1Result(allocations=[])

    ilp = alg1_system(ccs, cov, avail, marginals)
    var_bins, var_combos = ilp.var_bins, ilp.var_combos
    n = len(var_bins)

    t0 = time.perf_counter()
    res = solve_ilp(ilp.A, ilp.b, ilp.c, node_limit=node_limit)
    ilp_time = time.perf_counter() - t0
    if res.x is None:
        x = np.zeros(n, dtype=np.int64)
        integral, nodes = False, res.nodes
    else:
        xf = res.x[:n]
        if res.integral:
            x = np.round(xf).astype(np.int64)
        else:
            x = _round_per_bin(xf, var_bins, ilp.bin_totals)
        integral, nodes = res.integral, res.nodes

    allocations: list[Alloc] = []
    for i in np.flatnonzero((x > 0) & (var_combos >= 0)).tolist():
        allocations.append(
            Alloc(int(var_bins[i]), var_combos[i : i + 1], int(x[i]), cc_id=None)
        )
    # net the draws out of avail (greedy "at most c_i": cap at availability)
    per_bin: dict[int, int] = {}
    capped: list[Alloc] = []
    for a in allocations:
        used = per_bin.get(a.bin_id, 0)
        room = max(0, avail.get(a.bin_id, 0) - used)
        take = min(a.count, room)
        if take > 0:
            per_bin[a.bin_id] = used + take
            capped.append(Alloc(a.bin_id, a.combo_ids, take, a.cc_id))
    for bbin, used in per_bin.items():
        avail[bbin] -= used

    slack = float(np.abs(res.x[n:]).sum()) if res.x is not None else float("nan")
    return Alg1Result(
        allocations=capped,
        ilp_time=ilp_time,
        integral=integral,
        nodes=nodes,
        n_vars=n,
        n_rows=len(ilp.b),
        slack=slack,
    )
