"""The hybrid phase-I strategy (§4.3).

1. Label all CC pairs (Def 4.2–4.4) and build the Hasse structure.
2. Diagrams touched by an intersecting pair are discarded to S2; the rest
   (S1) are solved exactly by Algorithm 2.
3. S2 is solved by Algorithm 1 with the *modified marginals* (rows only for
   bins relevant to S2, with availability net of the S1 draws) and the
   restricted variable space.
4. Each draw names the combos it may take (all combos its CC covers, or
   an ILP variable's one combo); ``resolve_partials`` picks those adding
   the fewest spurious CC contributions. Leftover tuples get
   ``combo_unused`` values; bins with no harmless combo produce *invalid*
   tuples (combo_id = -1), resolved in phase II.

Every step reads one :class:`~.binning.Coverage`, built once per run: the
CC × bin and CC × combo masks and their bins × combos product, which counts
the CCs each (bin, combo) cell contributes to.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .binning import Binning, Combos, Coverage
from .constraints import CC
from .hasse import (
    Alloc,
    HasseStructure,
    alg2_allocate,
    build_structure,
    split_s1_s2,
)
from .ilp_phase import alg1_allocate

INVALID_COMBO = -1
#: Branch-and-bound nodes for the restricted S2 ILP.
NODE_LIMIT = 50


@dataclass
class Phase1Result:
    """Allocation table + diagnostics for one phase-I run."""

    alloc: pd.DataFrame  # bin_id, combo_id (INVALID_COMBO = invalid), count
    timings: dict = field(default_factory=dict)
    s1_ids: list[int] = field(default_factory=list)
    s2_ids: list[int] = field(default_factory=list)
    shortfall: dict[int, int] = field(default_factory=dict)
    n_invalid: int = 0
    structure: HasseStructure | None = None


def _split(total: int, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder split of ``total`` proportionally to ``weights``;
    evenly when every weight is 0 (e.g. no combo holds a household)."""
    w = weights.astype(float)
    w = w / w.sum() if w.sum() > 0 else np.full(len(w), 1 / len(w))
    counts = np.floor(w * total).astype(int)
    order = np.argsort(-(w * total - counts))
    counts[order[: total - counts.sum()]] += 1
    return counts


def resolve_partials(
    allocations: list[Alloc],
    cov: Coverage,
    combos: Combos,
    structure: HasseStructure | None,
) -> list[tuple[int, int, int]]:
    """Give each allocation's tuples concrete combos from its ``combo_ids``.

    Returns (bin_id, combo_id, count) rows. A draw made for CC ``c`` may
    freely contribute to ``c`` and its ancestors (that is the point of the
    Hasse recursion); any other contribution is spurious and minimised.
    """
    nh = combos.table["n_households"].to_numpy()
    out: list[tuple[int, int, int]] = []
    for a in allocations:
        elig = a.combo_ids
        if len(elig) == 0:
            out.append((a.bin_id, INVALID_COMBO, a.count))
            continue
        allowed: set[int] = set()
        if a.cc_id is not None:
            allowed = {a.cc_id}
            if structure is not None:
                allowed |= structure.ancestors(a.cc_id)
        scores = cov.score(a.bin_id, allowed)[elig]
        # split the draw across *all* minimum-score combos proportionally to
        # their household counts: every min-score combo contributes equally
        # to the allocation's own CC and its ancestors (all of them lie in
        # that CC's R2 condition), so the split preserves exactness while
        # keeping phase-II partitions balanced (fewer fresh households, no
        # giant owner cliques)
        chosen = elig[scores == scores.min()]
        counts = _split(a.count, np.maximum(nh[chosen], 1))
        for c, cnt in zip(chosen.tolist(), counts.tolist()):
            if cnt > 0:
                out.append((a.bin_id, c, cnt))
    return out


def fill_leftovers(
    avail: dict[int, int],
    cov: Coverage,
    combos: Combos,
    rng: np.random.Generator,
) -> tuple[list[tuple[int, int, int]], int]:
    """Assign combo_unused values to unallocated tuples (Algorithm 2 lines
    14–17): a bin's harmless combos are the zero cells of its ``cov.count``
    row. Returns allocation rows + the number of invalid tuples."""
    rows: list[tuple[int, int, int]] = []
    n_invalid = 0
    nh = combos.table["n_households"].to_numpy()
    for b, n in sorted(avail.items()):
        if n <= 0:
            continue
        unused = np.flatnonzero(cov.count[b] == 0)
        if not len(unused):
            rows.append((b, INVALID_COMBO, n))
            n_invalid += n
            continue
        # spread across the harmless combos proportionally to their household
        # counts: keeps phase-II partitions balanced and minimises the fresh
        # households the coloring has to mint for over-full partitions
        unused = rng.permutation(unused)
        counts = _split(n, nh[unused])
        for c, cnt in zip(unused.tolist(), counts.tolist()):
            if cnt > 0:
                rows.append((b, c, cnt))
        avail[b] = 0
    return rows, n_invalid


def _to_frame(rows: list[tuple[int, int, int]]) -> pd.DataFrame:
    pdf = pd.DataFrame(rows, columns=["bin_id", "combo_id", "count"])
    if len(pdf):
        pdf = (
            pdf.groupby(["bin_id", "combo_id"], as_index=False)["count"]
            .sum()
            .sort_values(["bin_id", "combo_id"])
            .reset_index(drop=True)
        )
    return pdf


def hybrid_phase1(
    ccs: list[CC],
    binning: Binning,
    combos: Combos,
    *,
    seed: int = 0,
) -> Phase1Result:
    """Run the full hybrid phase I; see module docstring."""
    rng = np.random.default_rng(seed)
    avail = binning.avail

    t0 = time.perf_counter()
    structure = build_structure(ccs)
    s1_ids, s2_ids = split_s1_s2(structure)
    t_pairwise = time.perf_counter() - t0

    t0 = time.perf_counter()
    cov = Coverage.build(ccs, binning, combos)
    alg2 = alg2_allocate(structure, s1_ids, cov, avail)
    t_recursion = time.perf_counter() - t0

    by_id = {c.cc_id: c for c in ccs}
    s2_ccs = [by_id[i] for i in s2_ids]
    alg1 = alg1_allocate(
        s2_ccs, cov, avail, marginals="restricted", node_limit=NODE_LIMIT
    )

    rows = resolve_partials(alg2.allocations, cov, combos, structure)
    rows += resolve_partials(alg1.allocations, cov, combos, None)
    left, _ = fill_leftovers(avail, cov, combos, rng)
    rows += left
    n_invalid = sum(c for _, cid, c in rows if cid == INVALID_COMBO)

    return Phase1Result(
        alloc=_to_frame(rows),
        timings={
            "pairwise": t_pairwise,
            "recursion": t_recursion,
            "ilp": alg1.ilp_time,
        },
        s1_ids=s1_ids,
        s2_ids=s2_ids,
        shortfall=alg2.shortfall,
        n_invalid=n_invalid,
        structure=structure,
    )
