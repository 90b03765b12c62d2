"""The two baselines of §6.1, after Arasu et al. [5].

* ``baseline``: Algorithm 1 **without** the marginal rows (line 8 removed),
  full bins × combos variable space; V_Join tuples left unassigned get a
  uniformly random combo; phase II assigns a uniformly random candidate FK
  (no DC handling).
* ``baseline_marginals``: same but with all all-way marginal rows, which
  makes every variable participate and fills every tuple (the paper finds
  this satisfies all CCs but worsens DC error, and is the slowest).

Phase-I output shares the hybrid's allocation-table format so the same Spark
materialization applies; the random-combo leftover fill happens here (driver,
count level) and the random FK choice happens in phase II.
"""
from __future__ import annotations

import numpy as np

from .binning import Binning, Combos, Coverage
from .constraints import CC
from .hybrid import Phase1Result, _to_frame
from .ilp_phase import alg1_allocate


def baseline_phase1(
    ccs: list[CC],
    binning: Binning,
    combos: Combos,
    *,
    with_marginals: bool,
    seed: int = 0,
    node_limit: int = 4,
) -> Phase1Result:
    rng = np.random.default_rng(seed)
    avail = binning.avail
    alg1 = alg1_allocate(
        ccs,
        Coverage.build(ccs, binning, combos),
        avail,
        marginals="all" if with_marginals else "none",
        restrict_vars=False,
        node_limit=node_limit,
    )
    rows = [(a.bin_id, int(a.combo_ids[0]), a.count) for a in alg1.allocations]
    # random completion of unassigned tuples (baseline's leftover strategy)
    combo_ids = combos.table["combo_id"].to_numpy()
    weights = combos.table["n_households"].to_numpy().astype(float)
    weights /= weights.sum()
    for b, n in sorted(avail.items()):
        if n <= 0:
            continue
        picks = rng.choice(combo_ids, size=n, p=weights)
        ids, cnts = np.unique(picks, return_counts=True)
        rows += [(b, int(c), int(k)) for c, k in zip(ids, cnts)]
        avail[b] = 0
    return Phase1Result(
        alloc=_to_frame(rows),
        timings={"pairwise": 0.0, "recursion": 0.0, "ilp": alg1.ilp_time},
        s1_ids=[],
        s2_ids=[c.cc_id for c in ccs],
        ilp_info={
            "n_vars": alg1.n_vars,
            "n_rows": alg1.n_rows,
            "integral": alg1.integral,
            "nodes": alg1.nodes,
            "slack": alg1.slack,
        },
    )

