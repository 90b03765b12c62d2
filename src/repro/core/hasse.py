"""CC relationships, Hasse diagrams and Algorithm 2 (§4.2).

The Hasse structure encodes containment between CCs; connected components of
its undirected version are the paper's *diagrams*. Algorithm 2 recurses
bottom-up over each diagram: children are satisfied first, then the maximal
element draws its remaining ``k_m − Σ k_c`` tuples from bins satisfying
``σ_m ∧ ⋀ ¬σ_c``.

The recursion here operates on the *bin histogram* (see ``binning``): tuples
within a bin are interchangeable w.r.t. every CC, so drawing ``n`` tuples
from bin ``b`` is simply decrementing the bin's availability. The resulting
allocation rows are materialised into ``V_Join`` by ``allocation.py`` in a
single Spark pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import Coverage
from .constraints import (
    CC,
    CONTAINED,
    CONTAINS,
    DISJOINT,
    EQUAL,
    INTERSECTING,
    cc_relationship,
)


@dataclass
class Alloc:
    """``count`` tuples of bin ``bin_id``, each to take one of ``combo_ids``.

    ``combo_ids`` are the combos the draw may take: for an Algorithm-2 draw
    every combo its CC covers, for an Algorithm-1 variable its one combo.
    ``hybrid.resolve_partials`` picks among them; with none the tuples are
    invalid. ``cc_id`` records which CC the draw serves (None for
    Algorithm 1).
    """

    bin_id: int
    combo_ids: np.ndarray
    count: int
    cc_id: int | None


@dataclass
class HasseStructure:
    """Pairwise labels + containment DAG + diagrams over a CC set."""

    ccs: list[CC]
    labels: dict[tuple[int, int], str]          # (i, j) i<j → relationship
    children: dict[int, list[int]]              # Hasse edges parent → children
    parents: dict[int, list[int]]
    component: dict[int, int]                   # cc_id → diagram id
    intersecting: list[tuple[int, int]]

    def roots(self, comp_id: int) -> list[int]:
        return [
            c.cc_id
            for c in self.ccs
            if self.component[c.cc_id] == comp_id and not self.parents[c.cc_id]
        ]

    def component_ids(self) -> list[int]:
        return sorted(set(self.component.values()))

    def members(self, comp_id: int) -> list[int]:
        return [c.cc_id for c in self.ccs if self.component[c.cc_id] == comp_id]

    def ancestors(self, cc_id: int) -> set[int]:
        out: set[int] = set()
        stack = list(self.parents[cc_id])
        while stack:
            p = stack.pop()
            if p not in out:
                out.add(p)
                stack.extend(self.parents[p])
        return out


def build_structure(ccs: list[CC]) -> HasseStructure:
    """Label every pair (Def 4.2–4.4) and build the Hasse diagram.

    EQUAL pairs are oriented lower-id ⊇ higher-id so the DAG stays acyclic.
    """
    n = len(ccs)
    labels: dict[tuple[int, int], str] = {}
    contains_edges: set[tuple[int, int]] = set()  # (parent, child)
    intersecting: list[tuple[int, int]] = []
    ids = [c.cc_id for c in ccs]
    by_id = {c.cc_id: c for c in ccs}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = ids[a], ids[b]
            rel = cc_relationship(by_id[i], by_id[j])
            labels[(i, j)] = rel
            if rel == CONTAINS:
                contains_edges.add((i, j))
            elif rel == CONTAINED:
                contains_edges.add((j, i))
            elif rel == EQUAL:
                contains_edges.add((i, j))
            elif rel == INTERSECTING:
                intersecting.append((i, j))

    # transitive reduction → Hasse edges
    reach: dict[int, set[int]] = {i: set() for i in ids}
    adj: dict[int, set[int]] = {i: set() for i in ids}
    for p, c in contains_edges:
        adj[p].add(c)
    for i in ids:  # DFS reachability
        stack, seen = list(adj[i]), set()
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(adj[x])
        reach[i] = seen
    children: dict[int, list[int]] = {i: [] for i in ids}
    parents: dict[int, list[int]] = {i: [] for i in ids}
    for p, c in sorted(contains_edges):
        if any(c in reach[mid] for mid in adj[p] if mid != c):
            continue  # transitive edge
        children[p].append(c)
        parents[c].append(p)

    # connected components of the undirected containment graph
    comp: dict[int, int] = {}
    cid = 0
    und: dict[int, set[int]] = {i: set() for i in ids}
    for p, c in contains_edges:
        und[p].add(c)
        und[c].add(p)
    for i in ids:
        if i in comp:
            continue
        stack = [i]
        while stack:
            x = stack.pop()
            if x not in comp:
                comp[x] = cid
                stack.extend(und[x])
        cid += 1
    return HasseStructure(
        ccs=ccs,
        labels=labels,
        children=children,
        parents=parents,
        component=comp,
        intersecting=intersecting,
    )


def split_s1_s2(structure: HasseStructure) -> tuple[list[int], list[int]]:
    """Hybrid split (§4.3): discard every diagram touched by an intersecting
    pair; survivors go to Algorithm 2 (S1), the rest to the ILP (S2)."""
    bad_comps = set()
    for i, j in structure.intersecting:
        bad_comps.add(structure.component[i])
        bad_comps.add(structure.component[j])
    s1, s2 = [], []
    for c in structure.ccs:
        (s2 if structure.component[c.cc_id] in bad_comps else s1).append(c.cc_id)
    return s1, s2


@dataclass
class Alg2Result:
    allocations: list[Alloc]
    shortfall: dict[int, int] = field(default_factory=dict)  # cc_id → missing


def alg2_allocate(
    structure: HasseStructure,
    s1_ids: list[int],
    cov: Coverage,
    avail: dict[int, int],
) -> Alg2Result:
    """Algorithm 2 at bin-count level. Mutates ``avail`` in place.

    For each diagram (bottom-up): children first; then the maximal element
    takes ``k_m − Σ_children k_c`` tuples satisfying ``σ_m ∧ ⋀ ¬σ_c`` (paper
    line 12). The negation spans R1 *and* R2 attributes, so the bins the
    parent covers (its ``cov`` mask row) fall into two tiers: bins outside
    every child's R1 condition, always usable, then bins inside some child's
    R1 condition that still have a combo the parent covers and none of those
    children does (e.g. an Area-only parent drawing tuples with a tenure
    other than its Tenure-Area child's). Each draw may take any combo the
    parent covers; ``hybrid.resolve_partials`` then picks the one adding
    the fewest spurious contributions.
    """
    by_id = {c.cc_id: c for c in structure.ccs}
    s1 = set(s1_ids)
    res = Alg2Result(allocations=[])
    visited: set[int] = set()

    def visit(cc_id: int) -> None:
        if cc_id in visited:  # DAG guard: a node reachable via two parents
            return
        visited.add(cc_id)
        cc = by_id[cc_id]
        kids = sorted(k for k in structure.children[cc_id] if k in s1)
        for k in kids:
            visit(k)
        extra = cc.target - sum(by_id[k].target for k in kids)
        if extra < 0:  # overconstrained input; cap (recorded as error later)
            extra = 0
        i, ks = cov.row[cc_id], cov.rows(kids)
        under_kid = cov.bins[ks].any(axis=0)
        # per bin: the combos some child whose R1 condition holds there covers
        blocked = cov.cells(ks) > 0
        free = (cov.combos[i] & ~blocked).any(axis=1)
        tier1 = np.flatnonzero(cov.bins[i] & ~under_kid)
        tier2 = np.flatnonzero(cov.bins[i] & under_kid & free)
        combo_ids = np.flatnonzero(cov.combos[i])
        need = extra
        for b in [*tier1.tolist(), *tier2.tolist()]:
            if need == 0:
                break
            if avail.get(b, 0) <= 0:
                continue
            take = min(avail[b], need)
            avail[b] -= take
            need -= take
            res.allocations.append(Alloc(b, combo_ids, take, cc_id))
        if need > 0:
            res.shortfall[cc_id] = need

    comps_seen = set()
    for cc in structure.ccs:
        if cc.cc_id not in s1:
            continue
        comp = structure.component[cc.cc_id]
        if comp in comps_seen:
            continue
        comps_seen.add(comp)
        for root in sorted(structure.roots(comp)):
            if root in s1:
                visit(root)
    return res
