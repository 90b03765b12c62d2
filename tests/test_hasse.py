"""Tests for the Hasse structure and Algorithm 2 (Prop 4.7 exactness)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.binning import Binning, Combos, Coverage
from repro.core.constraints import CC, Cond
from repro.core.hasse import alg2_allocate, build_structure, split_s1_s2
from repro.core.hybrid import hybrid_phase1, resolve_partials
from tests.scorer_oracle import Scorer


def _cc(i, r1, r2, k):
    return CC(i, Cond.of(**r1), Cond.of(**r2), k)


def _setup(r1_rows, ccs, attrs=("Age", "Rel"), r2_counts=None):
    pdf = pd.DataFrame(r1_rows, columns=list(attrs))
    binning = Binning.build(
        pdf.groupby(list(attrs)).size().reset_index(name="count"), ccs, list(attrs)
    )
    r2_counts = r2_counts or {("C",): 10, ("N",): 10}
    rows = [{**dict(zip(["Area"], k)), "count": v} for k, v in r2_counts.items()]
    combos = Combos.build(pd.DataFrame(rows), ["Area"])
    return binning, combos


# ----------------------------------------------------------- structure
def test_structure_hasse_edges_transitive_reduced():
    ccs = [
        _cc(0, {"Age": (0, 30)}, {"Area": "C"}, 30),
        _cc(1, {"Age": (0, 20)}, {"Area": "C"}, 20),
        _cc(2, {"Age": (0, 10)}, {"Area": "C"}, 10),
    ]
    s = build_structure(ccs)
    assert s.children[0] == [1]  # 0→2 removed (transitive)
    assert s.children[1] == [2]
    assert s.ancestors(2) == {0, 1}


def test_structure_components():
    ccs = [
        _cc(0, {"Age": (0, 30)}, {"Area": "C"}, 0),
        _cc(1, {"Age": (0, 10)}, {"Area": "C"}, 0),
        _cc(2, {"Age": (50, 60)}, {"Area": "C"}, 0),
    ]
    s = build_structure(ccs)
    assert s.component[0] == s.component[1]
    assert s.component[2] != s.component[0]


def test_split_discards_components_touched_by_intersection():
    ccs = [
        _cc(0, {"Age": (0, 30)}, {"Area": "C"}, 0),
        _cc(1, {"Age": (0, 10)}, {"Area": "C"}, 0),   # contained in 0
        _cc(2, {"Age": (20, 40)}, {"Area": "N"}, 0),  # intersects 0
        _cc(3, {"Age": (50, 60)}, {"Area": "C"}, 0),  # clean singleton
    ]
    s = build_structure(ccs)
    s1, s2 = split_s1_s2(s)
    assert set(s1) == {3}
    assert set(s2) == {0, 1, 2}


def test_example_45_overlapping_ccs_are_intersecting():
    """Example 4.5: [10,50) vs [30,70] on different areas must intersect."""
    ccs = [
        _cc(0, {"Age": (10, 49)}, {"Area": "C"}, 30),
        _cc(1, {"Age": (30, 70)}, {"Area": "N"}, 30),
    ]
    s = build_structure(ccs)
    assert s.intersecting == [(0, 1)]


def test_equal_ccs_do_not_cycle():
    ccs = [
        _cc(0, {"Age": (0, 10)}, {"Area": "C"}, 5),
        _cc(1, {"Age": (0, 10)}, {"Area": "C"}, 5),
    ]
    s = build_structure(ccs)
    assert s.children[0] == [1] and s.children[1] == []


# ----------------------------------------------------------- Algorithm 2
def _achieved(alloc_rows, scorer, cc):
    tot = 0
    for bin_id, combo_id, count in alloc_rows:
        if (
            bin_id in scorer.bin_sets[cc.cc_id]
            and combo_id in scorer.combo_sets[cc.cc_id]
        ):
            tot += count
    return tot


def _run_alg2(r1_rows, ccs, r2_counts=None):
    binning, combos = _setup(r1_rows, ccs, r2_counts=r2_counts)
    s = build_structure(ccs)
    s1, s2 = split_s1_s2(s)
    assert s2 == [], "test expects a non-intersecting CC set"
    avail = binning.avail
    cov = Coverage.build(ccs, binning, combos)
    res = alg2_allocate(s, s1, cov, avail)
    rows = resolve_partials(res.allocations, cov, combos, s)
    return res, rows, Scorer(ccs, binning, combos), avail


def test_alg2_disjoint_base_case_exact():
    rows_r1 = [(a, "A") for a in [1] * 10] + [(a, "B") for a in [5] * 8]
    ccs = [
        _cc(0, {"Rel": "A"}, {"Area": "C"}, 7),
        _cc(1, {"Rel": "B"}, {"Area": "N"}, 6),
    ]
    res, rows, scorer, avail = _run_alg2(rows_r1, ccs)
    assert res.shortfall == {}
    for cc in ccs:
        assert _achieved(rows, scorer, cc) == cc.target


def test_alg2_identical_r1_disjoint_r2_share_bins():
    """Two CCs over the same tuples, different areas — both exactly met."""
    rows_r1 = [(1, "A")] * 10
    ccs = [
        _cc(0, {"Rel": "A"}, {"Area": "C"}, 4),
        _cc(1, {"Rel": "A"}, {"Area": "N"}, 6),
    ]
    res, rows, scorer, _ = _run_alg2(rows_r1, ccs)
    assert res.shortfall == {}
    for cc in ccs:
        assert _achieved(rows, scorer, cc) == cc.target


def test_alg2_containment_chain_exact():
    """Example 4.6 shape: parent count includes the child's tuples."""
    rows_r1 = [(a, "A") for a in [5, 5, 5, 15, 15, 15, 15, 25, 25, 25]]
    ccs = [
        _cc(0, {"Age": (0, 30)}, {"Area": "C"}, 8),
        _cc(1, {"Age": (0, 10)}, {"Area": "C"}, 3),
    ]
    res, rows, scorer, _ = _run_alg2(rows_r1, ccs)
    assert res.shortfall == {}
    assert _achieved(rows, scorer, ccs[1]) == 3
    assert _achieved(rows, scorer, ccs[0]) == 8  # includes the 3 children


def test_alg2_parent_draw_avoids_child_bins():
    """Parent's extra tuples must come from σ_m ∧ ¬σ_c."""
    rows_r1 = [(5, "A")] * 4 + [(15, "A")] * 6
    ccs = [
        _cc(0, {"Age": (0, 20)}, {"Area": "C"}, 7),
        _cc(1, {"Age": (0, 10)}, {"Area": "C"}, 2),
    ]
    res, rows, scorer, _ = _run_alg2(rows_r1, ccs)
    assert res.shortfall == {}
    # child bin (age 5) contributes exactly 2 to area C
    child_contrib = sum(
        c for b, cid, c in rows if b in scorer.bin_sets[1] and cid in scorer.combo_sets[1]
    )
    assert child_contrib == 2


def test_alg2_area_only_parent_with_tenure_child():
    """The §4.3 pattern that forces a *partial* assignment: the parent uses
    Area without Tenure, its child pins Tenure — the parent's extra tuples
    must take a different tenure in the same area."""
    rows_r1 = [(5, "A")] * 10
    ccs = [
        CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 7),
        CC(1, Cond.of(Rel="A"), Cond.of(Area="C", Tenure="O"), 4),
    ]
    pdf = pd.DataFrame(rows_r1, columns=["Age", "Rel"])
    binning = Binning.build(
        pdf.groupby(["Age", "Rel"]).size().reset_index(name="count"), ccs, ["Age", "Rel"]
    )
    combos = Combos.build(
        pd.DataFrame(
            {"Area": ["C", "C", "N"], "Tenure": ["O", "R", "O"], "count": [5, 5, 5]}
        ),
        ["Area", "Tenure"],
    )
    s = build_structure(ccs)
    s1, s2 = split_s1_s2(s)
    assert s2 == []
    avail = binning.avail
    cov = Coverage.build(ccs, binning, combos)
    res = alg2_allocate(s, s1, cov, avail)
    assert res.shortfall == {}
    scorer = Scorer(ccs, binning, combos)
    rows = resolve_partials(res.allocations, cov, combos, s)
    assert _achieved(rows, scorer, ccs[1]) == 4
    assert _achieved(rows, scorer, ccs[0]) == 7  # 4 via child + 3 via (C,R)


def test_alg2_multi_value_parent_over_child_is_exact():
    """Prop 4.7 on a parent whose R2 condition names two areas: its draws
    from the child's bin must take the area the child does not count, so
    the child keeps exactly its 2 tuples."""
    rows_r1 = [(30, "A")] * 4 + [(70, "A")] * 4
    ccs = [
        _cc(0, {"Rel": "A"}, {"Area": {"C", "N"}}, 8),
        _cc(1, {"Rel": "A", "Age": (60, 90)}, {"Area": "C"}, 2),
    ]
    res, rows, scorer, avail = _run_alg2(rows_r1, ccs)
    assert res.shortfall == {}
    for cc in ccs:
        assert _achieved(rows, scorer, cc) == cc.target, str(cc)
    assert sum(avail.values()) == 0


def test_alg2_parent_skips_child_bin_without_a_free_combo():
    """A child bin where every combo the parent covers is also the child's
    is unusable for the parent: it falls short instead of overfilling the
    child."""
    rows_r1 = [(30, "A")] * 2 + [(70, "A")] * 4
    ccs = [
        _cc(0, {"Rel": "A"}, {"Area": "C"}, 5),
        _cc(1, {"Rel": "A", "Age": (60, 90)}, {"Area": "C"}, 2),
    ]
    res, rows, scorer, _ = _run_alg2(rows_r1, ccs)
    assert res.shortfall == {0: 1}
    assert _achieved(rows, scorer, ccs[1]) == 2


def test_alg2_shortfall_reported_when_infeasible():
    rows_r1 = [(5, "A")] * 3
    ccs = [_cc(0, {"Rel": "A"}, {"Area": "C"}, 10)]
    res, rows, scorer, _ = _run_alg2(rows_r1, ccs)
    assert res.shortfall == {0: 7}


def test_alg2_respects_avail_mutation():
    rows_r1 = [(5, "A")] * 10
    ccs = [_cc(0, {"Rel": "A"}, {"Area": "C"}, 4)]
    binning, combos = _setup(rows_r1, ccs)
    s = build_structure(ccs)
    avail = binning.avail
    alg2_allocate(s, [0], Coverage.build(ccs, binning, combos), avail)
    assert sum(avail.values()) == 6  # 10 - 4 left


# ----------------------------------------------------------- hybrid property
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("flavor", ["good", "bad"])
def test_hybrid_allocation_exact_on_consistent_workloads(db, seed, flavor):
    """Prop 4.7 + ILP: on consistent targets the full phase-I allocation
    meets every CC exactly at count level."""
    from repro import workloads
    from tests.conftest import build_phase1_inputs

    mk = workloads.make_cc_good if flavor == "good" else workloads.make_cc_bad
    ccs = mk(db, n_cc=60, seed=seed)
    binning, combos = build_phase1_inputs(db, ccs)
    res = hybrid_phase1(ccs, binning, combos, seed=seed)
    scorer = Scorer(ccs, binning, combos)
    rows = list(res.alloc.itertuples(index=False, name=None))
    for cc in ccs:
        assert _achieved(rows, scorer, cc) == cc.target, str(cc)
    assert res.alloc["count"].sum() == len(db.persons)
