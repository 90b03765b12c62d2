"""Tests for Algorithm 1 (§4.1), including the paper's Example 4.1."""
import numpy as np
import pandas as pd
import pytest

from repro.core.binning import Binning, Combos, Coverage
from repro.core.constraints import CC, Cond
from repro.core.ilp_phase import alg1_allocate
from tests.scorer_oracle import Scorer


def _achieved(allocs, scorer, combos, cc):
    tot = 0
    for a in allocs:
        assert len(a.combo_ids) == 1
        if (
            a.bin_id in scorer.bin_sets[cc.cc_id]
            and int(a.combo_ids[0]) in scorer.combo_sets[cc.cc_id]
        ):
            tot += a.count
    return tot


def _alg1(ccs, binning, combos, avail, **kw):
    return alg1_allocate(ccs, Coverage.build(ccs, binning, combos), avail, **kw)


@pytest.fixture
def example_41(running_example):
    persons, housing, ccs, _ = running_example
    attrs = ["Age", "Rel", "Multi_ling"]
    binning = Binning.build(
        persons.groupby(attrs).size().reset_index(name="count"), ccs, attrs
    )
    combos = Combos.build(
        housing.groupby(["Area"]).size().reset_index(name="count"), ["Area"]
    )
    return binning, combos, ccs


def test_example_41_with_marginals_satisfies_all_ccs(example_41):
    """The paper's worked solution: with all-way marginals the ILP meets all
    four CCs of Figure 2b exactly (x = (2,1,2,2,1,0,0,1) up to symmetry)."""
    binning, combos, ccs = example_41
    avail = binning.avail
    res = _alg1(ccs, binning, combos, avail, marginals="all")
    assert res.integral
    scorer = Scorer(ccs, binning, combos)
    for cc in ccs:
        assert _achieved(res.allocations, scorer, combos, cc) == cc.target
    assert sum(a.count for a in res.allocations) == 9  # all tuples assigned
    assert sum(avail.values()) == 0


def test_example_41_without_marginals_can_err(example_41):
    """Without marginal rows the system is under-determined; the greedy fill
    caps at availability, so some CCs may miss their targets (the baseline's
    failure mode). We only assert the mechanism runs and never over-draws."""
    binning, combos, ccs = example_41
    avail = binning.avail
    res = _alg1(ccs, binning, combos, avail, marginals="none")
    assert all(v >= 0 for v in avail.values())
    assert sum(a.count for a in res.allocations) + sum(avail.values()) == 9


def test_restricted_marginals_only_touch_relevant_bins(example_41):
    binning, combos, ccs = example_41
    # only the Owner CC → bins for Spouse/Child get no marginal row; with
    # restrict_vars their tuples are not assigned at all
    owner_cc = [ccs[0]]
    avail = binning.avail
    res = _alg1(
        owner_cc, binning, combos, avail, marginals="restricted", restrict_vars=True
    )
    scorer = Scorer(owner_cc, binning, combos)
    assert _achieved(res.allocations, scorer, combos, owner_cc[0]) == 4
    touched_bins = {a.bin_id for a in res.allocations}
    assert touched_bins <= set(scorer.bin_sets[0])


def test_empty_cc_list_is_noop(example_41):
    binning, combos, _ = example_41
    avail = binning.avail
    res = _alg1([], binning, combos, avail, marginals="all")
    assert res.allocations == []
    assert sum(avail.values()) == 9


def test_alg1_never_negative_avail(example_41):
    binning, combos, ccs = example_41
    avail = binning.avail
    _alg1(ccs, binning, combos, avail, marginals="none")
    assert min(avail.values()) >= 0


def test_alg1_infeasible_targets_minimize_slack():
    """Targets exceeding the data: solver reports slack, allocation capped."""
    r1 = pd.DataFrame({"Age": [5] * 4, "Rel": ["A"] * 4})
    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 10)]
    binning = Binning.build(
        r1.groupby(["Age", "Rel"]).size().reset_index(name="count"), ccs, ["Age", "Rel"]
    )
    combos = Combos.build(pd.DataFrame({"Area": ["C"], "count": [3]}), ["Area"])
    avail = binning.avail
    res = _alg1(ccs, binning, combos, avail, marginals="all")
    assert res.slack >= 6  # at most 4 tuples exist
    assert sum(a.count for a in res.allocations) <= 4


def test_bottom_variable_never_counts_for_the_last_combo():
    """⊥ variables carry combo -1; a CC over the last combo must not count
    them, or the ILP would meet its target with unassigned tuples."""
    r1 = pd.DataFrame({"Age": [5] * 4, "Rel": ["A"] * 4})
    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="N"), 2)]
    binning = Binning.build(
        r1.groupby(["Age", "Rel"]).size().reset_index(name="count"), ccs, ["Age", "Rel"]
    )
    combos = Combos.build(pd.DataFrame({"Area": ["C", "N"], "count": [3, 3]}), ["Area"])
    avail = binning.avail
    res = _alg1(
        ccs, binning, combos, avail, marginals="restricted", restrict_vars=True
    )
    assert res.n_vars == 2  # (bin, N) and (bin, ⊥)
    assert res.slack == 0
    assert _achieved(res.allocations, Scorer(ccs, binning, combos), combos, ccs[0]) == 2
    assert sum(avail.values()) == 2
