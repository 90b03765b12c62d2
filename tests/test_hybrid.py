"""Unit tests for the hybrid combiner's helper machinery (§4.3)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.binning import Binning, Combos, Coverage
from repro.core.constraints import CC, Cond
from repro.core.hasse import Alloc, build_structure
from repro.core.hybrid import (
    INVALID_COMBO,
    fill_leftovers,
    hybrid_phase1,
    resolve_partials,
)


def _mk(ccs, r1_rows, combo_rows):
    pdf = pd.DataFrame(r1_rows, columns=["Age", "Rel"])
    binning = Binning.build(
        pdf.groupby(["Age", "Rel"]).size().reset_index(name="count"), ccs, ["Age", "Rel"]
    )
    combos = Combos.build(pd.DataFrame(combo_rows), ["Area", "Tenure"])
    return binning, combos


def test_scorer_counts_spurious_contributions():
    ccs = [
        CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 1),
        CC(1, Cond.of(Rel="A"), Cond.of(Area="N"), 1),
    ]
    binning, combos = _mk(
        ccs, [(1, "A")] * 3,
        {"Area": ["C", "N"], "Tenure": ["O", "O"], "count": [1, 1]},
    )
    cov = Coverage.build(ccs, binning, combos)
    b = int(binning.bins["bin_id"].iloc[0])
    c_combo = int(combos.cond_combo_ids(Cond.of(Area="C"))[0])
    assert cov.score(b, set())[c_combo] == 1     # contributes to CC0
    assert cov.score(b, {0})[c_combo] == 0       # allowed


def test_resolve_partials_picks_zero_score_combo():
    ccs = [
        CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 2),
        CC(1, Cond.of(Rel="A"), Cond.of(Area="C", Tenure="O"), 1),
    ]
    binning, combos = _mk(
        ccs, [(1, "A")] * 3,
        {"Area": ["C", "C"], "Tenure": ["O", "R"], "count": [2, 2]},
    )
    structure = build_structure(ccs)
    cov = Coverage.build(ccs, binning, combos)
    b = int(binning.bins["bin_id"].iloc[0])
    # allocation for parent CC0 (Area=C only) must avoid the (C,O) child combo
    rows = resolve_partials(
        [Alloc(bin_id=b, count=1, cc_id=0)],
        cov,
        combos,
        structure,
    )
    (bb, cid, cnt), = rows
    assert combos.table.set_index("combo_id").at[cid, "Tenure"] == "R"


def test_resolve_partials_no_matching_combo_marks_invalid():
    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="Z"), 0)]
    binning, combos = _mk(
        ccs, [(1, "A")],
        {"Area": ["C"], "Tenure": ["O"], "count": [1]},
    )
    cov = Coverage.build(ccs, binning, combos)
    rows = resolve_partials(
        [Alloc(bin_id=0, count=2, cc_id=0)], cov, combos, build_structure(ccs)
    )
    assert rows == [(0, INVALID_COMBO, 2)]


def test_resolve_partials_split_preserves_total():
    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 5)]
    binning, combos = _mk(
        ccs, [(1, "A")] * 9,
        {"Area": ["C", "C", "C"], "Tenure": ["O", "R", "M"], "count": [4, 2, 2]},
    )
    cov = Coverage.build(ccs, binning, combos)
    b = int(binning.bins["bin_id"].iloc[0])
    rows = resolve_partials(
        [Alloc(bin_id=b, count=5, cc_id=0)],
        cov,
        combos,
        build_structure(ccs),
    )
    assert sum(c for _, _, c in rows) == 5
    assert len(rows) > 1  # split across tenures


def test_fill_leftovers_uses_unused_combo():
    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 0)]
    binning, combos = _mk(
        ccs, [(1, "A")] * 4,
        {"Area": ["C", "N"], "Tenure": ["O", "O"], "count": [1, 1]},
    )
    cov = Coverage.build(ccs, binning, combos)
    b = int(binning.bins["bin_id"].iloc[0])
    rows, n_invalid = fill_leftovers(
        {b: 4}, cov, combos, np.random.default_rng(0)
    )
    assert n_invalid == 0
    n_combo = int(combos.cond_combo_ids(Cond.of(Area="N"))[0])
    assert rows == [(b, n_combo, 4)]  # only the N combo is harmless


def test_fill_leftovers_invalid_when_every_combo_contributes():
    ccs = [
        CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 0),
        CC(1, Cond.of(Rel="A"), Cond.of(Area="N"), 0),
    ]
    binning, combos = _mk(
        ccs, [(1, "A")] * 4,
        {"Area": ["C", "N"], "Tenure": ["O", "O"], "count": [1, 1]},
    )
    cov = Coverage.build(ccs, binning, combos)
    b = int(binning.bins["bin_id"].iloc[0])
    rows, n_invalid = fill_leftovers({b: 4}, cov, combos, np.random.default_rng(0))
    assert n_invalid == 4
    assert rows == [(b, INVALID_COMBO, 4)]


def test_hybrid_phase1_total_count_conserved(db, ccs_good):
    from tests.conftest import build_phase1_inputs

    binning, combos = build_phase1_inputs(db, ccs_good)
    res = hybrid_phase1(ccs_good, binning, combos, seed=0)
    assert res.alloc["count"].sum() == len(db.persons)
    assert (res.alloc["count"] > 0).all()


def test_hybrid_phase1_reports_structure(db, ccs_bad):
    from tests.conftest import build_phase1_inputs

    binning, combos = build_phase1_inputs(db, ccs_bad)
    res = hybrid_phase1(ccs_bad, binning, combos, seed=0)
    assert res.structure is not None
    assert set(res.s1_ids) | set(res.s2_ids) == {c.cc_id for c in ccs_bad}
    assert not (set(res.s1_ids) & set(res.s2_ids))


def test_fill_leftovers_keeps_tuples_when_no_combo_has_households():
    """Harmless combos holding no household (empty R2) split the tuples
    evenly instead of dividing by a zero total and dropping them."""
    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 0)]
    binning, combos = _mk(
        ccs, [(1, "B")] * 5,
        {"Area": ["N", "S"], "Tenure": ["O", "O"], "count": [0, 0]},
    )
    cov = Coverage.build(ccs, binning, combos)
    b = int(binning.bins["bin_id"].iloc[0])
    with np.errstate(all="raise"):
        rows, n_invalid = fill_leftovers({b: 5}, cov, combos, np.random.default_rng(0))
    assert n_invalid == 0
    assert sum(cnt for _, _, cnt in rows) == 5
    assert sorted(cnt for _, _, cnt in rows) == [2, 3]
    assert {cid for _, cid, _ in rows} == set(combos.table["combo_id"].tolist())
