"""Tests for conflict-edge enumeration, cross-checked with brute force."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro import census, workloads
from repro.core.conflict import enumerate_edges
from repro.core.constraints import Comp, Cond, DC, OutsideComp, pairwise_dc
from tests.coloring_oracle import edge_set


def pairwise_edges(pdf, dc):
    return edge_set(enumerate_edges(pdf, [dc]))


def _brute_pairs(pdf, dc):
    out = set()
    for i, j in itertools.permutations(range(len(pdf)), 2):
        ti, tj = pdf.iloc[i], pdf.iloc[j]
        if not dc.preds[0].matches_row(ti) or not dc.preds[1].matches_row(tj):
            continue
        ok = True
        for comp in dc.comps:
            vi = ti[comp.col_i] if comp.i == 0 else tj[comp.col_i]
            vj = ti[comp.col_j] if comp.j == 0 else tj[comp.col_j]
            if not bool(comp.apply(np.array(vi), np.array(vj))):
                ok = False
                break
        if ok:
            out.add(tuple(sorted((i, j))))
    return out


@pytest.fixture(scope="module")
def household_pdf():
    g = np.random.default_rng(0)
    roles = [census.OWNER, census.SPOUSE, census.BIO_CHILD, census.GRANDCHILD,
             census.PARENT, census.SIBLING]
    return pd.DataFrame(
        {
            "p_id": range(30),
            "Age": g.integers(0, 115, 30),
            "Rel": g.choice(roles, 30),
            "Multi_ling": g.integers(0, 2, 30),
        }
    )


@pytest.mark.parametrize("dc_idx", range(12))
def test_each_table4_dc_matches_bruteforce(household_pdf, dc_idx):
    dc = workloads.dcs_all()[dc_idx]
    got = pairwise_edges(household_pdf, dc)
    assert got == _brute_pairs(household_pdf, dc)


@pytest.mark.parametrize("seed", range(5))
def test_random_pairwise_dcs_match_bruteforce(seed):
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "p_id": range(20),
            "Age": g.integers(0, 50, 20),
            "Rel": g.choice(["A", "B"], 20),
            "Multi_ling": g.integers(0, 2, 20),
        }
    )
    dc = pairwise_dc(
        "rnd",
        Cond.of(Rel="A"),
        Cond.of(Rel="B"),
        [("Age", ">", "Age", int(g.integers(-10, 10)))],
    )
    assert pairwise_edges(pdf, dc) == _brute_pairs(pdf, dc)


def test_same_pred_dc_no_self_pairs():
    pdf = pd.DataFrame({"p_id": [1, 2], "Rel": ["O", "O"], "Age": [1, 2],
                        "Multi_ling": [0, 0]})
    dc = pairwise_dc("oo", Cond.of(Rel="O"), Cond.of(Rel="O"))
    assert pairwise_edges(pdf, dc) == {(0, 1)}


def test_empty_pred_matches_gives_no_edges():
    pdf = pd.DataFrame({"p_id": [1], "Rel": ["X"], "Age": [1], "Multi_ling": [0]})
    dc = pairwise_dc("oo", Cond.of(Rel="O"), Cond.of(Rel="O"))
    assert pairwise_edges(pdf, dc) == set()


def test_three_ary_dc_enumeration():
    """The NAE gadget's clause DC: any 3 same-Cls tuples form a hyperedge."""
    pdf = pd.DataFrame(
        {"p_id": range(5), "Var": list("abcde"), "Alpha": [0, 1, 0, 1, 0],
         "Cls": ["C0", "C0", "C0", "C0", "C1"]}
    )
    dc = DC(
        "nae",
        (Cond.of(), Cond.of(), Cond.of()),
        (Comp(0, "Cls", "=", 1, "Cls"), Comp(1, "Cls", "=", 2, "Cls")),
    )
    edges = enumerate_edges(pdf, [dc])
    assert edge_set(edges) == {
        tuple(sorted(t)) for t in itertools.combinations(range(4), 3)
    }
    assert len(edges) == 4


def test_enumerate_edges_dedupes_across_dcs():
    pdf = pd.DataFrame({"p_id": [1, 2], "Rel": ["O", "O"], "Age": [10, 20],
                        "Multi_ling": [0, 0]})
    dc1 = pairwise_dc("a", Cond.of(Rel="O"), Cond.of(Rel="O"))
    dc2 = pairwise_dc("b", Cond.of(), Cond.of())
    edges = enumerate_edges(pdf, [dc1, dc2])
    assert edge_set(edges) == {(0, 1)}
    assert len(edges) == 1


def test_outside_comp_edges():
    pdf = pd.DataFrame(
        {
            "p_id": [1, 2, 3],
            "Rel": ["Owner", "Spouse", "Spouse"],
            "Age": [60, 9, 60],
            "Multi_ling": [0, 0, 0],
        }
    )
    dc = DC(
        "sp",
        (Cond.of(Rel="Owner"), Cond.of(Rel="Spouse")),
        (OutsideComp(1, "Age", 0, "Age", -50, 50),),
    )
    # spouse aged 9 is outside [10, 110] → edge with owner; spouse 60 is not
    assert pairwise_edges(pdf, dc) == {(0, 1)}
