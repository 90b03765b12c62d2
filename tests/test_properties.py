"""Property-based tests (hypothesis) for the algorithmic substrates."""
import numpy as np
import pandas as pd
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import census, workloads
from repro.core import metrics
from repro.core.binning import Coverage
from repro.core.coloring import color_with_extension, coloring_lf
from repro.core.conflict import ConflictGraph, enumerate_edges
from repro.core.constraints import (
    CC,
    CONTAINED,
    CONTAINS,
    DISJOINT,
    EQUAL,
    DC,
    Comp,
    Cond,
    OutsideComp,
    cc_relationship,
    pairwise_dc,
)
from repro.ilp import solve_ilp
from repro.ilp.simplex import solve_lp
from repro.oracle import dc_violators
from tests import coloring_oracle as oracle
from tests import simplex_oracle
from tests.conftest import build_phase1_inputs
from tests.scorer_oracle import Scorer

# --------------------------------------------------------------------- Cond
interval = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
    lambda t: (min(t), max(t))
)
cat = st.sets(st.sampled_from(["A", "B", "C"]), min_size=1)


@st.composite
def conds(draw):
    kw = {}
    if draw(st.booleans()):
        kw["Age"] = draw(interval)
    if draw(st.booleans()):
        kw["Rel"] = draw(cat)
    return Cond.of(**kw)


@given(conds(), conds())
@settings(max_examples=80, deadline=None)
def test_disjointness_symmetric(a, b):
    assert a.disjoint_with(b) == b.disjoint_with(a)


@given(conds(), conds(), conds())
@settings(max_examples=80, deadline=None)
def test_containment_transitive(a, b, c):
    if a.contains(b) and b.contains(c):
        assert a.contains(c)


@given(conds(), conds())
@settings(max_examples=80, deadline=None)
def test_containment_and_disjointness_exclusive_on_nonempty(a, b):
    """If a contains b and b is satisfiable, they cannot be disjoint."""
    if a.contains(b) and not b.is_empty():
        assert not a.disjoint_with(b)


@given(conds(), conds())
@settings(max_examples=60, deadline=None)
def test_containment_agrees_with_evaluation(a, b):
    """contains() must agree with row-level evaluation on a grid."""
    rows = pd.DataFrame(
        [(age, rel) for age in range(0, 41, 5) for rel in ["A", "B", "C"]],
        columns=["Age", "Rel"],
    )
    ma, mb = a.mask(rows), b.mask(rows)
    if a.contains(b):
        assert not (mb & ~ma).any()


@given(conds(), conds())
@settings(max_examples=60, deadline=None)
def test_cc_relationship_total_and_antisymmetric(a, b):
    cc1 = CC(0, a, Cond.of(Area="C"), 0)
    cc2 = CC(1, b, Cond.of(Area="C"), 0)
    r12 = cc_relationship(cc1, cc2)
    r21 = cc_relationship(cc2, cc1)
    flip = {CONTAINS: CONTAINED, CONTAINED: CONTAINS}
    assert r21 == flip.get(r12, r12)


# ----------------------------------------------------------------- coloring
@given(
    st.integers(2, 10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_coloring_extension_always_proper(n, raw_edges, n_colors):
    edges = [tuple(sorted(e)) for e in raw_edges if e[0] != e[1] and max(e) < n]
    graph = ConflictGraph.from_edges(n, edges)
    c, fresh = color_with_extension(graph, list(range(n_colors)), fresh_start=100)
    assert set(c) == set(range(n))
    for e in edges:
        assert len({c[v] for v in e}) >= 2


@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=15),
)
@settings(max_examples=60, deadline=None)
def test_coloring_lf_never_miscolors(n, raw_edges):
    edges = [tuple(sorted(e)) for e in raw_edges if e[0] != e[1] and max(e) < n]
    c, skipped = coloring_lf(ConflictGraph.from_edges(n, edges), {}, list(range(3)))
    for e in edges:
        if all(v in c for v in e):
            assert len({c[v] for v in e}) >= 2


# ----------------------------------------------------------------- conflict
@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pairwise_edges_random_instances(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 15))
    pdf = pd.DataFrame(
        {
            "p_id": range(n),
            "Age": g.integers(0, 30, n),
            "Rel": g.choice(["A", "B"], n),
            "Multi_ling": g.integers(0, 2, n),
        }
    )
    dc = pairwise_dc("d", Cond.of(Rel="A"), Cond.of(), [("Age", "<", "Age", 0)])
    got = oracle.edge_set(enumerate_edges(pdf, [dc]))
    # brute force
    expected = set()
    for i in range(n):
        for j in range(n):
            if i == j or pdf.Rel[i] != "A":
                continue
            if pdf.Age[i] < pdf.Age[j]:
                expected.add(tuple(sorted((i, j))))
    assert got == expected


# ------------------------------------------- dense coloring vs the oracle
@st.composite
def frames(draw, max_n: int):
    n = draw(st.integers(0, max_n))
    col = lambda values: draw(st.lists(values, min_size=n, max_size=n))
    return pd.DataFrame(
        {
            "p_id": range(n),
            "Age": col(st.integers(0, 30)),
            "Rel": col(st.sampled_from(["A", "B", "C"])),
            "Cls": col(st.sampled_from(["C0", "C1"])),
        }
    )


@st.composite
def comps(draw, arity: int):
    i, j = draw(st.integers(0, arity - 1)), draw(st.integers(0, arity - 1))
    kind = draw(st.sampled_from(["age", "outside", "rel", "cls"]))
    if kind == "age":
        op = draw(st.sampled_from(["<", ">", "<=", ">=", "=", "!="]))
        return Comp(i, "Age", op, j, "Age", draw(st.integers(-10, 10)))
    if kind == "outside":
        lo = draw(st.integers(-20, 10))
        return OutsideComp(i, "Age", j, "Age", lo, lo + draw(st.integers(0, 20)))
    col = "Rel" if kind == "rel" else "Cls"
    return Comp(i, col, draw(st.sampled_from(["=", "!="])), j, col)


@st.composite
def dcs(draw, arity: int):
    preds = st.one_of(
        st.just(Cond.of()),
        cat.map(lambda r: Cond.of(Rel=r)),
        st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
            lambda t: Cond.of(Age=(min(t), max(t)))
        ),
    )
    return DC(
        f"dc{arity}",
        tuple(draw(preds) for _ in range(arity)),
        tuple(draw(st.lists(comps(arity), max_size=2))),
    )


pairwise_instances = st.tuples(frames(14), st.lists(dcs(2), min_size=1, max_size=4))
mixed_instances = st.tuples(
    frames(8),
    st.tuples(st.lists(dcs(2), max_size=2), dcs(3)).map(lambda t: [*t[0], t[1]]),
)
candidate_colors = st.lists(st.integers(0, 12), max_size=6)


@given(st.one_of(pairwise_instances, mixed_instances), candidate_colors)
@settings(max_examples=150, deadline=None)
def test_dense_coloring_equals_oracle(instance, colors):
    """Same edge count and the very same coloring, fresh colors included,
    as Algorithm 3 over the brute-force edge list."""
    pdf, dc_list = instance
    graph = enumerate_edges(pdf, dc_list)
    edges = oracle.brute_edges(pdf, dc_list)
    assert len(graph) == len(edges)
    assert oracle.edge_set(graph) == set(edges)
    assert color_with_extension(graph, colors, 100) == oracle.color_with_extension(
        len(pdf), edges, colors, 100
    )


@given(
    st.one_of(pairwise_instances, mixed_instances),
    candidate_colors,
    st.dictionaries(st.integers(0, 13), st.integers(0, 15), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_dense_coloring_lf_equals_oracle_with_precolored(instance, colors, pre):
    """Pre-colored vertices (colors in L or not) and too few colors: the
    same coloring and the same skipped vertices, in the same order."""
    pdf, dc_list = instance
    pre = {v: col for v, col in pre.items() if v < len(pdf)}
    graph = enumerate_edges(pdf, dc_list)
    edges = oracle.brute_edges(pdf, dc_list)
    assert coloring_lf(graph, dict(pre), colors) == oracle.coloring_lf(
        len(pdf), edges, dict(pre), colors
    )


# ------------------------------------------------- DC error vs DuckDB SQL
@st.composite
def households(draw):
    """``frames(14)`` with a nullable FK: households 0..3 or null."""
    pdf = draw(frames(14))
    fk = st.one_of(st.none(), st.integers(0, 3))
    fks = draw(st.lists(fk, min_size=len(pdf), max_size=len(pdf)))
    return pdf.assign(h_id=pd.array(fks, dtype="Int64"))


@given(households(), st.lists(st.one_of(dcs(2), dcs(3)), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_dc_violating_equals_duckdb_union(pdf, dc_list):
    """The tuples in some violation among same-FK tuples are exactly the
    DuckDB union of every DC's own SQL self-join; a null FK matches none."""
    mask = metrics.dc_violating(pdf, dc_list, "h_id")
    assert pdf["p_id"][mask].tolist() == dc_violators(pdf, dc_list)


# ---------------------------------------------------------------------- ILP
@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_ilp_zero_slack_on_consistent_systems(seed):
    g = np.random.default_rng(seed)
    m, n = int(g.integers(2, 6)), int(g.integers(4, 9))
    A0 = (g.random((m, n)) < 0.5).astype(float)
    b = A0 @ g.integers(0, 5, n)
    A = np.hstack([A0, np.eye(m), -np.eye(m)])
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    res = solve_ilp(A, b.astype(float), c, node_limit=150)
    assert res.integral
    assert abs(res.objective) < 1e-6


# ------------------------------------- row-sparse simplex vs the dense oracle
@st.composite
def lp_systems(draw):
    """Random ``(A, b, c)``: signed systems (negative ``b``), degenerate 0/1
    Algorithm-1 systems with ``s+``/``s-`` slack columns, each optionally with
    a duplicate or summed row, negated rows, columns scaled down to 1e-4,
    and made infeasible (a contradicting row) or unbounded (a column pair
    ``a``, ``-a`` whose sum lowers the cost)."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    if draw(st.booleans()):  # Algorithm-1 shape
        A0 = (g.random((m, n)) < 0.4).astype(float)
        b = A0 @ g.integers(0, 4, n) + g.integers(0, 2, m) * draw(st.integers(0, 2))
        A = np.hstack([A0, np.eye(m), -np.eye(m)])
        c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    else:
        A = g.integers(-3, 4, (m, n)).astype(float)
        b = A @ g.integers(0, 4, n)
        c = g.integers(-2, 5, n).astype(float)
    b = b.astype(float)
    extra = draw(st.sampled_from(["none", "duplicate", "sum"]))
    if extra != "none":
        i, j = g.integers(0, m, 2)
        row, rhs = (A[i], b[i]) if extra == "duplicate" else (A[i] + A[j], b[i] + b[j])
        A, b = np.vstack([A, row]), np.append(b, rhs)
    flip = g.random(len(b)) < draw(st.sampled_from([0.0, 0.5]))
    A[flip] *= -1.0
    b[flip] *= -1.0
    if draw(st.booleans()):
        A[:, g.random(A.shape[1]) < 0.3] *= 10.0 ** -g.integers(1, 5)
    fault = draw(st.sampled_from(["none", "infeasible", "unbounded"]))
    if fault == "infeasible":
        A, b = np.vstack([A, A[0]]), np.append(b, b[0] + 1.0)
    elif fault == "unbounded":
        a = g.integers(-2, 3, (len(b), 1)).astype(float)
        A, c = np.hstack([A, a, -a]), np.append(c, [-1.0, 0.0])
    return A, b, c


@given(lp_systems())
@settings(max_examples=300, deadline=None)
def test_simplex_equals_dense_oracle(lp):
    """The row-sparse pivot takes the very same pivots as the dense one:
    same status, the same ``x`` bit for bit and the same objective; the
    inputs are left untouched."""
    A, b, c = lp
    A0, b0 = A.copy(), b.copy()
    got, want = solve_lp(A, b, c), simplex_oracle.solve_lp(A, b, c)
    assert np.array_equal(A, A0) and np.array_equal(b, b0)
    assert got.status == want.status
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert np.array_equal(got.x, want.x)
        assert got.objective == want.objective


@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
@settings(max_examples=80, deadline=None)
def test_branch_and_bound_equals_dense_oracle(seed, offset):
    """Systems whose LP root is fractional, so branch-and-bound adds bound
    rows: the same nodes, incumbent and objective as branch-and-bound over
    the dense oracle LP."""
    g = np.random.default_rng(seed)
    m, n = int(g.integers(1, 5)), int(g.integers(2, 7))
    A = g.integers(1, 5, (m, n)).astype(float)
    b = A @ g.integers(0, 4, n) + offset
    c = g.integers(1, 6, n).astype(float)
    root = simplex_oracle.solve_lp(A, b, c)
    assume(root.x is not None and (np.abs(root.x - np.round(root.x)) > 1e-6).any())
    got = solve_ilp(A, b, c, node_limit=40)
    want = simplex_oracle.solve_ilp(A, b, c, node_limit=40)
    assert (got.status, got.objective, got.integral, got.nodes) == (
        want.status, want.objective, want.integral, want.nodes
    )
    assert got.nodes > 1
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert np.array_equal(got.x, want.x)


# ---------------------------------------------------------- CC coverage
@st.composite
def multi_value_ccs(draw, first_id: int):
    """CCs whose R2 condition names several areas and maybe several tenures."""
    out = []
    for i in range(draw(st.integers(0, 4))):
        r1 = {"Age": draw(st.tuples(st.integers(0, 99), st.integers(0, 40)).map(
            lambda t: (t[0], t[0] + t[1])
        ))}
        if draw(st.booleans()):
            r1["Rel"] = draw(st.sets(st.sampled_from(census.ROLES[:5]), min_size=1))
        r2 = {"Area": draw(st.sets(st.sampled_from(census.AREAS), min_size=2))}
        if draw(st.booleans()):
            r2["Tenure"] = draw(st.sets(st.sampled_from(census.TENURES), min_size=1))
        out.append(CC(first_id + i, Cond.of(**r1), Cond.of(**r2), 0))
    return out


@given(
    st.sampled_from([workloads.make_cc_good, workloads.make_cc_bad]),
    st.integers(0, 10_000),
    st.integers(1, 40),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_coverage_score_equals_oracle(db, make_ccs, seed, n_cc, data):
    """Every (bin, combo) cell's spurious-contribution score from the
    coverage matrix equals the set-based scorer's, for random allowed sets."""
    ccs = make_ccs(db, n_cc=n_cc, seed=seed)
    ccs += data.draw(multi_value_ccs(len(ccs)))
    binning, combos = build_phase1_inputs(db, ccs)
    cov = Coverage.build(ccs, binning, combos)
    scorer = Scorer(ccs, binning, combos)
    ids = [cc.cc_id for cc in ccs]
    for _ in range(3):
        allowed = data.draw(st.sets(st.sampled_from(ids)))
        for b in binning.bins["bin_id"].tolist():
            want = [scorer.score(b, c, allowed) for c in range(len(combos))]
            assert cov.score(b, allowed).tolist() == want
