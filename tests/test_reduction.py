"""Tests for the NAE-3SAT → C-Extension gadget (Proposition 2.8)."""
import pytest

from repro.core import metrics, reduction
from repro.core.pipeline import c_extension

SAT_FORMULAS = [
    [(1, 2, 3)],
    [(1, 2, 3), (-1, -2, -3)],
    [(1, 2, 3), (1, -2, 3), (-1, 2, -3)],
]
UNSAT_FORMULAS = [
    # NAE-unsat: x alone both polarities in every combination
    [(1, 1, 1)],
    [(1, 2, 3), (-1, 2, 3), (1, -2, 3), (1, 2, -3)],
    [(1, 1, 2), (1, 1, -2), (-1, -1, 2), (-1, -1, -2)],
]


def test_instance_shape():
    inst = reduction.build_instance([(1, -2, 3)])
    assert len(inst.r1) == 3
    assert list(inst.r2["Chosen"]) == [0, 1]
    assert inst.dcs[0].arity == 2 and inst.dcs[1].arity == 3


def test_instance_alpha_encoding():
    inst = reduction.build_instance([(1, -2, 3)])
    row = inst.r1[inst.r1["Var"] == "x2"].iloc[0]
    assert row["Alpha"] == 0  # ¬x2 satisfied by x2=False


@pytest.mark.parametrize("clauses", SAT_FORMULAS)
def test_bruteforce_oracle_sat(clauses):
    assert reduction.nae_satisfiable(clauses)


@pytest.mark.parametrize("clauses", UNSAT_FORMULAS)
def test_bruteforce_oracle_unsat(clauses):
    assert not reduction.nae_satisfiable(clauses)


def test_decode_assignment_consistency():
    import pandas as pd

    r1_hat = pd.DataFrame(
        {"Var": ["x1", "x1"], "Alpha": [1, 0], "Cls": ["C0", "C1"], "Chosen": [1, 0]}
    )
    alpha = reduction.decode_assignment(r1_hat)
    assert alpha == {"x1": True}


def test_decode_detects_inconsistency():
    import pandas as pd

    r1_hat = pd.DataFrame(
        {"Var": ["x1", "x1"], "Alpha": [1, 0], "Cls": ["C0", "C1"], "Chosen": [1, 1]}
    )
    assert reduction.decode_assignment(r1_hat) is None


@pytest.mark.parametrize("clauses", SAT_FORMULAS)
def test_pipeline_solves_gadget_dcs(spark, clauses):
    """The pipeline (no CCs, 2-/3-ary DCs) must satisfy both gadget DCs."""
    inst = reduction.build_instance(clauses)
    r1 = spark.createDataFrame(inst.r1)
    r2 = spark.createDataFrame(inst.r2)
    res = c_extension(
        spark, r1, r2, [], inst.dcs, method="hybrid", seed=0,
        r2_key="Chosen", fk="Chosen",
    )
    assert metrics.dc_error(res.r1_hat, inst.dcs, fk="Chosen") == 0.0


@pytest.mark.parametrize("clauses", SAT_FORMULAS)
def test_solution_without_fresh_keys_decodes_to_nae_assignment(spark, clauses):
    """If the coloring used only the original keys {0,1}, the completion
    corresponds to a valid NAE assignment (the ⇐ direction of the proof)."""
    inst = reduction.build_instance(clauses)
    res = c_extension(
        spark,
        spark.createDataFrame(inst.r1),
        spark.createDataFrame(inst.r2),
        [],
        inst.dcs,
        method="hybrid",
        seed=0,
        r2_key="Chosen",
        fk="Chosen",
    )
    r1_hat = res.r1_hat.toPandas()
    if set(r1_hat["Chosen"]) <= {0, 1}:
        alpha = reduction.decode_assignment(r1_hat)
        assert alpha is not None
        assert reduction.is_nae_satisfying(clauses, alpha)
