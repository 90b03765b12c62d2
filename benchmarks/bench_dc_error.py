"""§6.1's DC error without Spark: ``metrics.dc_violating`` (the NumPy DC
evaluator behind ``metrics.dc_error``) against the DuckDB union of every
DC's own SQL self-join (``DC.to_sql_violators``), under ``S_DC_all``.

The frames are the 160× Census ground truth at the experiments' shrink,
whose households violate no DC, and the same frame with its FKs permuted by
a seeded RNG, which puts most tuples in some violation. Both paths must find
the same violators; their count, the DC error and the median time go to
``results/dc_error.csv``.
Run with ``pytest benchmarks/bench_dc_error.py --benchmark-only``.
"""
import functools

import numpy as np
import pytest

from benchmarks._util import record
from repro import workloads
from repro.core import metrics
from repro.experiments import SEED, SHRINK, census_db
from repro.oracle import dc_violators

SCALE = 160
FKS = ("truth", "permuted")
IMPLS = {
    "numpy": lambda pdf, dcs: pdf["p_id"][metrics.dc_violating(pdf, dcs, "h_id")].tolist(),
    "duckdb": dc_violators,
}
ROUNDS = {"numpy": 5, "duckdb": 3}
_VIOLATORS: dict[str, dict] = {}


@functools.cache
def _frame(fks: str):
    pdf = census_db(SCALE, 2, SHRINK).persons.sort_values("p_id").reset_index(drop=True)
    if fks == "permuted":
        rng = np.random.default_rng(SEED)
        pdf = pdf.assign(h_id=rng.permutation(pdf["h_id"].to_numpy()))
    return pdf


@pytest.mark.parametrize(
    "fks,impl", [(f, i) for f in FKS for i in IMPLS], ids=lambda v: str(v)
)
def test_dc_error_160x(benchmark, fks, impl):
    pdf, dcs = _frame(fks), workloads.dcs_all()
    got = benchmark.pedantic(
        lambda: IMPLS[impl](pdf, dcs), rounds=ROUNDS[impl], iterations=1
    )
    _VIOLATORS.setdefault(fks, {})[impl] = got
    if len(_VIOLATORS[fks]) == len(IMPLS):
        assert _VIOLATORS[fks]["numpy"] == _VIOLATORS[fks]["duckdb"]
    if fks == "truth":
        assert got == []
    record(
        "dc_error",
        {
            "impl": impl,
            "fks": fks,
            "scale": SCALE,
            "persons": len(pdf),
            "violators": len(got),
            "dc_error": round(len(got) / len(pdf), 6),
            "median_s": round(benchmark.stats.stats.median, 3),
        },
        benchmark,
    )
