"""The paper's evaluation tables (§6: Figs 8a/8b/10/11b/12/13), one benchmark
per cell of ``repro.experiments.TABLES``.

Each cell runs ``run_table`` narrowed to that cell, so its row is the one the
job prints; rows accumulate into ``results/<table>.csv``. The paper's
guarantees must hold while timing: every hybrid cell has DC error 0
(Prop 5.5) and median CC error 0 (Prop 4.7; median on intersecting sets),
and on non-intersecting (good) CC sets the ILP never runs. One untimed
solve runs before the first cell, so no cell's time includes the session's
warm-up (the JVM's first query plans and code generation).
"""
import pytest

from benchmarks._util import record
from repro.experiments import SHRINK, TABLES, census_db, run_table

CELLS = [(name, cell) for name, table in TABLES.items() for cell in table.cells()]


@pytest.fixture(scope="module")
def warm_spark(spark):
    """The session's Spark after one untimed 1× hybrid solve."""
    run_table(spark, "fig8a", method=("hybrid",), scale=(1,))
    return spark


def _id(name: str, cell: dict) -> str:
    return "-".join([name, *(str(cell[k]) for k in TABLES[name].axes)])


@pytest.mark.parametrize("name,cell", CELLS, ids=[_id(*c) for c in CELLS])
def test_table_cell(benchmark, warm_spark, name, cell):
    census_db(cell["scale"], cell["n_r2_cols"], SHRINK)  # generated untimed
    only = {k: (cell[k],) for k in TABLES[name].axes}
    df = benchmark.pedantic(
        lambda: run_table(warm_spark, name, **only), rounds=1, iterations=1
    )
    (out,) = df.to_dict("records")
    record(name, out, benchmark)
    if cell["method"] == "hybrid":
        assert out["dc_error"] == 0.0
        assert out["cc_median"] == 0.0
        if cell["ccs"] == "good":
            assert out["ilp_s"] == 0.0
