"""Print one of the paper's evaluation tables, run at the experiments' scale.

Usage: python jobs/run_table.py TABLE [max_scale]

TABLE is table1 or a name in ``repro.experiments.TABLES``: fig8a, fig8b,
fig10, fig11b, fig12, fig13. For a table that sweeps the data scale,
max_scale extends the sweep with the paper's Table 1 scales up to it (fig8a
to 40, fig11b to 160). The script prints the table; ``results/*.csv`` are
written by ``benchmarks/bench_tables.py``.
"""
import sys

from _session import get_spark

from repro.experiments import PAPER_TABLE1, TABLES, format_table, run_table, run_table1

if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else ""
    if name == "table1":
        print(format_table(run_table1(), "Table 1: data scales (ours vs paper)"))
        sys.exit()
    if name not in TABLES:
        sys.exit(__doc__)
    override = {}
    if len(sys.argv) > 2:
        grid = TABLES[name].axes.get("scale")
        if grid is None:
            sys.exit(f"{name} does not sweep the data scale")
        top = float(sys.argv[2])
        scales = sorted({*grid, *PAPER_TABLE1["scale"].tolist()})
        override["scale"] = tuple(s for s in scales if min(grid) <= s <= top)

    spark = get_spark(name)
    print(format_table(run_table(spark, name, **override), TABLES[name].title))
    spark.stop()
