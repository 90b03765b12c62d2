"""End-to-end ``c_extension`` wall time on a fixed grid, written to
``BENCH_pipeline.json`` at the root of the checkout.

Usage (from the root of a checkout):

    python benchmarks/bench_pipeline.py --label NAME [--src DIR]

The grid is the experiments' ``SHRINK`` and ``SEED`` with ``S_DC_all`` and
``N_CC`` CCs: the hybrid on good CCs at 10×, 40× and 160×, the hybrid on bad
CCs at 10×, and baseline+marginals on good CCs at 10× (the cell that runs the
full ILP). Each cell runs one untimed warm-up solve, then ``REPEATS`` timed
solves; its row holds the median of each of ``res.timings``' ``read``,
``phase1_total``, ``fill``, ``coloring`` and ``total`` (the first four split
the last), with the core count and the RAM.

``--src`` imports ``repro`` from another source tree (default: this
checkout's ``src``), so row sets of two versions can be measured with the
same script, as long as neither starts a Python worker: only the driver
imports it. A split key the other tree's timings lack is left out of its
rows. A run replaces the file's rows that carry its ``--label`` and
keeps the others. The Spark session has the test session's settings
(``conftest.py``): 64 shuffle partitions, Arrow on, automatic broadcast joins
off. The script holds no pytest test, so ``pytest benchmarks/`` skips it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_pipeline.json"
REPEATS = 3
SPLIT = ("read", "phase1_total", "fill", "coloring", "total")
#: (method, CC flavor, scale)
CELLS = [
    ("hybrid", "good", 10),
    ("hybrid", "good", 40),
    ("hybrid", "good", 160),
    ("hybrid", "bad", 10),
    ("baseline_marginals", "good", 10),
]
ABOUT = (
    "c_extension wall time per cell: median of the timed warm solves after "
    "one warm-up solve, split by res.timings (seconds). Written by "
    "benchmarks/bench_pipeline.py; one row set per --label."
)


def start_spark():
    """A local session with the test session's settings."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '4g')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("bench_pipeline")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def mem_total_gb() -> float:
    with open("/proc/meminfo") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return round(kb / (1 << 20), 1)


def time_cell(spark, method: str, ccs_flavor: str, scale: int) -> dict:
    """One row: a warm-up solve, then ``REPEATS`` timed ones."""
    from repro import experiments as ex
    from repro.core.pipeline import c_extension

    db = ex.census_db(scale, 2, ex.SHRINK)
    ccs, dcs = ex.make_ccs(db, ccs_flavor), ex.make_dcs("all")
    runs = []
    for _ in range(1 + REPEATS):
        res = c_extension(
            spark, db.spark_r1(spark), db.spark_r2(spark), ccs, dcs,
            method=method, seed=ex.SEED,
        )
        runs.append(res.timings)
    timed = runs[1:]
    row = {
        "cell": f"{method}-{ccs_flavor}-{scale}x",
        "method": method,
        "ccs": ccs_flavor,
        "dcs": "all",
        "scale": scale,
        "n_persons": len(db.persons),
        "shrink": ex.SHRINK,
        "seed": ex.SEED,
        "runs": len(timed),
    }
    for k in SPLIT:
        if k in timed[0]:
            row[f"{k}_s"] = round(statistics.median(t[k] for t in timed), 3)
    row["total_s_runs"] = [round(t["total"], 3) for t in timed]
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names this row set")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree to import repro from")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    spark = start_spark()
    try:
        env = {"cores": spark.sparkContext.defaultParallelism, "mem_gb": mem_total_gb()}
        rows = []
        for cell in CELLS:
            row = {"label": args.label, **time_cell(spark, *cell), **env}
            print(json.dumps(row), flush=True)
            rows.append(row)
    finally:
        spark.stop()
    old = json.loads(OUT.read_text())["rows"] if OUT.exists() else []
    kept = [r for r in old if r["label"] != args.label]
    OUT.write_text(json.dumps({"about": ABOUT, "rows": kept + rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
