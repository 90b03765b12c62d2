"""Run one end-to-end C-Extension cell and print its summary.

Usage: python jobs/run_pipeline.py [scale] [good|bad] [method]

The cell goes through :func:`repro.experiments.run_cell`, the experiment
path the tables, benchmarks and tests share: it prints that row (CC/DC
errors and stage timings) and how many Spark jobs the cell ran, the solve
and its error metrics (counted through a job group and the status tracker).
"""
import sys

from _session import get_spark

from repro import census, workloads
from repro.experiments import SEED, SHRINK, make_ccs, run_cell

CELL_GROUP = "c_extension"

if __name__ == "__main__":
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    flavor = sys.argv[2] if len(sys.argv) > 2 else "good"
    method = sys.argv[3] if len(sys.argv) > 3 else "hybrid"
    spark = get_spark("pipeline")
    sc = spark.sparkContext
    db = census.generate(scale=scale, shrink=SHRINK, seed=SEED)
    sc.setJobGroup(CELL_GROUP, "one C-Extension cell")
    row = run_cell(spark, db, make_ccs(db, flavor), workloads.dcs_all(), method)
    sc.setLocalProperty("spark.jobGroup.id", None)
    print("persons:", len(db.persons), "housing:", len(db.housing))
    print(row)
    # read last: the status tracker learns of jobs asynchronously
    print("Spark jobs in the cell:", len(sc.statusTracker().getJobIdsForGroup(CELL_GROUP)))
    spark.stop()
