"""Run one end-to-end C-Extension solve and print a summary.

Usage: python jobs/run_pipeline.py [scale] [good|bad] [method]

Besides the CC/DC errors and stage timings it prints how many Spark jobs the
solve ran (counted through a job group and the status tracker).
"""
import sys

from _session import get_spark

from repro import census, workloads
from repro.core import metrics
from repro.core.pipeline import c_extension
from repro.experiments import make_ccs

SOLVE_GROUP = "c_extension"

if __name__ == "__main__":
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    flavor = sys.argv[2] if len(sys.argv) > 2 else "good"
    method = sys.argv[3] if len(sys.argv) > 3 else "hybrid"
    spark = get_spark("pipeline")
    sc = spark.sparkContext
    db = census.generate(scale=scale, shrink=0.02, seed=1)
    ccs = make_ccs(db, flavor)
    dcs = workloads.dcs_all()
    sc.setJobGroup(SOLVE_GROUP, "one C-Extension solve")
    res = c_extension(
        spark, db.spark_r1(spark), db.spark_r2(spark), ccs, dcs, method=method
    )
    sc.setLocalProperty("spark.jobGroup.id", None)
    rep = metrics.cc_report(res.r1_hat, res.r2_hat, ccs)
    print("persons:", len(db.persons), "housing:", len(db.housing))
    print("CC error:", metrics.cc_error_summary(rep))
    print("DC error:", metrics.dc_error(res.r1_hat, dcs))
    print("timings:", {k: round(v, 2) for k, v in res.timings.items()})
    # read last: the status tracker learns of jobs asynchronously
    print("Spark jobs in the solve:", len(sc.statusTracker().getJobIdsForGroup(SOLVE_GROUP)))
    spark.stop()
