"""C-Extension benchmark: one workload, one process, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hybrid-good-20x --seed 1 --seconds 30 --trace 0

Workloads are defined in ``perfbench/workloads.json``; metric names and units
in ``BENCHMARK.json``. ``--seed`` drives the data and CC generators; the
solver only ever sees the generated DataFrames and constraints.

``--trace 0`` measures the end-to-end metrics: set-up, the first solve of the
process (it doubles as the warm-up), then warm solves of the public
``repro.core.pipeline.c_extension`` for ``--seconds`` seconds (at least two). ``--trace 1``
runs the warm-up, one untraced and one traced solve, the §6.1 evaluation and
a Spark-free replay of phase II, and reports the per-layer metrics. Every
solve is checked by ``check.check_solve``; a failed check or an exception
counts one failed solve and never stops the run, and a metric left
unmeasured is reported as null. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the environment stamp,
the solves and the spans go to ``perfbench/out/results/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
#: a single warm solve swings with the host's load; two halve the outliers
MIN_WARM = 2
SOLVE_GROUP = "perfbench-solve"


def load_json(name: str, where: Path = BENCH) -> dict:
    return json.loads((where / name).read_text())


@dataclass
class Inputs:
    r1: object  # pandas R1 (FK dropped)
    r2: object  # pandas R2
    ccs: list
    dcs: list
    r1_df: object  # Spark DataFrames handed to the solver
    r2_df: object


@dataclass
class Solve:
    wall: float
    problems: list
    peak_kb: int = 0  # driver VmHWM during the solve, before its check


def make_inputs(spark, wl: dict, seed: int, shrink: float) -> Inputs:
    from repro import census, workloads

    db = census.generate(scale=wl["scale"], shrink=shrink, seed=seed)
    make_ccs = workloads.make_cc_good if wl["ccs"] == "good" else workloads.make_cc_bad
    ccs = make_ccs(db, n_cc=wl["n_cc"], seed=seed)
    dcs = workloads.dcs_all() if wl["dcs"] == "all" else workloads.dcs_good()
    return Inputs(
        db.persons_missing_fk(), db.housing, ccs, dcs, db.spark_r1(spark), db.spark_r2(spark)
    )


def solve(spark, wl: dict, inp: Inputs, solver_seed: int):
    """One timed solve: ``c_extension`` plus materialising R̂2."""
    from repro.core import pipeline

    t0 = time.perf_counter()
    res = pipeline.c_extension(
        spark, inp.r1_df, inp.r2_df, inp.ccs, inp.dcs, method=wl["method"], seed=solver_seed
    )
    res.r2_hat.count()
    return res, time.perf_counter() - t0


def check(res, inp: Inputs, wl: dict):
    from check import check_solve

    return check_solve(
        res.r1_hat.select("p_id", "Age", "Rel", "Multi_ling", "h_id").toPandas(),
        res.r2_hat.toPandas(),
        inp.r1,
        inp.r2,
        inp.ccs,
        inp.dcs,
        method=wl["method"],
        cc_flavor=wl["ccs"],
    )


def release(res) -> None:
    res.vjoin.unpersist()
    res.r1_hat.unpersist()


def collect_garbage(spark) -> None:
    """Full GC in the JVM and in Python, so the next timed solve does not pay
    for the garbage the previous solve and its check left behind."""
    spark.sparkContext._jvm.System.gc()
    gc.collect()


def _failed(s: Solve, e: Exception) -> None:
    """Record an exception as a problem of ``s``: a crash is a failed solve, not a stop."""
    traceback.print_exc()
    s.problems.append(f"raised {type(e).__name__}: {e}")


def checked_solve(spark, wl, inp, solver_seed) -> Solve:
    """Solve, check and release; an exception anywhere counts as a failed solve.

    The driver's peak RSS is reset before the solve and read before the
    check, so the DuckDB check and its copies of R̂1/R̂2 do not set it.
    """
    from session import driver_peak_kb, reset_peak_rss

    s, res = Solve(float("nan"), []), None
    try:
        reset_peak_rss()
        res, s.wall = solve(spark, wl, inp, solver_seed)
        s.peak_kb = driver_peak_kb()
        s.problems += check(res, inp, wl).problems
    except Exception as e:  # noqa: BLE001
        _failed(s, e)
    try:
        if res is not None:
            release(res)
        collect_garbage(spark)
    except Exception as e:  # noqa: BLE001
        _failed(s, e)
    return s


def run_end_to_end(spark, wl, inp, solver_seed, seconds: float) -> tuple[dict, list[Solve]]:
    from session import peak_rss_mb

    first = checked_solve(spark, wl, inp, solver_seed)
    solves = [first]
    warm: list[float] = []
    t_start = time.perf_counter()
    while True:
        s = checked_solve(spark, wl, inp, solver_seed)
        solves.append(s)
        warm.append(s.wall)
        elapsed = time.perf_counter() - t_start
        if len(warm) >= MIN_WARM and not elapsed + statistics.median(warm) <= seconds:
            break  # (the median is NaN if every solve crashed)
    metrics = {
        "solve_s": statistics.median(warm),
        "first_solve_s": first.wall,
        "peak_rss_mb": peak_rss_mb(max(s.peak_kb for s in solves)),
    }
    return metrics, solves


def run_traced(spark, wl, inp, solver_seed) -> tuple[dict, list[Solve], list[dict]]:
    """Warm-up, an untraced and a traced solve, the Spark-free phase-II replay
    and the §6.1 evaluation. An exception counts the traced solve as failed;
    the metrics it left unmeasured are reported as null."""
    import check as chk
    import tracing as tr
    from repro.core import metrics as M

    warmup = checked_solve(spark, wl, inp, solver_seed)
    plain = checked_solve(spark, wl, inp, solver_seed)

    tracer = tr.Tracer()
    traced, res, m = Solve(float("nan"), []), None, {}
    try:
        with tracer.installed(spark), tr.job_group(spark, SOLVE_GROUP):
            with tracer.span("solve"):
                res, traced.wall = solve(spark, wl, inp, solver_seed)
        v = check(res, inp, wl)
        traced.problems += v.problems
        m.update(layer_metrics(tracer, traced.wall, plain.wall, tr.job_counts(spark, SOLVE_GROUP)))
        m.update(
            {
                "quality.cc_err_median": v.cc_err_median,
                "quality.cc_err_mean": v.cc_err_mean,
                "quality.dc_err": v.dc_err,
                "quality.fresh_r2_rows": v.fresh_r2_rows,
            }
        )

        t0 = time.perf_counter()
        m.update(tr.replay_phase2(tracer))
        m["trace.replay_s"] = time.perf_counter() - t0

        with tracer.installed(spark):
            with tr.job_group(spark, "perfbench-cc"):
                report = M.cc_report(res.r1_hat, res.r2_hat, inp.ccs)
            with tr.job_group(spark, "perfbench-dc"):
                dc_err = M.dc_error(res.r1_hat, inp.dcs)
        m.update(
            {
                "metrics.cc_report_s": tracer.total("metrics.cc_report"),
                "metrics.dc_error_s": tracer.total("metrics.dc_error"),
                "metrics.dc_error_spark_jobs": tr.job_counts(spark, "perfbench-dc")["jobs"],
            }
        )
        traced.problems += chk.cross_check(v, report, dc_err)
    except Exception as e:  # noqa: BLE001
        _failed(traced, e)
    try:
        if res is not None:
            release(res)
    except Exception as e:  # noqa: BLE001
        _failed(traced, e)
    return m, [warmup, plain, traced], tracer.dump()


def layer_metrics(T, wall, plain_wall, jobs) -> dict:
    """Per-layer numbers of one traced solve (see BENCHMARK.json)."""
    root = next(i for i, s in enumerate(T.spans) if s.name == "solve")
    root_dur = T.spans[root].dur

    def in_pipeline(action: str, line_has: str) -> float:
        # Spark actions started by c_extension itself, told apart by the source
        # line that started them (the variable it assigns or counts); a renamed
        # variable in pipeline.py moves that time into pipeline.self_s
        return sum(
            s.dur
            for s in T.spans
            if s.name == f"spark.{action}"
            and s.attrs.get("caller") == "repro.core.pipeline.c_extension"
            and line_has in s.attrs.get("line", "")
        )

    def calls(name):
        return T.calls.get(name, [])

    alg1 = [out for *_, out in calls("ilp_phase.alg1_allocate")]
    split = [out for *_, out in calls("hasse.split_s1_s2")]
    alg2 = [out for *_, out in calls("hasse.alg2_allocate")]
    p1 = [out for *_, out in calls("hybrid.hybrid_phase1")]
    phase1 = T.total("hybrid.hybrid_phase1") + T.total("baseline.baseline_phase1")
    ilp = T.total("ilp.solve_ilp")
    r1_hat_count = in_pipeline("count", "r1_hat.count")
    phase2 = T.total("phase2.complete_fk") + r1_hat_count
    pipeline_self = root_dur - T.covered(root)
    return {
        "pipeline.self_s": pipeline_self,
        "pipeline.spark_jobs": jobs["jobs"],
        "pipeline.spark_stages": jobs["stages"],
        "pipeline.spark_tasks": jobs["tasks"],
        "binning.hist_s": in_pipeline("toPandas", "distinct_counts")
        + in_pipeline("toPandas", "active_counts"),
        "binning.build_s": T.total("binning.Binning.build") + T.total("binning.Combos.build"),
        "binning.n_bins": sum(len(out.bins) for *_, out in calls("binning.Binning.build")),
        "binning.n_combos": sum(len(out) for *_, out in calls("binning.Combos.build")),
        "hasse.build_structure_s": T.total("hasse.build_structure"),
        "hasse.alg2_s": T.total("hasse.alg2_allocate"),
        "hasse.n_s1": sum(len(s1) for s1, _ in split),
        "hasse.n_s2": sum(len(s2) for _, s2 in split),
        "hasse.shortfall": sum(sum(a.shortfall.values()) for a in alg2),
        "ilp_phase.alg1_s": T.total("ilp_phase.alg1_allocate"),
        "ilp.solve_ilp_s": ilp,
        "ilp.solve_lp_calls": sum(1 for s in T.spans if s.name == "ilp.solve_lp"),
        "ilp.solve_lp_s": T.total("ilp.solve_lp"),
        "ilp.n_vars": sum(a.n_vars for a in alg1),
        "ilp.n_rows": sum(a.n_rows for a in alg1),
        "ilp.nodes": sum(a.nodes for a in alg1),
        "ilp.slack": sum(a.slack for a in alg1),
        "hybrid.phase1_s": T.total("hybrid.hybrid_phase1"),
        "hybrid.resolve_partials_s": T.total("hybrid.resolve_partials"),
        "hybrid.fill_leftovers_s": T.total("hybrid.fill_leftovers"),
        "hybrid.n_invalid": sum(p.n_invalid for p in p1),
        "baseline.phase1_s": T.total("baseline.baseline_phase1"),
        "allocation.vjoin_s": T.total("allocation.materialize_vjoin")
        + T.total("allocation.mark_null_combos_invalid")
        + T.total("allocation.fill_null_combos_random")
        + in_pipeline("count", "vjoin.count"),
        "phase2.complete_fk_s": T.total("phase2.complete_fk"),
        "phase2.r1_hat_count_s": r1_hat_count,
        "phase2.solve_invalid_s": T.total("phase2.solve_invalid_tuples"),
        "trace.coverage": T.covered(root) / root_dur,
        "trace.overhead_s": wall - plain_wall,
        "trace.phase1_share": phase1 / wall,
        "trace.ilp_share": ilp / wall,
        "trace.phase2_share": phase2 / wall,
    }


def run_workload(spark, spark_start_s: float, name: str, *, seed: int, seconds: float,
                 trace: bool, scale: float | None = None) -> dict:
    """Set up and run one workload in an existing Spark session."""
    spec = load_json("workloads.json")
    wl = dict(spec["workloads"][name])
    if scale is not None:
        wl["scale"] = scale
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = make_inputs(spark, wl, seed, spec["shrink"])
        setups.append(time.perf_counter() - t0)
    if trace:
        metrics, solves, spans = run_traced(spark, wl, inp, spec["solver_seed"])
    else:
        metrics, solves = run_end_to_end(spark, wl, inp, spec["solver_seed"], seconds)
        metrics["setup_s"] = spark_start_s + statistics.median(setups)
        spans = []
    return {"metrics": metrics, "solves": solves, "spans": spans, "setups": setups}


def result_line(out: dict, trace: bool) -> dict:
    """The final stdout object: the metrics BENCHMARK.json names, with units."""
    bench = load_json("BENCHMARK.json", ROOT)
    declared = bench["per_layer" if trace else "end_to_end"]
    got = out["metrics"]
    extra = set(got) - {d["name"] for d in declared}
    if extra:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    failed = sum(1 for s in out["solves"] if s.problems)
    return {
        "correct": failed == 0,
        "attempted": len(out["solves"]),
        "failed": failed,
        "metrics": {
            d["name"]: {"value": _finite(got.get(d["name"], math.nan)), "unit": d["unit"]}
            for d in declared
        },
    }


def _finite(x):
    """JSON has no NaN: a value a crashed solve left unmeasured becomes null."""
    return x if math.isfinite(x) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in load_json("workloads.json")["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import session

    settings = session.configure(ROOT)
    t0 = time.perf_counter()
    spark = session.start_spark()
    import repro.core.pipeline  # noqa: F401 - import cost is part of set-up
    import repro.workloads  # noqa: F401

    spark_start_s = time.perf_counter() - t0
    try:
        env = session.stamp(ROOT, settings, args.seed)
        print("env", json.dumps(env, sort_keys=True), flush=True)
        out = run_workload(
            spark, spark_start_s, args.workload,
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        )
    finally:
        session.stop_spark(spark)

    line = result_line(out, bool(args.trace))
    for s in out["solves"]:
        for p in s.problems:
            print(f"FAILED solve: {p}", flush=True)
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    dest = BENCH / "out" / "results"
    dest.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "result": line,
        "setups_s": out["setups"],
        "solves": [{"wall_s": s.wall, "problems": s.problems} for s in out["solves"]],
        "spans": out["spans"],
    }
    (dest / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float)
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
