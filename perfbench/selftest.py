"""Self-test of the benchmark itself, at tiny scale.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``

* runs every workload's code path at 1x, with and without tracing, and
  asserts that every metric BENCHMARK.json names is emitted with its unit
  and a number, and that every solve passes the correctness check;
* feeds the correctness check a deliberately corrupted R̂1 (two owners moved
  into one household, and one dangling FK) and asserts it flags each;
* makes the check raise and asserts the solve counts as failed instead of
  stopping the run.

Exits 0 when all assertions hold.
"""
from __future__ import annotations

import math
import sys

import check
import run
import session

TINY_SCALE = 1


def _assert_metrics(line: dict, declared: list[dict], where: str) -> None:
    got = line["metrics"]
    assert set(got) == {d["name"] for d in declared}, f"{where}: metric names differ"
    for d in declared:
        m = got[d["name"]]
        assert m["unit"] == d["unit"], f"{where}: {d['name']} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (
            f"{where}: {d['name']} = {m['value']!r}"
        )


def _corruption_is_flagged(spark) -> None:
    spec = run.load_json("workloads.json")
    wl = dict(spec["workloads"]["hybrid-good-20x"], scale=TINY_SCALE)
    inp = run.make_inputs(spark, wl, 1, spec["shrink"])
    res, _ = run.solve(spark, wl, inp, spec["solver_seed"])
    r1_hat = res.r1_hat.select("p_id", "Age", "Rel", "Multi_ling", "h_id").toPandas()
    r2_hat = res.r2_hat.toPandas()
    run.release(res)

    def verdict(r1h):
        return check.check_solve(
            r1h, r2_hat, inp.r1, inp.r2, inp.ccs, inp.dcs, method="hybrid", cc_flavor="good"
        )

    assert verdict(r1_hat).ok, verdict(r1_hat).problems

    owners = r1_hat[r1_hat["Rel"] == "Owner"].drop_duplicates("h_id")
    a, b = owners.index[:2]
    two_owners = r1_hat.copy()
    two_owners.loc[b, "h_id"] = two_owners.loc[a, "h_id"]
    v = verdict(two_owners)
    assert not v.ok and any("DC error" in p for p in v.problems), v.problems

    dangling = r1_hat.copy()
    dangling.loc[dangling.index[0], "h_id"] = int(r2_hat["h_id"].max()) + 1
    v = verdict(dangling)
    assert not v.ok and any("dangling" in p for p in v.problems), v.problems


def _crash_is_counted(spark) -> None:
    spec = run.load_json("workloads.json")
    wl = dict(spec["workloads"]["hybrid-good-20x"], scale=TINY_SCALE)
    inp = run.make_inputs(spark, wl, 1, spec["shrink"])
    real_check = run.check

    def broken_check(*_):
        raise RuntimeError("deliberate")

    run.check = broken_check
    try:
        s = run.checked_solve(spark, wl, inp, spec["solver_seed"])
    finally:
        run.check = real_check
    assert math.isfinite(s.wall) and any("deliberate" in p for p in s.problems), s


def main() -> int:
    session.configure(run.ROOT)
    spark = session.start_spark()
    try:
        bench = run.load_json("BENCHMARK.json", run.ROOT)
        for name in run.load_json("workloads.json")["workloads"]:
            for trace in (False, True):
                out = run.run_workload(
                    spark, 0.0, name, seed=1, seconds=0, trace=trace, scale=TINY_SCALE
                )
                line = run.result_line(out, trace)
                where = f"{name} trace={int(trace)}"
                _assert_metrics(line, bench["per_layer" if trace else "end_to_end"], where)
                problems = [p for s in out["solves"] for p in s.problems]
                assert line["correct"] and not problems, f"{where}: {problems}"
                print(f"ok  {where}: {line['attempted']} solves checked", flush=True)
        _corruption_is_flagged(spark)
        print("ok  corrupted R̂1 is flagged as a failed solve", flush=True)
        _crash_is_counted(spark)
        print("ok  an exception in the check counts as a failed solve", flush=True)
    finally:
        session.stop_spark(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
