"""Per-solve correctness check in DuckDB, independent of the solver's code.

It reads only the collected ``R̂1``/``R̂2`` and the inputs, and uses each
constraint's own SQL rendering (``DC.to_sql_violation``, ``CC.to_sql``):

* structure: R̂1 keeps R1's tuples and attributes, every R̂1 tuple has a
  non-null FK present in R̂2, R̂2 keys are unique and R̂2 ⊇ R2;
* hybrid gates (never loosened): DC error 0 (Prop 5.5), every CC exact on
  the good set (Prop 4.7), median CC error 0 on the bad set.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import duckdb
import numpy as np
import pandas as pd

R1_ATTRS = ["p_id", "Age", "Rel", "Multi_ling"]
_COUNT_PREFIX = "SELECT COUNT(*) AS n FROM ("


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    dc_violators: int = 0
    dc_err: float = 0.0
    cc_achieved: list[int] = field(default_factory=list)
    cc_err_median: float = 0.0
    cc_err_mean: float = 0.0
    fresh_r2_rows: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _violators_sql(dcs, table: str) -> str:
    """Distinct tuples violating at least one DC: the union of the id lists
    inside each ``DC.to_sql_violation`` count query."""
    parts = []
    for dc in dcs:
        sql = dc.to_sql_violation(table, "p_id", "h_id")
        if not (sql.startswith(_COUNT_PREFIX) and sql.endswith(")")):
            raise ValueError(f"unexpected DC.to_sql_violation form: {sql[:80]}")
        parts.append(sql[len(_COUNT_PREFIX) : -1])
    return "SELECT COUNT(DISTINCT vid) FROM (" + " UNION ".join(parts) + ")"


def check_solve(
    r1_hat: pd.DataFrame,
    r2_hat: pd.DataFrame,
    r1: pd.DataFrame,
    r2: pd.DataFrame,
    ccs,
    dcs,
    *,
    method: str,
    cc_flavor: str,
) -> Verdict:
    """Check one solve's collected output against its inputs."""
    v = Verdict()
    con = duckdb.connect()
    try:
        con.register("r1hat", r1_hat)
        con.register("r2hat", r2_hat)
        con.register("r1", r1[R1_ATTRS])
        con.register("r2", r2)
        one = lambda sql: con.execute(sql).fetchone()[0]  # noqa: E731

        attrs = ", ".join(R1_ATTRS)
        r2_cols = ", ".join(r2.columns)
        if len(r1_hat) != len(r1):
            v.problems.append(f"|R̂1| = {len(r1_hat)} but |R1| = {len(r1)}")
        if one(f"SELECT COUNT(*) FROM (SELECT {attrs} FROM r1 EXCEPT SELECT {attrs} FROM r1hat)"):
            v.problems.append("R̂1 lost or changed R1 tuples")
        if one("SELECT COUNT(*) - COUNT(DISTINCT p_id) FROM r1hat"):
            v.problems.append("R̂1 has duplicate keys")
        if one("SELECT COUNT(*) - COUNT(DISTINCT h_id) FROM r2hat"):
            v.problems.append("R̂2 has duplicate keys")
        dangling = one(
            "SELECT COUNT(*) FROM r1hat a WHERE a.h_id IS NULL "
            "OR NOT EXISTS (SELECT 1 FROM r2hat b WHERE b.h_id = a.h_id)"
        )
        if dangling:
            v.problems.append(f"{dangling} R̂1 tuples have a null or dangling FK")
        if one(f"SELECT COUNT(*) FROM (SELECT {r2_cols} FROM r2 EXCEPT SELECT {r2_cols} FROM r2hat)"):
            v.problems.append("R̂2 does not contain R2")
        v.fresh_r2_rows = len(r2_hat) - len(r2)

        v.dc_violators = int(one(_violators_sql(dcs, "r1hat")))
        v.dc_err = v.dc_violators / len(r1_hat) if len(r1_hat) else 0.0

        con.execute("CREATE TABLE j AS SELECT * FROM r1hat JOIN r2hat USING (h_id)")
        v.cc_achieved = [int(one(f"SELECT COUNT(*) FROM j WHERE {cc.to_sql()}")) for cc in ccs]
    finally:
        con.close()

    targets = np.array([cc.target for cc in ccs], dtype=float)
    err = np.abs(np.array(v.cc_achieved, dtype=float) - targets) / np.maximum(10.0, targets)
    v.cc_err_median = float(np.median(err)) if len(err) else 0.0
    v.cc_err_mean = float(np.mean(err)) if len(err) else 0.0

    if method == "hybrid":
        if v.dc_violators:
            v.problems.append(f"hybrid DC error {v.dc_err:.4f} != 0 (Prop 5.5)")
        if cc_flavor == "good" and np.any(err > 0):
            v.problems.append(f"{int(np.sum(err > 0))} CCs not exact on the good set (Prop 4.7)")
        if cc_flavor == "bad" and v.cc_err_median > 0:
            v.problems.append(f"median CC error {v.cc_err_median:.4f} != 0 on the bad set")
    return v


def cross_check(v: Verdict, cc_report: pd.DataFrame, dc_error: float) -> list[str]:
    """Problems where ``metrics.cc_report`` / ``metrics.dc_error`` disagree
    with the DuckDB counts of the same output."""
    problems = []
    if abs(dc_error - v.dc_err) > 1e-12:
        problems.append(f"metrics.dc_error {dc_error} != DuckDB {v.dc_err}")
    achieved = cc_report["achieved"].astype(int).tolist()
    if achieved != v.cc_achieved:
        n = sum(a != b for a, b in zip(achieved, v.cc_achieved))
        problems.append(f"metrics.cc_report disagrees with DuckDB on {n} CCs")
    return problems
