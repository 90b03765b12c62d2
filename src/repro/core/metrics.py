"""Error measures of §6.1.

* relative CC error: ``|ĉ − c| / max(10, c)`` per CC, over the *final*
  database ``R̂1 ⋈ R̂2`` (so phase-II effects are included), from one Spark
  join + groupBy;
* DC error: fraction of R̂1 tuples participating in at least one violated
  DC instance among tuples sharing an FK. R̂1 is projected onto the FK and
  the DC columns in one Spark action, and ``conflict.violations`` evaluates
  every DC on the driver (cross-checked against each DC's own SQL on DuckDB
  in tests).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .conflict import violations
from .constraints import CC, DC


def cc_report(r1_hat: DataFrame, r2_hat: DataFrame, ccs: list[CC], *, fk: str = "h_id") -> pd.DataFrame:
    """Per-CC achieved counts and relative errors on the final database.

    One Spark join + one groupBy over the columns any CC references; the
    resulting (small) histogram is evaluated per CC in pandas.
    """
    used: list[str] = []
    for cc in ccs:
        for col in cc.full.columns:
            if col not in used:
                used.append(col)
    joined = r1_hat.join(r2_hat, on=fk, how="inner")
    hist = joined.groupBy(*used).agg(F.count("*").alias("__n")).toPandas()
    rows = []
    for cc in ccs:
        achieved = int(hist.loc[cc.full.mask(hist), "__n"].sum()) if len(hist) else 0
        err = abs(achieved - cc.target) / max(10, cc.target)
        rows.append((cc.cc_id, cc.target, achieved, err))
    return pd.DataFrame(rows, columns=["cc_id", "target", "achieved", "rel_err"])


def cc_error_summary(report: pd.DataFrame) -> dict:
    return {
        "median": float(report["rel_err"].median()),
        "mean": float(report["rel_err"].mean()),
        "max": float(report["rel_err"].max()),
        "n_nonzero": int((report["rel_err"] > 0).sum()),
    }


def dc_violating(pdf: pd.DataFrame, dcs: list[DC], fk: str) -> np.ndarray:
    """Mask of the rows of ``pdf`` in at least one violation of a DC in
    ``dcs``. A row with a null ``fk`` shares a household with no one."""
    mask = np.zeros(len(pdf), dtype=bool)
    for dc in dcs:
        for rows in violations(pdf, dc, pdf[fk]):
            mask[rows] = True
    return mask


def dc_error(r1_hat: DataFrame, dcs: list[DC], *, fk: str = "h_id") -> float:
    """Fraction of R̂1 tuples violating at least one DC (§6.1)."""
    if not dcs:
        return 0.0
    cols = dict.fromkeys([fk, *(c for dc in dcs for c in dc.columns)])
    pdf = r1_hat.select(*cols).toPandas()
    if pdf.empty:
        return 0.0
    return int(dc_violating(pdf, dcs, fk).sum()) / len(pdf)
