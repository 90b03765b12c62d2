"""Intervalization and binning (§4.1, after Arasu et al. [5]).

Variables in Algorithm 1 are not per-tuple: the distinct ``(A1..Ap)`` value
combinations in R1 are *binned*, with numeric columns replaced by the atomic
intervals induced by the CC range endpoints. Every tuple inside a bin is
interchangeable with respect to every CC — which is what lets the rest of
phase I operate on the (bin, combo) count histogram instead of tuples.

The bin histogram is a pandas ``groupby`` (:func:`value_counts`) over the R1
attribute columns of R1's rows, which the pipeline collects once; everything
downstream of it is driver-side NumPy/pandas on a table whose size is
bounded by the attribute-domain product, not the data.
:class:`Coverage` answers, once per phase I, which (bin, combo) cells each
CC counts; every phase-I step reads its masks instead of re-matching CCs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .constraints import CC, Cond, RANGE


def numeric_columns(ccs: list[CC], attrs: list[str]) -> list[str]:
    """Columns of ``attrs`` that any CC constrains with a range."""
    out = set()
    for cc in ccs:
        for col, spec in cc.r1.specs:
            if col in attrs and spec[0] == RANGE:
                out.add(col)
    return sorted(out)


def _breakpoints(ccs: list[CC], col: str, domain_min: int) -> np.ndarray:
    """Sorted lower edges of the atomic intervals for ``col``."""
    pts = {int(domain_min)}
    for cc in ccs:
        spec = cc.r1.spec(col)
        if spec is None:
            continue
        if spec[0] == RANGE:
            pts.add(int(spec[1]))
            pts.add(int(spec[2]) + 1)
        else:  # equality on a numeric column: singleton interval
            for v in spec[1]:
                pts.add(int(v))
                pts.add(int(v) + 1)
    return np.array(sorted(p for p in pts if p >= domain_min), dtype=np.int64)


@dataclass
class Binning:
    """Bin structure over R1's non-key attributes.

    ``bins``: one row per bin — ``bin_id``, for each numeric column its atomic
    interval lower edge (``<col>``, used as the representative value), and
    each categorical column's value, plus ``count`` (tuples in R1).
    ``mapping``: distinct attribute combos → ``bin_id`` (merged with R1's rows
    on the driver to tag every tuple with its bin).
    """

    attrs: list[str]
    num_cols: list[str]
    breaks: dict[str, np.ndarray]
    bins: pd.DataFrame
    mapping: pd.DataFrame

    @staticmethod
    def build(distinct_counts: pd.DataFrame, ccs: list[CC], attrs: list[str]) -> "Binning":
        """``distinct_counts``: ``value_counts(R1's rows, attrs)``."""
        pdf = distinct_counts.copy()
        num_cols = numeric_columns(ccs, attrs)
        breaks: dict[str, np.ndarray] = {}
        keys = []
        for col in attrs:
            if col in num_cols:
                bp = _breakpoints(ccs, col, int(pdf[col].min()) if len(pdf) else 0)
                breaks[col] = bp
                idx = np.searchsorted(bp, pdf[col].to_numpy(), side="right") - 1
                idx = np.clip(idx, 0, len(bp) - 1)
                pdf[f"__iv_{col}"] = bp[idx]  # interval lower edge
                keys.append(f"__iv_{col}")
            else:
                keys.append(col)
        if keys:
            grp = pdf.groupby(keys, sort=True, dropna=False)
            pdf["bin_id"] = grp.ngroup().astype(np.int64)
            bins = grp["count"].sum().reset_index()
        else:  # no attributes: a single bin
            pdf["bin_id"] = 0
            bins = pd.DataFrame({"count": [pdf["count"].sum()]})
        bins["bin_id"] = np.arange(len(bins), dtype=np.int64)
        bins = bins.rename(columns={f"__iv_{c}": c for c in num_cols})
        bins = bins[[*attrs, "count", "bin_id"]] if attrs else bins
        mapping = pdf[[*attrs, "bin_id"]].drop_duplicates() if attrs else pdf
        return Binning(
            attrs=attrs, num_cols=num_cols, breaks=breaks, bins=bins, mapping=mapping
        )

    # -- queries -----------------------------------------------------------
    @property
    def avail(self) -> dict[int, int]:
        """bin_id → number of R1 tuples in the bin."""
        return dict(
            zip(self.bins["bin_id"].tolist(), self.bins["count"].astype(int).tolist())
        )

    def cond_bin_ids(self, cond: Cond) -> np.ndarray:
        """Bins whose tuples all satisfy ``cond`` (an R1 condition).

        Because every CC endpoint is a breakpoint, each atomic interval is
        either fully inside or fully outside each CC range, so testing the
        representative (the interval's lower edge) is exact.
        """
        return self.bins["bin_id"].to_numpy()[cond.mask(self.bins)]


@dataclass
class Combos:
    """Active B-combos: distinct value combinations of the R2 columns used in
    S_CC, with the number of R2 rows (candidate FK values) per combo."""

    active_cols: list[str]
    table: pd.DataFrame  # combo_id + active cols + n_households

    @staticmethod
    def build(active_counts: pd.DataFrame, active_cols: list[str]) -> "Combos":
        """``active_counts``: ``value_counts(R2's rows, active_cols)``."""
        pdf = active_counts.copy()
        if active_cols:
            pdf = pdf.sort_values(active_cols).reset_index(drop=True)
        pdf = pdf.rename(columns={"count": "n_households"})
        pdf["combo_id"] = np.arange(len(pdf), dtype=np.int64)
        return Combos(active_cols=active_cols, table=pdf)

    def __len__(self) -> int:
        return len(self.table)

    def cond_combo_ids(self, cond: Cond) -> np.ndarray:
        """Combos satisfying an R2 condition (exact: combos hold real values)."""
        if not self.active_cols:
            return self.table["combo_id"].to_numpy()
        m = cond.restrict(self.active_cols).mask(self.table)
        # a cond column outside active_cols cannot happen: active_cols is the
        # union of all CC R2 columns.
        extra = [c for c in cond.columns if c not in self.active_cols]
        if extra:
            raise ValueError(f"R2 condition uses non-active columns {extra}")
        return self.table["combo_id"].to_numpy()[m]


@dataclass
class Coverage:
    """Which cells of the (bin, combo) count space each CC counts.

    ``bins[i, b]``: bin ``b`` satisfies the R1 condition of CC ``i`` (the CC
    in row ``row[cc_id] == i``); ``combos[i, c]``: combo ``c`` satisfies its
    R2 condition. A tuple of bin ``b`` given combo ``c`` counts towards CC
    ``i`` iff both hold, so the integer product ``count = bins.T @ combos``
    gives, per cell, the number of CCs the cell contributes to. Bin and
    combo ids are positions, so they index the masks directly; a ⊥ variable's
    combo ``-1`` must be masked out, never used as an index.
    """

    row: dict[int, int]  # cc_id → row of ``bins`` / ``combos``
    bins: np.ndarray     # bool, CCs × bins
    combos: np.ndarray   # bool, CCs × combos
    count: np.ndarray = field(init=False)  # int64, bins × combos

    def __post_init__(self) -> None:
        self.count = self.cells(slice(None))

    @staticmethod
    def build(ccs: list[CC], binning: Binning, combos: Combos) -> "Coverage":
        bins = np.zeros((len(ccs), len(binning.bins)), dtype=bool)
        cmb = np.zeros((len(ccs), len(combos)), dtype=bool)
        for i, cc in enumerate(ccs):
            bins[i, binning.cond_bin_ids(cc.r1)] = True
            cmb[i, combos.cond_combo_ids(cc.r2)] = True
        return Coverage({cc.cc_id: i for i, cc in enumerate(ccs)}, bins, cmb)

    def cells(self, rows) -> np.ndarray:
        """bins × combos: how many of the CCs in ``rows`` each cell counts for."""
        return self.bins[rows].T.astype(np.int64) @ self.combos[rows].astype(np.int64)

    def rows(self, cc_ids) -> np.ndarray:
        """Mask rows of the CCs ``cc_ids``."""
        return np.array([self.row[i] for i in cc_ids], dtype=np.int64)

    def score(self, bin_id: int, allowed=()) -> np.ndarray:
        """Per combo: the CCs outside ``allowed`` (cc_ids) that a tuple of
        ``bin_id`` given that combo contributes to."""
        r = self.rows(allowed)
        own = self.bins[r, bin_id][:, None] & self.combos[r]
        return self.count[bin_id] - own.sum(axis=0)


def value_counts(frame: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """``frame``'s rows per distinct ``cols`` tuple, as ``cols`` + ``count``
    (Spark's ``groupBy(cols).count()``): nulls form groups of their own, and
    with no ``cols`` one row counts every row."""
    if not cols:
        return pd.DataFrame({"count": [len(frame)]})
    return frame.groupby(cols, dropna=False).size().reset_index(name="count")


def bin_columns(ccs: list[CC], columns: list[str]) -> list[str]:
    """The bin keys: the columns of ``columns`` that some CC's R1 condition
    reads, in ``columns``' order."""
    read = {col for cc in ccs for col in cc.r1.columns}
    return [c for c in columns if c in read]


def active_r2_columns(ccs: list[CC]) -> list[str]:
    """Union of R2 columns referenced by any CC (order-stable)."""
    out: list[str] = []
    for cc in ccs:
        for col in cc.r2.columns:
            if col not in out:
                out.append(col)
    return out
