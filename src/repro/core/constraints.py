"""Declarative constraint language: conditions, linear CCs, Foreign-Key DCs.

This module is the formal substrate for the paper's Definitions 2.2 (Foreign
Key DC), 2.4 (linear CC), 4.2 (disjoint CCs), 4.3 (CC containment) and 4.4
(intersecting CCs).

A ``Cond`` is a conjunctive selection predicate: a mapping from column name to
a value set, either a categorical ``frozenset`` or a closed integer interval
``(lo, hi)``. A column absent from the mapping is unconstrained (full domain).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
import pandas as pd

# ---------------------------------------------------------------------------
# Value sets
# ---------------------------------------------------------------------------

#: Sentinel for "categorical" vs "range" specs inside a Cond.
CAT = "in"
RANGE = "range"


def _as_spec(v) -> tuple:
    """Normalise a user-supplied value into a spec tuple.

    Accepted forms: scalar (categorical equality), set/frozenset/list
    (categorical membership), 2-tuple of ints (closed interval).
    """
    if isinstance(v, tuple) and len(v) == 2 and all(
        isinstance(x, (int, np.integer)) for x in v
    ):
        lo, hi = int(v[0]), int(v[1])
        if lo > hi:
            raise ValueError(f"empty interval {v}")
        return (RANGE, lo, hi)
    if isinstance(v, (set, frozenset, list)):
        return (CAT, frozenset(v))
    return (CAT, frozenset([v]))


def _spec_intersects(a: tuple, b: tuple) -> bool:
    if a[0] == RANGE and b[0] == RANGE:
        return max(a[1], b[1]) <= min(a[2], b[2])
    if a[0] == CAT and b[0] == CAT:
        return bool(a[1] & b[1])
    # mixed: categorical values vs numeric interval — compare numerically
    cat, rng = (a, b) if a[0] == CAT else (b, a)
    return any(rng[1] <= x <= rng[2] for x in cat[1])


def _spec_subset(a: tuple, b: tuple) -> bool:
    """True iff value set ``a`` ⊆ value set ``b``."""
    if a[0] == RANGE and b[0] == RANGE:
        return b[1] <= a[1] and a[2] <= b[2]
    if a[0] == CAT and b[0] == CAT:
        return a[1] <= b[1]
    if a[0] == CAT:  # cat ⊆ range
        return all(b[1] <= x <= b[2] for x in a[1])
    return False  # an interval is never ⊆ a finite categorical set here


# ---------------------------------------------------------------------------
# Cond
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cond:
    """A conjunctive selection predicate over named columns.

    ``specs`` maps column → spec tuple (see ``_as_spec``). Construct with
    ``Cond.of(Age=(0, 24), Rel="Owner")``.
    """

    specs: tuple[tuple[str, tuple], ...]  # sorted ((col, spec), ...)

    @staticmethod
    def of(**kwargs) -> "Cond":
        return Cond(tuple(sorted((k, _as_spec(v)) for k, v in kwargs.items())))

    # -- accessors ---------------------------------------------------------
    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.specs)

    def spec(self, col: str) -> tuple | None:
        for c, s in self.specs:
            if c == col:
                return s
        return None

    def is_empty(self) -> bool:
        return not self.specs

    def restrict(self, cols: Iterable[str]) -> "Cond":
        """Project the condition onto a subset of columns."""
        cols = set(cols)
        return Cond(tuple((c, s) for c, s in self.specs if c in cols))

    def merge(self, other: "Cond") -> "Cond":
        """Conjunction of two conditions over disjoint column sets."""
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise ValueError(f"merge with overlapping columns {overlap}")
        return Cond(tuple(sorted(self.specs + other.specs)))

    # -- logical relationships --------------------------------------------
    def disjoint_with(self, other: "Cond") -> bool:
        """True iff no tuple can satisfy both conditions (unsatisfiable ∧)."""
        o = dict(other.specs)
        for c, s in self.specs:
            if c in o and not _spec_intersects(s, o[c]):
                return True
        return False

    def contains(self, other: "Cond") -> bool:
        """True iff every tuple satisfying ``other`` satisfies ``self``.

        Per Def 4.3: ``other`` must use a (non-strict) superset of the
        attributes of ``self``, and per common attribute other's values ⊆
        self's values.
        """
        o = dict(other.specs)
        for c, s in self.specs:
            if c not in o or not _spec_subset(o[c], s):
                return False
        return True

    # -- evaluation --------------------------------------------------------
    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        """Boolean mask of rows of ``pdf`` satisfying the condition."""
        m = np.ones(len(pdf), dtype=bool)
        for c, s in self.specs:
            col = pdf[c].to_numpy()
            if s[0] == RANGE:
                m &= (col >= s[1]) & (col <= s[2])
            else:
                m &= pd.Series(col).isin(s[1]).to_numpy()
        return m

    def matches_row(self, row: Mapping[str, object]) -> bool:
        for c, s in self.specs:
            v = row[c]
            if s[0] == RANGE:
                if not (s[1] <= v <= s[2]):
                    return False
            elif v not in s[1]:
                return False
        return True

    def to_sql(self, prefix: str = "") -> str:
        """Render as a SQL predicate (for the DuckDB oracle)."""
        if not self.specs:
            return "TRUE"
        parts = []
        for c, s in self.specs:
            ref = f"{prefix}{c}"
            if s[0] == RANGE:
                parts.append(f"({ref} >= {s[1]} AND {ref} <= {s[2]})")
            else:
                vals = ", ".join(_sql_lit(v) for v in sorted(s[1], key=repr))
                parts.append(f"{ref} IN ({vals})")
        return " AND ".join(parts)

    def __str__(self) -> str:  # compact human-readable form
        bits = []
        for c, s in self.specs:
            if s[0] == RANGE:
                bits.append(f"{c}∈[{s[1]},{s[2]}]")
            else:
                vals = "|".join(map(str, sorted(s[1], key=repr)))
                bits.append(f"{c}={vals}")
        return " ∧ ".join(bits) or "TRUE"


def _sql_lit(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, (bool, np.bool_)):
        return "TRUE" if v else "FALSE"
    return repr(int(v) if isinstance(v, (int, np.integer)) else v)


# ---------------------------------------------------------------------------
# Cardinality constraints (Def 2.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CC:
    """A linear cardinality constraint ``|σ_φ(R1 ⋈ R2)| = target``.

    ``r1`` is the part of φ over R1 attributes, ``r2`` the part over R2
    attributes (the paper's experimental CCs always split this way).
    """

    cc_id: int
    r1: Cond
    r2: Cond
    target: int

    @property
    def full(self) -> Cond:
        return self.r1.merge(self.r2)

    def to_sql(self) -> str:
        return self.full.to_sql()

    def __str__(self) -> str:
        return f"CC{self.cc_id}: |σ[{self.r1} ∧ {self.r2}]| = {self.target}"


DISJOINT = "disjoint"
CONTAINS = "contains"       # cc1 ⊇ cc2
CONTAINED = "contained"     # cc1 ⊆ cc2
EQUAL = "equal"
INTERSECTING = "intersecting"


def cc_relationship(cc1: CC, cc2: CC) -> str:
    """Classify a pair of CCs per Definitions 4.2–4.4 (strict paper form).

    Disjoint iff the R1 conditions are disjoint, or the R1 conditions are
    identical and the R2 conditions are disjoint. Containment is checked on
    the full conditions. Everything else is intersecting — including pairs
    with nested R1 parts but disjoint R2 parts, which are semantically
    disjoint but unsafe for the greedy Hasse allocation (see Example 4.5's
    discussion); the paper's strict definition routes them to the ILP.
    """
    if cc1.r1.disjoint_with(cc2.r1):
        return DISJOINT
    if cc1.r1 == cc2.r1 and cc1.r2.disjoint_with(cc2.r2):
        return DISJOINT
    f1, f2 = cc1.full, cc2.full
    c12 = f2.contains(f1)  # cc1 ⊆ cc2
    c21 = f1.contains(f2)  # cc2 ⊆ cc1
    if c12 and c21:
        return EQUAL
    if c12:
        return CONTAINED
    if c21:
        return CONTAINS
    return INTERSECTING


# ---------------------------------------------------------------------------
# Foreign-Key denial constraints (Def 2.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comp:
    """A cross-tuple comparison ``t_i.col_i  op  t_j.col_j + offset``.

    ``op`` ∈ {'<', '>', '<=', '>=', '=', '!='}. ``offset`` only makes sense
    for numeric columns; pass 0 for categorical equality comparisons.
    """

    i: int
    col_i: str
    op: str
    j: int
    col_j: str
    offset: int = 0

    def apply(self, vi: np.ndarray, vj: np.ndarray) -> np.ndarray:
        rhs = vj + self.offset if self.offset else vj
        if self.op == "<":
            return vi < rhs
        if self.op == ">":
            return vi > rhs
        if self.op == "<=":
            return vi <= rhs
        if self.op == ">=":
            return vi >= rhs
        if self.op == "=":
            return vi == rhs
        if self.op == "!=":
            return vi != rhs
        raise ValueError(f"bad op {self.op}")


@dataclass(frozen=True)
class OutsideComp:
    """Cross-tuple comparison ``t_i.col_i ∉ [t_j.col_j + lo, t_j.col_j + hi]``.

    Table 4's DC rules are all of the form "no <role> can have age outside
    [A+lo, A+hi]" — a disjunction of two linear comparisons. Modelling it as
    one comparison keeps the paper's count of 12 DCs intact.
    """

    i: int
    col_i: str
    j: int
    col_j: str
    lo: int
    hi: int

    def apply(self, vi: np.ndarray, vj: np.ndarray) -> np.ndarray:
        return (vi < vj + self.lo) | (vi > vj + self.hi)


_SQL_OP = {"<": "<", ">": ">", "<=": "<=", ">=": ">=", "=": "=", "!=": "<>"}


@dataclass(frozen=True)
class DC:
    """A Foreign-Key denial constraint (Def 2.2).

    Violated by distinct tuples ``t_1..t_k`` iff every per-tuple condition in
    ``preds`` holds, every cross-tuple comparison in ``comps`` holds, and all
    k tuples share the same FK value. ``k = len(preds)`` (arity ≥ 2).
    """

    name: str
    preds: tuple[Cond, ...]
    comps: tuple[Comp | OutsideComp, ...] = field(default_factory=tuple)

    @property
    def arity(self) -> int:
        return len(self.preds)

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("a Foreign Key DC needs at least 2 tuple vars")
        for c in self.comps:
            if not (0 <= c.i < self.arity and 0 <= c.j < self.arity):
                raise ValueError(f"comp {c} indexes outside arity {self.arity}")

    def to_sql_violation(self, table: str, key: str, fk: str) -> str:
        """SQL counting distinct tuples of ``table`` violating this DC.

        Used by the DuckDB oracle to cross-check the Spark self-join
        implementation in ``metrics.dc_error``.
        """
        aliases = [f"t{i}" for i in range(self.arity)]
        froms = ", ".join(f"{table} {a}" for a in aliases)
        wheres = []
        for i in range(1, self.arity):
            wheres.append(f"t0.{fk} = t{i}.{fk}")
        for i in range(self.arity):
            for j in range(i + 1, self.arity):
                wheres.append(f"t{i}.{key} <> t{j}.{key}")
        for i, p in enumerate(self.preds):
            if not p.is_empty():
                wheres.append("(" + p.to_sql(prefix=f"t{i}.") + ")")
        for c in self.comps:
            if isinstance(c, OutsideComp):
                wheres.append(
                    f"(t{c.i}.{c.col_i} < t{c.j}.{c.col_j} + {c.lo} OR "
                    f"t{c.i}.{c.col_i} > t{c.j}.{c.col_j} + {c.hi})"
                )
            else:
                off = f" + {c.offset}" if c.offset else ""
                wheres.append(
                    f"t{c.i}.{c.col_i} {_SQL_OP[c.op]} t{c.j}.{c.col_j}{off}"
                )
        ids = " UNION ".join(
            f"SELECT {a}.{key} AS vid FROM {froms} WHERE " + " AND ".join(wheres)
            for a in aliases
        )
        return f"SELECT COUNT(*) AS n FROM ({ids})"

    def __str__(self) -> str:
        return f"DC[{self.name}] arity={self.arity}"


def pairwise_dc(name: str, p1: Cond, p2: Cond, comps: Iterable[tuple] = ()) -> DC:
    """Convenience builder for the common 2-tuple DC.

    ``comps`` entries are ``(col1, op, col2, offset)`` meaning
    ``t1.col1 op t2.col2 + offset``.
    """
    cs = tuple(Comp(0, c1, op, 1, c2, off) for (c1, op, c2, off) in comps)
    return DC(name=name, preds=(p1, p2), comps=cs)
