"""Phase II — Algorithm 4: complete ``R1.FK`` from the filled-in V_Join.

The paper's key optimization (§5.2) — partitioning V_Join and R2 by the
assigned B-values, since candidate FK sets are disjoint across partitions —
runs on the driver, as the paper's own implementation does: V_Join's rows
and R2's ``(key, combo_id)`` pairs are collected, and one Python call walks
the combos in ``combo_id`` order. That call sorts its rows by ``combo_id``
and ``p_id``, so its keys do not depend on the order in which Spark
delivers them. The coloring builds one type conflict matrix over all the
rows (:func:`.conflict.type_conflicts`); each combo then builds its
conflict hypergraph (a dense boolean matrix over its tuples, gathered from
the type matrix) and runs the largest-first list coloring on it, exactly
as it would on its own frames.

The coloring's candidate list is the partition's R2 keys followed by its
fresh keys: each partition reserves a range of as many fresh keys as it has
tuples in phase I's allocation table, and the coloring never leaves that
range, so fresh keys are globally unique.

Invalid tuples (no B-assignment possible in phase I) go through the same
call: each gets a fresh household of its own (the paper's
``solveInvalidTuples``), keyed in ``(bin_id, p_id)`` order after the last
partition's range. The household takes the combo that minimises the CC
error its tuple adds, which depends on the bin alone, so each bin of
invalid tuples gets a key range and a combo from the allocation's per-bin
counts.

The call returns its V_Join rows as ``R̂1`` rows (``bin_id`` and
``combo_id`` dropped, the FK added), and ``R̂1`` is a DataFrame over those
driver-built rows, so no later read runs the fill or phase II again. One
table of fresh-key ranges, one per partition and one per bin of invalid
tuples, gives each fresh household its combo, and the household copies its
other columns from R2's smallest-key row, which the pipeline takes from
R2's collected rows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .binning import Binning, Combos, Coverage
from .coloring import color_with_extension
from .conflict import enumerate_edges, type_conflicts
from .constraints import CC, DC
from .hybrid import INVALID_COMBO


def _key_bases(sizes: dict[int, int], max_key: int) -> dict[int, int]:
    """Reserve a fresh-key range per partition: base_i = max_key+1+Σ sizes."""
    bases: dict[int, int] = {}
    off = max_key + 1
    for combo_id in sorted(sizes):
        bases[combo_id] = off
        off += sizes[combo_id]
    return bases


def _task_fn(picker, bases: dict[int, int], r2_key: str, fk: str):
    """The combo walker of both strategies: V_Join rows of one or more
    combos in, the same rows as ``R̂1`` rows out (``bin_id``/``combo_id``
    dropped, ``fk`` added); ``key`` is not read. Invalid tuples take one key
    each from ``bases[INVALID_COMBO]`` on, in ``(bin_id, p_id)`` order; the
    rows ``idx`` of any other combo take the keys ``pick(combo_id, idx,
    keys, base)`` chooses from the combo's sorted R2 ``keys`` and the
    ``base`` of its reserved fresh-key range, where ``pick = picker(left)``
    is built once per call over all its sorted rows."""

    def fn(key, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        left = left.sort_values(["combo_id", "p_id"]).reset_index(drop=True)
        pick = picker(left)
        r2_keys = {c: sorted(k.tolist()) for c, k in right.groupby("combo_id")[r2_key]}
        out = np.empty(len(left), dtype=np.int64)
        for combo_id, idx in sorted(left.groupby("combo_id").indices.items()):
            base = bases[combo_id]
            if combo_id == INVALID_COMBO:
                idx = idx[np.argsort(left["bin_id"].to_numpy()[idx], kind="stable")]
                out[idx] = base + np.arange(len(idx))
            else:
                out[idx] = pick(combo_id, idx, r2_keys.get(combo_id, []), base)
        return left.drop(columns=["bin_id", "combo_id"]).assign(**{fk: out})

    return fn


def _coloring_fn(dcs: list[DC], bases: dict[int, int], r2_key: str, fk: str):
    """Algorithm 4: one type matrix for all the call's rows, then each combo
    colored as on its own frames."""

    def picker(left: pd.DataFrame):
        conf, codes = type_conflicts(left, dcs)

        def pick(combo_id, idx, keys, base):
            graph = enumerate_edges(left.iloc[idx], dcs, (conf, codes[idx]))
            c, _ = color_with_extension(graph, keys, base)
            return [c[i] for i in range(len(idx))]

        return pick

    return _task_fn(picker, bases, r2_key, fk)


def _random_fn(seed: int, bases: dict[int, int], r2_key: str, fk: str):
    """Baseline phase II: uniformly random candidate key per tuple, each
    combo from its own generator seeded with ``seed + combo_id``; with no
    candidate (no R2 row has the combo) each tuple gets its own fresh key
    from the partition's reserved range."""

    def pick(combo_id, idx, keys, base):
        if not keys:
            return base + np.arange(len(idx))
        return np.random.default_rng(seed + combo_id).choice(keys, size=len(idx))

    return _task_fn(lambda left: pick, bases, r2_key, fk)


def solve_invalid_tuples(
    per_bin: pd.Series,
    ccs: list[CC],
    binning: Binning,
    combos: Combos,
    fresh_start: int,
) -> pd.DataFrame:
    """Fresh households for the invalid tuples, from their per-bin counts.

    ``per_bin`` maps each bin that holds invalid tuples to their number.
    Returns one row per bin, by ``bin_id``: ``[bin_id, start, combo_id]``.
    Each invalid tuple gets a household of its own; a bin's tuples take the
    keys ``start, start + 1, ...`` in ``p_id`` order, and the bins' ranges
    follow each other from ``fresh_start``. A tuple alone in a fresh
    household cannot violate any Foreign-Key DC (arity ≥ 2), so DC
    satisfaction is preserved. The household's combo minimises the CC error
    the tuple adds, which depends only on its bin: the lowest-id minimum of
    the bin's row of the CC-coverage count.
    """
    per_bin = per_bin.sort_index()
    if per_bin.empty:
        return pd.DataFrame(columns=["bin_id", "start", "combo_id"], dtype=np.int64)
    best = Coverage.build(ccs, binning, combos).count.argmin(axis=1)
    bins, counts = per_bin.index.to_numpy(np.int64), per_bin.to_numpy(np.int64)
    return pd.DataFrame(
        {
            "bin_id": bins,
            "start": fresh_start + np.cumsum(counts) - counts,
            "combo_id": best[bins].astype(np.int64),
        }
    )


def complete_fk(
    spark: SparkSession,
    vjoin_df: DataFrame,
    r2_with_combo: DataFrame,
    r2_df: DataFrame,
    combos: Combos,
    binning: Binning,
    dcs: list[DC],
    ccs: list[CC],
    *,
    alloc: pd.DataFrame,
    max_key: int,
    r2_first: dict | None,
    strategy: str = "coloring",
    r1_key: str = "p_id",
    r2_key: str = "h_id",
    fk: str = "h_id",
    seed: int = 0,
) -> tuple[DataFrame, DataFrame]:
    """Run Algorithm 4 on the driver. Returns (r1_hat, r2_hat).

    ``vjoin_df`` must carry ``p_id``, then the other R1 columns, then
    ``bin_id`` and a non-null ``combo_id`` (INVALID_COMBO for invalid
    tuples), and ``r2_with_combo`` R2's ``(r2_key, combo_id)`` pairs.
    ``r1_hat`` is the V_Join rows without ``bin_id`` and ``combo_id``,
    with the ``fk`` column added and ``p_id`` renamed to ``r1_key``.
    ``alloc`` is phase I's ``(bin_id, combo_id, count)`` table, whose rows
    place every V_Join row (every count positive): its per-combo sums size
    each partition's fresh-key range and its invalid rows give the per-bin
    counts of the invalid tuples. ``max_key`` is the largest key in
    ``r2_df`` and ``r2_first`` its smallest-key row as a column → value dict
    (None when ``r2_df`` is empty); fresh households copy their non-combo
    columns from it.
    """
    invalid = alloc["combo_id"] == INVALID_COMBO
    sizes = alloc[~invalid].groupby("combo_id")["count"].sum()
    bases = _key_bases({int(c): int(n) for c, n in sizes.items()}, max_key)
    fresh_start = max_key + 1 + int(sizes.sum())
    inv = solve_invalid_tuples(
        alloc[invalid].groupby("bin_id")["count"].sum(), ccs, binning, combos, fresh_start
    )
    # every fresh key's range: one per partition, then one per invalid bin
    starts = np.array([*bases.values(), *inv["start"]], dtype=np.int64)
    owners = np.array([*bases, *inv["combo_id"]], dtype=np.int64)
    bases[INVALID_COMBO] = fresh_start

    fn = (
        _coloring_fn(dcs, bases, r2_key, fk)
        if strategy == "coloring"
        else _random_fn(seed, bases, r2_key, fk)
    )
    left = vjoin_df.toPandas()
    right = r2_with_combo.toPandas()
    out = fn((), left, right).rename(columns={"p_id": r1_key})
    rows = vjoin_df.drop("bin_id", "combo_id").withColumnRenamed("p_id", r1_key)
    schema = rows.withColumn(fk, F.lit(None).cast("long")).schema  # nullable FK
    r1_hat = spark.createDataFrame(out, schema)

    keys = out[fk].to_numpy(np.int64)
    fresh = np.unique(keys[keys > max_key])
    owner = owners[np.searchsorted(starts, fresh, "right") - 1]
    r2_hat = r2_df
    if len(fresh):
        new = pd.DataFrame({r2_key: fresh, "combo_id": owner})
        new_df = spark.createDataFrame(
            _new_households(new, r2_df.columns, r2_first, combos, r2_key),
            schema=r2_df.schema,
        )
        r2_hat = r2_df.unionByName(new_df)
    return r1_hat, r2_hat


def _new_households(
    new: pd.DataFrame,
    columns: list[str],
    r2_first: dict | None,
    combos: Combos,
    r2_key: str,
) -> pd.DataFrame:
    """R2 rows for the fresh keys and combos of ``new``: the combo's active
    values, and the other columns copied from ``r2_first``, R2's
    smallest-key row (null if R2 is empty)."""
    active = combos.active_cols
    defaults = pd.DataFrame([r2_first or {}], columns=columns)
    new = new.merge(combos.table[["combo_id", *active]], on="combo_id")
    new = new.merge(defaults.drop(columns=[r2_key, *active]), how="cross")
    return new[columns]
