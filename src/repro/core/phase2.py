"""Phase II — Algorithm 4: complete ``R1.FK`` from the filled-in V_Join.

The paper's key optimization (§5.2) — partitioning V_Join and R2 by the
assigned B-values, since candidate FK sets are disjoint across partitions —
runs inside one Spark cogroup:
``vjoin.groupBy(bucket).cogroup(r2.groupBy(bucket)).applyInPandas(...)``
over a constant bucket, so each task makes one Python call, and Spark's
grouped-map round trip and the DC predicates are paid once per task rather
than once per combo. That call builds one type conflict matrix over all
its rows (:func:`.conflict.type_conflicts`), then takes its combos in
``combo_id`` order: each builds its conflict hypergraph (a dense boolean
matrix over its tuples, gathered from the type matrix) and runs the
largest-first list coloring on it, exactly as it would on its own frames.
Rows are sorted by ``p_id`` within each combo first, so the coloring does
not depend on the order in which Spark delivers them.

The coloring's candidate list is the partition's R2 keys followed by its
fresh keys: each partition reserves, on the driver, a range of as many
fresh keys as it has tuples in phase I's allocation table, and the
coloring never leaves that range, so fresh keys are globally unique
without coordination.

Invalid tuples (no B-assignment possible in phase I) are resolved last on
the driver: each gets a fresh household whose B-values minimise added CC
error (the paper's ``solveInvalidTuples`` strategy).

The task returns its V_Join rows, sorted by ``combo_id`` and ``p_id``, as
``R̂1`` rows: ``bin_id`` and ``combo_id`` dropped, the FK added. V_Join
carries every R1 column, so ``R̂1`` is the cogroup's output plus the
invalid tuples' V_Join rows, which take their FKs through a broadcast join.
The coloring runs once, in the single action that materialises the
persisted ``R̂1``; ``R̂2``'s fresh households are read back from it (a fresh
key's combo is the partition whose reserved range holds it) and copy their
other columns from R2's smallest-key row, which the pipeline's R2
aggregation already yields. ``R̂1`` is cached hash-partitioned on ``p_id``
into ``defaultParallelism`` partitions. The exchange also keeps the cogroup
from being the cached plan's final stage, whose partitioning adaptive
execution may not change: there the cogroup would run as all its shuffle
partitions over several Python workers, while behind the exchange its small
input is coalesced into one task.
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


def _completed(rows: pd.DataFrame, fk: str, keys: np.ndarray) -> pd.DataFrame:
    """V_Join ``rows`` as ``R̂1`` rows: ``bin_id``/``combo_id`` out, ``fk`` in."""
    out = rows.drop(columns=["bin_id", "combo_id"])
    return out.assign(**{fk: keys.astype(np.int64)})


def _combo_rows(left: pd.DataFrame) -> list[tuple[int, np.ndarray]]:
    """(combo_id, row positions) of each combo in ``left``, by ``combo_id``."""
    groups = left.groupby("combo_id").indices
    return sorted((int(c), idx) for c, idx in groups.items())


def _keys_by_combo(right: pd.DataFrame, r2_key: str) -> dict[int, list[int]]:
    """Each combo's sorted R2 keys."""
    groups = right.groupby("combo_id")[r2_key]
    return {int(c): sorted(keys.tolist()) for c, keys in groups}


def _coloring_fn(dcs: list[DC], bases: dict[int, int], r2_key: str, fk: str):
    """Algorithm 4 over V_Join rows of one or more combos: one type matrix
    for all the rows, then each combo colored as on its own frames."""

    def fn(key, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return pd.DataFrame()
        left = left.sort_values(["combo_id", "p_id"]).reset_index(drop=True)
        conf, codes = type_conflicts(left, dcs)
        r2_keys = _keys_by_combo(right, r2_key)
        out = np.empty(len(left), dtype=np.int64)
        for combo_id, idx in _combo_rows(left):
            graph = enumerate_edges(left.iloc[idx], dcs, (conf, codes[idx]))
            colors = r2_keys.get(combo_id, [])
            c, _ = color_with_extension(graph, colors, bases[combo_id])
            out[idx] = [c[i] for i in range(len(idx))]
        return _completed(left, fk, out)

    return fn


def _random_fn(seed: int, bases: dict[int, int], r2_key: str, fk: str):
    """Baseline phase II: uniformly random candidate key per tuple; with no
    candidate (no R2 row has the combo) each tuple gets its own fresh key
    from the partition's reserved range. Combos are drawn one after another
    in ``combo_id`` order, each from its own seeded generator."""

    def fn(key, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return pd.DataFrame()
        left = left.sort_values(["combo_id", "p_id"]).reset_index(drop=True)
        r2_keys = _keys_by_combo(right, r2_key)
        out = np.empty(len(left), dtype=np.int64)
        for combo_id, idx in _combo_rows(left):
            g = np.random.default_rng(seed + combo_id)
            keys = r2_keys.get(combo_id)
            if keys:
                out[idx] = g.choice(keys, size=len(idx))
            else:
                out[idx] = bases[combo_id] + np.arange(len(idx))
        return _completed(left, fk, out)

    return fn


def solve_invalid_tuples(
    invalid_pdf: pd.DataFrame,
    ccs: list[CC],
    binning: Binning,
    combos: Combos,
    fresh_start: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Assign each invalid tuple a fresh household minimising added CC error.

    Returns (assignments[p_id, h_id, combo_id], new_households[h_id,
    combo_id]). A tuple alone in a fresh household cannot violate any
    Foreign-Key DC (arity ≥ 2), so DC satisfaction is preserved. The best
    combo depends only on the tuple's bin: the lowest-id minimum of the
    bin's row of the CC-coverage count; fresh keys follow ``p_id`` order.
    """
    if invalid_pdf.empty:
        empty = pd.DataFrame(columns=["p_id", "h_id", "combo_id"], dtype=np.int64)
        return empty, empty[["h_id", "combo_id"]]
    best = Coverage.build(ccs, binning, combos).count.argmin(axis=1)
    inv = invalid_pdf.sort_values("p_id")
    assign = pd.DataFrame(
        {
            "p_id": inv["p_id"].to_numpy(np.int64),
            "h_id": np.arange(fresh_start, fresh_start + len(inv), dtype=np.int64),
            "combo_id": best[inv["bin_id"].to_numpy(np.int64)],
        }
    )
    return assign, assign[["h_id", "combo_id"]]


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
    sizes: dict[int, int],
    max_key: int,
    r2_first: dict | None,
    strategy: str = "coloring",
    r1_key: str = "p_id",
    r2_key: str = "h_id",
    fk: str = "h_id",
    seed: int = 0,
) -> tuple[DataFrame, DataFrame]:
    """Run Algorithm 4. Returns (r1_hat, r2_hat); ``r1_hat`` is persisted.

    ``vjoin_df`` must carry ``p_id``, then the other R1 columns, then
    ``bin_id`` and a non-null ``combo_id`` (INVALID_COMBO for invalid
    tuples). ``r1_hat`` is those rows without ``bin_id`` and ``combo_id``,
    with the ``fk`` column added and ``p_id`` renamed to ``r1_key``.
    ``sizes`` maps each ``combo_id`` to its number of V_Join rows, as phase
    I's allocation table gives it (its per-combo ``count`` sums; every count
    positive): it sizes each partition's fresh-key range and tells whether
    invalid tuples exist. ``max_key`` is the largest key in ``r2_df`` and
    ``r2_first`` its smallest-key row as a column → value dict (None when
    ``r2_df`` is empty); fresh households copy their non-combo columns from
    it.
    """
    valid_sizes = {c: n for c, n in sizes.items() if c != INVALID_COMBO}
    bases = _key_bases(valid_sizes, max_key)
    fresh_start = max_key + 1 + sum(valid_sizes.values())

    fn = (
        _coloring_fn(dcs, bases, r2_key, fk)
        if strategy == "coloring"
        else _random_fn(seed, bases, r2_key, fk)
    )
    rows = vjoin_df.drop("bin_id", "combo_id")
    schema = rows.withColumn(fk, F.lit(None).cast("long")).schema  # nullable FK
    # one group per task: the function walks its combos itself
    bucket = F.lit(0).alias("bucket")
    r1_hat = (
        vjoin_df.filter(F.col("combo_id") != INVALID_COMBO)
        .groupBy(bucket)
        .cogroup(r2_with_combo.groupBy(bucket))
        .applyInPandas(fn, schema)
    )

    invalid = vjoin_df.filter(F.col("combo_id") == INVALID_COMBO)
    invalid_pdf = pd.DataFrame({"p_id": [], "bin_id": []})
    if sizes.get(INVALID_COMBO):
        invalid_pdf = invalid.select("p_id", "bin_id").toPandas()
    inv_assign, inv_new = solve_invalid_tuples(
        invalid_pdf, ccs, binning, combos, fresh_start
    )
    if len(inv_assign):
        inv_fk = spark.createDataFrame(
            inv_assign[["p_id", "h_id"]].rename(columns={"h_id": fk})
        )
        r1_hat = r1_hat.unionByName(
            invalid.drop("bin_id", "combo_id").join(F.broadcast(inv_fk), on="p_id")
        )

    if r1_key != "p_id":
        r1_hat = r1_hat.withColumnRenamed("p_id", r1_key)
    r1_hat = r1_hat.repartition(spark.sparkContext.defaultParallelism, r1_key).persist()

    # new households = fresh keys used by coloring + invalid resolutions. This
    # scan fills the whole cache of r1_hat (a filter never reaches below a
    # cached relation), so it is the one run of the coloring.
    fresh = np.unique(
        r1_hat.filter((F.col(fk) > max_key) & (F.col(fk) < fresh_start))
        .select(fk)
        .toPandas()[fk]
        .to_numpy(np.int64)
    )
    # a fresh key belongs to the partition whose reserved range holds it
    combo_ids = np.array(sorted(bases), dtype=np.int64)
    owner = np.searchsorted([bases[c] for c in combo_ids], fresh, "right") - 1
    colored = pd.DataFrame({"h_id": fresh, "combo_id": combo_ids[owner]})
    new_pairs = pd.concat([colored, inv_new], ignore_index=True)
    r2_hat = r2_df
    if len(new_pairs):
        new_df = spark.createDataFrame(
            _new_households(new_pairs, r2_df.columns, r2_first, combos, r2_key),
            schema=r2_df.schema,
        )
        r2_hat = r2_df.unionByName(new_df)
    return r1_hat, r2_hat


def _new_households(
    new_pairs: pd.DataFrame,
    columns: list[str],
    r2_first: dict | None,
    combos: Combos,
    r2_key: str,
) -> pd.DataFrame:
    """R2 rows for fresh keys: the combo's active values, and the other
    columns copied from ``r2_first``, R2's smallest-key row (null if R2 is
    empty)."""
    active = combos.active_cols
    defaults = pd.DataFrame([r2_first or {}], columns=columns)
    new = new_pairs.rename(columns={"h_id": r2_key}).merge(
        combos.table[["combo_id", *active]], on="combo_id"
    )
    new = new.merge(defaults.drop(columns=[r2_key, *active]), how="cross")
    return new[columns]
