"""Phase II — Algorithm 4: complete ``R1.FK`` from the filled-in V_Join.

The paper's key optimization (§5.2) — partitioning V_Join and R2 by the
assigned B-values, since candidate FK sets are disjoint across partitions —
maps directly onto Spark:
``vjoin.groupBy(combo).cogroup(r2.groupBy(combo)).applyInPandas(...)``.
Each partition independently builds its conflict hypergraph (a dense
boolean matrix over its tuples, :mod:`.conflict`) and runs the largest-first
list coloring on it (§A.3 notes this parallelism explicitly). Rows are
sorted by ``p_id`` first, so the coloring does not depend on the order in
which Spark delivers them.

Skipped vertices take fresh colors = fresh R2 keys; per-partition key ranges
are pre-reserved on the driver from each partition's size in phase I's
allocation table (a partition can never need more new keys than it has
tuples), so fresh keys are globally unique without coordination.

Invalid tuples (no B-assignment possible in phase I) are resolved last on
the driver: each gets a fresh household whose B-values minimise added CC
error (the paper's ``solveInvalidTuples`` strategy).

Each partition returns its V_Join rows, sorted by ``p_id``, as ``R̂1``
rows: ``bin_id`` and ``combo_id`` dropped, the FK added. V_Join carries
every R1 column, so ``R̂1`` is the cogroup's output plus the invalid
tuples' V_Join rows, which take their FKs through a broadcast join. The
coloring runs once, in the single action that materialises the persisted
``R̂1``; ``R̂2``'s fresh households are read back from it (a fresh key's
combo is the partition whose reserved range holds it). ``R̂1`` is cached
hash-partitioned on ``p_id`` into ``defaultParallelism`` partitions. The
exchange also keeps the cogroup from being the cached plan's final stage,
whose partitioning adaptive execution may not change: there the cogroup
would run as all its shuffle partitions over several Python workers,
while behind the exchange its small input is coalesced into one task.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .binning import Binning, Combos, Coverage
from .coloring import color_with_extension
from .conflict import enumerate_edges
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


def _coloring_fn(dcs: list[DC], bases: dict[int, int], r2_key: str, fk: str):
    def fn(key, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return pd.DataFrame()
        combo_id = int(key[0])
        lp = left.sort_values("p_id").reset_index(drop=True)
        keys = sorted(int(k) for k in right[r2_key].tolist())
        graph = enumerate_edges(lp, dcs)
        c, _ = color_with_extension(graph, keys, bases[combo_id])
        return _completed(lp, fk, np.array([c[i] for i in range(len(lp))]))

    return fn


def _random_fn(seed: int, bases: dict[int, int], r2_key: str, fk: str):
    """Baseline phase II: uniformly random candidate key per tuple; with no
    candidate (no R2 row has the combo) each tuple gets its own fresh key
    from the partition's reserved range."""

    def fn(key, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return pd.DataFrame()
        combo_id = int(key[0])
        g = np.random.default_rng(seed + combo_id)
        keys = np.sort(right[r2_key].to_numpy())
        if len(keys):
            h_id = g.choice(keys, size=len(left))
        else:
            h_id = bases[combo_id] + np.arange(len(left))
        return _completed(left.sort_values("p_id"), fk, h_id)

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
    invalid tuples exist. ``max_key`` is the largest key in ``r2_df``.
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
    r1_hat = (
        vjoin_df.filter(F.col("combo_id") != INVALID_COMBO)
        .groupBy("combo_id")
        .cogroup(r2_with_combo.groupBy("combo_id"))
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
            _new_households(new_pairs, r2_df, combos, r2_key), schema=r2_df.schema
        )
        r2_hat = r2_df.unionByName(new_df)
    return r1_hat, r2_hat


def _new_households(
    new_pairs: pd.DataFrame, r2_df: DataFrame, combos: Combos, r2_key: str
) -> pd.DataFrame:
    """R2 rows for fresh keys: the combo's active values, and the other
    columns copied from the R2 row with the smallest key (null if R2 is
    empty)."""
    active = combos.active_cols
    defaults = r2_df.orderBy(r2_key).limit(1).toPandas().reindex([0])
    new = new_pairs.rename(columns={"h_id": r2_key}).merge(
        combos.table[["combo_id", *active]], on="combo_id"
    )
    new = new.merge(defaults.drop(columns=[r2_key, *active]), how="cross")
    return new[r2_df.columns]
