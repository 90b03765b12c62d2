"""Shared benchmark plumbing: cached datasets and the CSV dump.

Each ``bench_fig*.py`` parametrizes over the paper table's cells; every cell
runs the full pipeline once through ``repro.experiments.run_cell``
(``pedantic(rounds=1)`` — these are end-to-end system benchmarks, not
microbenchmarks). Error metrics go into ``benchmark.extra_info`` and
accumulate into ``results/<table>.csv`` via a session finalizer, so
``pytest benchmarks/ --benchmark-only`` leaves both the timing table and
the error tables behind.
"""
from __future__ import annotations

import atexit
import os
from collections import defaultdict

import pandas as pd

from repro import census
from repro.experiments import SEED, SHRINK

_DB_CACHE: dict = {}
_RESULTS: dict[str, list[dict]] = defaultdict(list)
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def get_db(scale: float, n_r2_cols: int = 2) -> census.CensusDB:
    key = (scale, n_r2_cols)
    if key not in _DB_CACHE:
        _DB_CACHE[key] = census.generate(
            scale=scale, shrink=SHRINK, seed=SEED, n_r2_cols=n_r2_cols
        )
    return _DB_CACHE[key]


def record(table: str, row: dict, benchmark=None) -> None:
    _RESULTS[table].append(row)
    if benchmark is not None:
        benchmark.extra_info.update(row)


@atexit.register
def _dump() -> None:
    if not _RESULTS:
        return
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    for table, rows in _RESULTS.items():
        pd.DataFrame(rows).to_csv(
            os.path.join(_RESULTS_DIR, f"{table}.csv"), index=False
        )
