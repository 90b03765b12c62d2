"""Shared benchmark plumbing: the CSV dump.

``bench_tables.py`` parametrizes over the cells of the paper's tables; every
cell runs the full pipeline once through ``repro.experiments.run_table``
(``pedantic(rounds=1)`` — these are end-to-end system benchmarks, not
microbenchmarks). Each benchmark's row goes into ``benchmark.extra_info``
and accumulates into ``results/<table>.csv`` via a session finalizer, so
``pytest benchmarks/ --benchmark-only`` leaves both the timing table and
the error tables behind.
"""
from __future__ import annotations

import atexit
import os
from collections import defaultdict

import pandas as pd

_RESULTS: dict[str, list[dict]] = defaultdict(list)
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


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
