"""Outside-in tracing of one ``c_extension`` solve.

Spans are recorded from the benchmark's own files, never from ``src/``:

* the public functions of each layer are wrapped where their callers look
  them up (``repro.core.pipeline.hybrid_phase1``,
  ``repro.core.ilp_phase.solve_ilp``, ...);
* Spark actions (``DataFrame.toPandas/collect/count`` and
  ``SparkSession.createDataFrame``) are wrapped at the class and tagged with
  the calling ``repro`` function and source line, which attributes the bin
  histogram, the V_Join count and the second phase-II execution hidden in
  ``r1_hat.count()``;
* Spark jobs, stages and tasks are counted per job group.

Spans stay in memory until the run writes them out. ``enumerate_edges`` and
``color_with_extension`` run inside Spark's Python workers, where a driver
wrapper cannot see them; :func:`replay_phase2` calls phase II's own
per-partition function on the driver over the same partitions instead, with
those two traced.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import linecache
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


#: (module, attribute, span name): layer functions, patched where looked up.
LAYER_FUNCTIONS = [
    ("repro.core.binning", "Binning.build", "binning.Binning.build"),
    ("repro.core.binning", "Combos.build", "binning.Combos.build"),
    ("repro.core.pipeline", "hybrid_phase1", "hybrid.hybrid_phase1"),
    ("repro.core.pipeline", "baseline_phase1", "baseline.baseline_phase1"),
    ("repro.core.hybrid", "build_structure", "hasse.build_structure"),
    ("repro.core.hybrid", "split_s1_s2", "hasse.split_s1_s2"),
    ("repro.core.hybrid", "alg2_allocate", "hasse.alg2_allocate"),
    ("repro.core.hybrid", "alg1_allocate", "ilp_phase.alg1_allocate"),
    ("repro.core.baseline", "alg1_allocate", "ilp_phase.alg1_allocate"),
    ("repro.core.hybrid", "resolve_partials", "hybrid.resolve_partials"),
    ("repro.core.hybrid", "fill_leftovers", "hybrid.fill_leftovers"),
    ("repro.core.ilp_phase", "solve_ilp", "ilp.solve_ilp"),
    ("repro.ilp.branch_bound", "solve_lp", "ilp.solve_lp"),
    ("repro.core.pipeline", "materialize_vjoin", "allocation.materialize_vjoin"),
    ("repro.core.pipeline", "mark_null_combos_invalid", "allocation.mark_null_combos_invalid"),
    ("repro.core.pipeline", "fill_null_combos_random", "allocation.fill_null_combos_random"),
    ("repro.core.pipeline", "complete_fk", "phase2.complete_fk"),
    ("repro.core.phase2", "_coloring_fn", "phase2._coloring_fn"),
    ("repro.core.phase2", "solve_invalid_tuples", "phase2.solve_invalid_tuples"),
    ("repro.core.metrics", "cc_report", "metrics.cc_report"),
    ("repro.core.metrics", "dc_error", "metrics.dc_error"),
]

#: Wrapped only during the replay: the per-partition function that
#: ``_coloring_fn`` returns is shipped to Spark's workers by value, with the
#: module globals it reads, so a wrapper must not be in place while it runs
#: there.
REPLAY_FUNCTIONS = [
    ("repro.core.phase2", "enumerate_edges", "conflict.enumerate_edges"),
    ("repro.core.phase2", "color_with_extension", "coloring.color_with_extension"),
]

SPARK_ACTIONS = ("toPandas", "collect", "count")

#: Calls whose arguments and results the metrics read after the solve.
KEEP_CALLS = {
    "binning.Binning.build",
    "binning.Combos.build",
    "hasse.split_s1_s2",
    "hasse.alg2_allocate",
    "ilp_phase.alg1_allocate",
    "hybrid.hybrid_phase1",
    "phase2.complete_fk",
    "phase2._coloring_fn",
    "conflict.enumerate_edges",
    "coloring.color_with_extension",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.calls: dict[str, list] = {}  # span name -> [(args, kwargs, result)]

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        s = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None, attrs=attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, *, tag_caller: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = _caller() if tag_caller else {}
            with tracer.span(name, **attrs):
                out = fn(*args, **kwargs)
            if name in KEEP_CALLS:
                tracer.calls.setdefault(name, []).append((args, kwargs, out))
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self, spark, functions=LAYER_FUNCTIONS):
        """Wrap ``functions`` and, unless ``spark`` is None, the Spark actions
        for the block."""
        undo = []

        def patch(owner, attr: str, wrapper) -> None:
            static = inspect.getattr_static(owner, attr)
            undo.append((owner, attr, static if attr in vars(owner) else None))
            setattr(owner, attr, staticmethod(wrapper) if isinstance(static, staticmethod) else wrapper)

        try:
            for mod_name, path, name in functions:
                owner = importlib.import_module(mod_name)
                *head, attr = path.split(".")
                for part in head:
                    owner = getattr(owner, part)
                patch(owner, attr, self._wrap(getattr(owner, attr), name))
            if spark is not None:
                df_cls, ss_cls = type(spark.range(1)), type(spark)
                for action in SPARK_ACTIONS:
                    patch(df_cls, action, self._wrap(getattr(df_cls, action), f"spark.{action}", tag_caller=True))
                patch(ss_cls, "createDataFrame",
                      self._wrap(ss_cls.createDataFrame, "spark.createDataFrame", tag_caller=True))
            yield self
        finally:
            for owner, attr, static in reversed(undo):
                if static is None:  # was inherited: drop the override
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, static)

    # -- queries -------------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s.dur for s in self.spans if s.name == name)

    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def covered(self, idx: int) -> float:
        """Wall time of span ``idx`` covered by its children (one thread, so
        children never overlap)."""
        return sum(c.dur for c in self.children(idx))

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


def _caller() -> dict:
    """The innermost ``repro`` frame that triggered a Spark action."""
    f = sys._getframe(2)
    while f is not None:
        mod = f.f_globals.get("__name__", "")
        if mod.startswith("repro."):
            line = linecache.getline(f.f_code.co_filename, f.f_lineno).strip()
            return {"caller": f"{mod}.{f.f_code.co_name}", "line": line}
        f = f.f_back
    return {"caller": "benchmark", "line": ""}


@contextlib.contextmanager
def job_group(spark, group: str):
    """Tag every Spark job started inside the block with ``group``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        yield
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def job_counts(spark, group: str, wait_s: float = 5.0) -> dict:
    """Jobs, stages that ran tasks, and tasks completed for ``group``."""
    tracker = spark.sparkContext.statusTracker()
    deadline = time.monotonic() + wait_s
    while True:  # the status store is updated asynchronously
        jobs = sorted(tracker.getJobIdsForGroup(group))
        infos = [tracker.getJobInfo(j) for j in jobs]
        if all(i is not None and i.status != "RUNNING" for i in infos) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    stages = {sid for i in infos if i is not None for sid in i.stageIds}
    ran = [si for si in (tracker.getStageInfo(s) for s in stages) if si and si.numCompletedTasks > 0]
    return {
        "jobs": len(jobs),
        "stages": len(ran),
        "tasks": sum(si.numCompletedTasks for si in ran),
    }


def replay_phase2(tracer: Tracer) -> dict:
    """Re-run phase II's per-partition work on the driver, without Spark.

    Calls the function ``complete_fk`` handed to ``applyInPandas`` (the one
    ``phase2._coloring_fn`` returned during the traced solve) once per
    ``combo_id`` partition, on the valid V_Join rows and R2 rows that
    ``complete_fk`` cogroups, with ``enumerate_edges`` and
    ``color_with_extension`` traced where that function looks them up. Rows
    arrive in a different order than in the Spark workers, so colors can
    differ; counts and times are what this measures. Without coloring (the
    baseline's random assignment) only the partition sizes are reported.
    """
    import numpy as np
    from pyspark.sql import functions as F
    from repro.core.hybrid import INVALID_COMBO
    from repro.core.phase2 import complete_fk

    (fk_args, fk_kwargs, _), = tracer.calls["phase2.complete_fk"]
    p = inspect.signature(complete_fk).bind(*fk_args, **fk_kwargs).arguments
    valid = p["vjoin_df"].filter(F.col("combo_id") != INVALID_COMBO).toPandas()
    groups = {int(k): g for k, g in valid.groupby("combo_id")}
    sizes = [len(g) for g in groups.values()]
    edges_n, colors, fresh = [], 0, 0
    built = tracer.calls.get("phase2._coloring_fn", [])
    if built:
        (*_, fn), = built
        r2c = p["r2_with_combo"].toPandas()
        r2_groups = {int(k): g for k, g in r2c.groupby("combo_id")}
        with tracer.installed(None, REPLAY_FUNCTIONS):
            for cid in sorted(groups):
                fn((cid,), groups[cid], r2_groups.get(cid, r2c.iloc[:0]))
                (*_, edges), = tracer.calls.pop("conflict.enumerate_edges")
                (*_, (c, used)), = tracer.calls.pop("coloring.color_with_extension")
                edges_n.append(len(edges))
                colors += len(set(c.values()))
                fresh += len(used)
    enum_t = [s.dur for s in tracer.spans if s.name == "conflict.enumerate_edges"]
    color_t = [s.dur for s in tracer.spans if s.name == "coloring.color_with_extension"]
    return {
        "phase2.partitions": len(sizes),
        "phase2.partition_max": max(sizes, default=0),
        "phase2.partition_median": float(np.median(sizes)) if sizes else 0.0,
        "conflict.enumerate_s": sum(enum_t),
        "conflict.enumerate_max_s": max(enum_t, default=0.0),
        "conflict.edges_total": sum(edges_n),
        "conflict.edges_max_partition": max(edges_n, default=0),
        "coloring.color_s": sum(color_t),
        "coloring.color_max_s": max(color_t, default=0.0),
        "coloring.colors_used": colors,
        "coloring.fresh_colors": fresh,
    }
