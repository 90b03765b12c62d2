"""Process environment, SparkSession lifecycle, memory and the environment stamp.

Everything the benchmark writes (Spark shuffle files, JVM and Python temp
files, result files) goes under ``perfbench/out/`` of the checkout it runs in.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SHUFFLE_PARTITIONS = 64


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def mem_total_kb() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return 0


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of MemTotal clamped to 2-4 GiB."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    gib = mem_total_kb() // (1 << 21)
    return f"{min(4, max(2, gib))}g"


def configure(root: Path) -> dict:
    """Set the environment the JVM and the Python workers inherit.

    Must run before pyspark launches its JVM. Makes ``repro`` importable in
    the driver and in Spark's Python workers, and keeps every temp file
    inside the checkout. Returns the Spark settings for the stamp.
    """
    out = root / "perfbench" / "out"
    tmp, local = out / "tmp", out / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    settings = {
        "master": f"local[{nproc()}]",
        "driver_memory": driver_memory(),
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "arrow": True,
        "auto_broadcast_join_threshold": -1,
    }
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master", settings["master"],
            "--driver-memory", settings["driver_memory"],
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", shlex.quote(f"spark.local.dir={local}"),
            "--driver-java-options", shlex.quote(java_opts),
            "pyspark-shell",
        ]
    )
    return settings


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _parents() -> dict[int, int]:
    """pid -> parent pid for every visible process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        out[int(d)] = int(stat[stat.rindex(")") + 2 :].split()[1])
    return out


def descendants() -> list[int]:
    """Every process started, directly or not, by this one."""
    kids: dict[int, list[int]] = {}
    for p, pp in _parents().items():
        kids.setdefault(pp, []).append(p)
    out, todo = [], list(kids.get(os.getpid(), []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _vm_hwm_kb(pid: int) -> tuple[str, int]:
    name, hwm = "", 0
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Name:"):
                    name = line.split()[1]
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
    except OSError:
        pass
    return name, hwm


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def driver_peak_kb() -> int:
    """VmHWM of this process since start or the last :func:`reset_peak_rss`."""
    return _vm_hwm_kb(os.getpid())[1]


def peak_rss_mb(driver_kb: int) -> float:
    """``driver_kb`` plus the peak RSS (VmHWM) of the non-JVM descendants, in MB.

    The descendants are Spark's Python daemon and workers; the JVM is left
    out because its heap size is set by ``--driver-memory``, not by the
    program.
    """
    total = driver_kb
    for p in descendants():
        name, hwm = _vm_hwm_kb(p)
        if name != "java":
            total += hwm
    return total / 1024.0


def stop_spark(spark, timeout: float = 60.0) -> None:
    """Stop Spark, end the JVM and wait until every child process is gone."""
    from pyspark import SparkContext

    kids = descendants()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + timeout
    while alive := [p for p in kids if _alive(p)]:
        if time.monotonic() > deadline:
            for p in alive:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(p, signal.SIGKILL)
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and has not exited (zombies count as ended)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    try:
        r = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def stamp(root: Path, settings: dict, seed: int) -> dict:
    """The environment every result is recorded with."""
    import numpy
    import pandas
    import pyspark

    return {
        "nproc": nproc(),
        "mem_total_kb": mem_total_kb(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "spark": settings,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "seed": seed,
    }
