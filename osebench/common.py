"""Shared plumbing for the workloads: environment, set-up samples, stats.

Everything here runs in the benchmark process.  It is imported only after
``run.py`` has pinned the BLAS thread count, so numpy starts with the pin
already in force.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Thread-count variables pinned to 1 in this process and every child.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Scratch area inside the checkout; removed per run except results.
WORK_ROOT = Path(".osebench")

#: Fresh-interpreter set-up samples per run (median reported as setup_s).
SETUP_SAMPLES = 5


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = "1"
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def openblas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def src_tree_sha256() -> str:
    """Content hash of ``src/`` — the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint(child_pins: Dict[str, Any]) -> Dict[str, Any]:
    """The environment every result is stamped with."""
    import numpy
    import scipy
    from repro.utils.parallel import available_cpus

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "available_cpus": available_cpus(),
        "blas_threads_benchmark": openblas_threads(),
        "blas_env_children": child_pins,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(),
        "src_sha256": src_tree_sha256(),
    }


def fresh_dir(name: str) -> Path:
    """An empty scratch directory under :data:`WORK_ROOT`."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def result_path(name: str) -> Path:
    """Where a run leaves an output file (overwritten by the next run)."""
    WORK_ROOT.mkdir(exist_ok=True)
    return WORK_ROOT / name


def set_up_in_child(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits.

    This is what a user pays before the first result: interpreter start,
    imports and input construction.
    """
    # A blocking wait: ``subprocess.run(timeout=...)`` polls with sleeps
    # of up to 50 ms, which would quantize the sample.  A timer kills a
    # child that hangs instead.
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=child_env())
    guard = threading.Timer(120, proc.kill)
    guard.start()
    try:
        status = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - started
    if status != 0:
        raise subprocess.CalledProcessError(status, "set-up child")
    return elapsed


def sample_points(samples: int, units: int) -> List[int]:
    """Unit indices before which a set-up sample is taken.

    Spreads the samples over the run so that a slow stretch of the host
    moves a minority of them, not all.
    """
    return [i * units // samples for i in range(samples)]


def settle() -> None:
    """Between units: drop garbage so one unit's debris does not bill the
    next one."""
    gc.collect()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail_percentile(samples: int) -> float:
    """The highest percentile, at most 99, with at least ten samples
    beyond it (the largest sample when there are ten or fewer)."""
    if samples <= 10:
        return 100.0
    return min(99.0, 100.0 * (samples - 10) / samples)


def grouped_median(groups: Sequence[Sequence[float]]) -> float:
    """Geometric mean of each group's median latency.

    A group is one operation class within one unit, a size the benchmark
    fixes: one search's probes, one request class of one deck, or one
    sweep's warm re-runs.  Every group weighs the same, so the figure does
    not depend on how many operations of each class a run holds.  It
    cannot jump between the clusters the classes form, and it moves in
    proportion to the share of a run the host spends in a slow phase,
    where a pooled median jumps to the slow mode once that share passes
    one half.
    """
    medians = [statistics.median(group) for group in groups if group]
    return math.exp(statistics.fmean(math.log(x) for x in medians))


def end_to_end(setups: Sequence[float], walls: Sequence[float],
               groups: Sequence[Sequence[float]], peak_mb: float
               ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The end-to-end metric block every workload prints, and the
    per-run details written beside it.

    ``groups`` holds the operation latencies by group (see
    :func:`grouped_median`); the tail pools them.  ``peak_mb`` is read by
    the caller after the last timed unit and before any check runs.
    """
    latencies = [x for group in groups for x in group]
    tail = tail_percentile(len(latencies))
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
        "latency_p50_ms": {"value": 1e3 * grouped_median(groups),
                           "unit": "ms"},
        "latency_tail_ms": {"value": 1e3 * percentile(latencies, tail),
                            "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    details = {"setup_samples_s": list(setups), "unit_walls_s": list(walls),
               "group_p50_ms": [1e3 * statistics.median(group)
                                for group in groups if group],
               "group_sizes": [len(group) for group in groups],
               "latency_samples": len(latencies),
               "latency_tail_percentile": tail}
    return metrics, details


def canonical(value: Any) -> str:
    """Byte-comparable JSON for output checks."""
    return json.dumps(value, sort_keys=True, allow_nan=False)


class Checks:
    """Counts operations attempted and failed; remembers what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
