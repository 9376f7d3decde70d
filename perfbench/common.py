"""Shared helpers: repo location, set-up timing, statistics, resources.

Nothing here imports the program; :func:`src_dir` only locates it, so a
checkout without ``src/repro`` fails before any measurement starts.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class BenchError(Exception):
    """The benchmark cannot run here (not a failed correctness check)."""


def src_dir() -> str:
    """The checkout's ``src`` directory; raises when the program is absent."""
    path = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(path, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {path}")
    return path


def run_dir(name: str) -> str:
    """A working directory inside the checkout, relative to the cwd when
    possible so unix-socket paths stay short."""
    path = os.path.join(ROOT, ".bench_run", name)
    os.makedirs(path, exist_ok=True)
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


def time_imports(modules: Sequence[str]) -> float:
    """Median seconds a fresh interpreter spends importing ``modules``.

    Each sample runs in a child interpreter (the only way to import a
    package more than once); the child times its own imports, so
    interpreter start-up is excluded.
    """
    code = ("import sys, time\n"
            f"sys.path.insert(0, {src_dir()!r})\n"
            "t = time.perf_counter()\n"
            + "".join(f"import {name}\n" for name in modules)
            + "print(time.perf_counter() - t)\n")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def median_build(build: Callable[[], T]) -> Tuple[float, T]:
    """Median wall seconds of ``SETUP_REPEATS`` calls to ``build``, and
    what the last call built."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = build()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), built


def pct(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(p / 100.0 * len(ordered)
                                              + 0.5))))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of a live single-threaded process, from the scheduler's
    nanosecond counter in ``/proc``."""
    with open(f"/proc/{pid}/schedstat", "r", encoding="ascii") as handle:
        return int(handle.read().split()[0]) / 1e9


def stop_helper_processes() -> None:
    """Stop every child process still running, then the process
    ``multiprocessing`` starts on its own to track shared memory (the
    gateway starts it), and wait until each has ended.

    The tracker only exits once every holder of its pipe has closed it,
    so without this it outlives the benchmark for a moment; workers left
    by a run that failed part-way hold the pipe too, so they go first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10.0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Outcome:
    """What one workload run produced: metrics plus the check verdict."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        """Record a correctness violation when ``ok`` is false."""
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
