"""The two simulated workloads: ``fig06_overload`` and ``cluster_fanout``.

Both are work-bound: a run simulates a fixed number of queries derived
from the seed, so every count (rejections, attainment, events) is a pure
function of the seed and only timings and memory vary between runs.  A
run is several independent simulations with seeds derived from the run's
seed; end-to-end figures are medians over them, which keeps one
simulation's scheduling hiccup, or its switch into a high-rejection
regime (see ``sim.slo_attain_min``), from moving the run's figure.
"""

from __future__ import annotations

import cProfile
import pstats
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from . import layers
from .common import (Outcome, median, median_build, peak_rss_mb, share,
                     time_imports)
from .trace import Tracer, write_report

#: Table 1 of the paper: (name, proportion, mean s, median s).
TABLE1_TYPES = (
    ("fast", 0.40, 1.16e-3, 0.38e-3),
    ("medium_fast", 0.20, 2.53e-3, 2.22e-3),
    ("medium_slow", 0.30, 12.13e-3, 7.40e-3),
    ("slow", 0.10, 20.05e-3, 12.51e-3),
)
#: Table 2 SLO for every type, milliseconds.
SLO_P50_MS = 18
SLO_P90_MS = 50
#: Engine processes on the simulated host (P).
PARALLELISM = 100
#: Offered load as a multiple of full load (the Figure 6 headline cell).
FIG06_FACTOR = 1.20
#: Scaled LIquid cluster rate (the paper's 108k q/s divided by 4).
CLUSTER_RATE = 27_000.0
#: Acceptance allowance of the Bouncer+AA brokers (Table 2).
CLUSTER_ALLOWANCE = 0.05

Simulate = Callable[[int, int, Optional[int]], Any]


@dataclass(frozen=True)
class SimShape:
    """``sims`` independent simulations of ``queries`` measured queries
    each; ``warmup`` None keeps the default warm-up of ``run_simulation``
    and ``run_cluster_simulation``."""

    sims: int
    queries: int
    warmup: Optional[int] = None


@dataclass(frozen=True)
class SimWorkload:
    name: str
    build: Callable[[], Simulate]
    rate: float
    shape: SimShape
    #: Shape of the cProfile and tracemalloc passes of a traced run.
    profile: SimShape


def fig06_mix() -> Any:
    """The Table 1 mix with lognormal processing times."""
    from repro import QueryTypeSpec, WorkloadMix

    return WorkloadMix([QueryTypeSpec.from_mean_median(*row)
                        for row in TABLE1_TYPES])


def fig06_cell() -> Simulate:
    """Build the Figure 6 cell; returns ``simulate(seed, queries, warmup)``."""
    from repro import (BouncerConfig, BouncerPolicy, LatencySLO,
                       SLORegistry, run_simulation)

    mix = fig06_mix()
    slos = SLORegistry.uniform(
        LatencySLO.from_ms(p50=SLO_P50_MS, p90=SLO_P90_MS), mix.type_names)
    rate = FIG06_FACTOR * mix.full_load_qps(PARALLELISM)

    def factory(ctx: Any) -> Any:
        return BouncerPolicy(ctx, BouncerConfig(slos=slos))

    def simulate(seed: int, queries: int, warmup: Optional[int]) -> Any:
        return run_simulation(mix, factory, rate_qps=rate,
                              num_queries=queries, parallelism=PARALLELISM,
                              warmup_queries=warmup, seed=seed,
                              attainment_threshold=SLO_P90_MS / 1000.0)
    return simulate


def cluster_cell() -> Simulate:
    """Build the scaled LIquid cluster cell (Bouncer+AA brokers, default
    AcceptFraction shards)."""
    from repro import (AcceptanceAllowancePolicy, BouncerConfig,
                       BouncerPolicy, ClusterConfig, LatencySLO,
                       SLORegistry, linkedin_cost_table,
                       run_cluster_simulation)

    costs = linkedin_cost_table()
    slos = SLORegistry.uniform(
        LatencySLO.from_ms(p50=SLO_P50_MS, p90=SLO_P90_MS),
        [cost.name for cost in costs])

    def factory(ctx: Any) -> Any:
        inner = BouncerPolicy(ctx, BouncerConfig(slos=slos))
        return AcceptanceAllowancePolicy(inner, ctx.clock,
                                         allowance=CLUSTER_ALLOWANCE,
                                         seed=101)

    def simulate(seed: int, queries: int, warmup: Optional[int]) -> Any:
        return run_cluster_simulation(
            ClusterConfig(cost_table=costs, seed=seed), factory,
            rate_qps=CLUSTER_RATE, num_queries=queries,
            warmup_queries=warmup, seed=seed,
            attainment_threshold=SLO_P90_MS / 1000.0)
    return simulate


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th simulation of a run."""
    return seed * 1_000 + index


def offered(shape: SimShape, rate: float) -> int:
    """Queries one simulation offers, warm-up included (the default warm-up
    rule of both simulation entry points)."""
    warmup = (shape.warmup if shape.warmup is not None
              else max(shape.queries // 5, int(2.0 * rate), 1000))
    return warmup + shape.queries


def check_report(out: Outcome, report: Any, queries: int,
                 label: str) -> None:
    """Accounting checks on one report: per-type counts sum to the
    overall counts, and every measured query offered was received."""
    overall = report.overall
    for field in ("completed", "rejected", "expired", "errors"):
        total = sum(getattr(stats, field)
                    for stats in report.per_type.values())
        out.check(total == getattr(overall, field),
                  f"{label}: per-type {field} sum {total} != overall "
                  f"{getattr(overall, field)}")
    out.check(overall.received == queries,
              f"{label}: overall.received {overall.received} != measured "
              f"queries offered {queries}")


def slo_attain(report: Any) -> float:
    """Measured queries answered within the p90 target over measured
    queries offered; rejections count as misses."""
    within = report.attainment.get("ALL", 0.0) * report.overall.completed
    return share(within, report.overall.received)


def worst_p90_ms(report: Any) -> float:
    return max(stats.response.get(90.0, 0.0)
               for stats in report.per_type.values()) * 1000.0


def run_shape(out: Outcome, simulate: Simulate, shape: SimShape,
              rate: float, seed: int, label: str) -> Dict[str, List[float]]:
    """Run every simulation of a shape; returns per-simulation series."""
    per_sim = offered(shape, rate)
    series: Dict[str, List[float]] = {
        "wall": [], "qps": [], "cpu_us": [], "attain": [], "reject": [],
        "p90_ms": []}
    for index in range(shape.sims):
        wall = time.perf_counter()
        cpu = time.process_time()
        report = simulate(sub_seed(seed, index), shape.queries,
                          shape.warmup)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        out.attempted += shape.queries
        out.failed += report.overall.expired + report.overall.errors
        check_report(out, report, shape.queries, f"{label}[{index}]")
        series["wall"].append(wall)
        series["qps"].append(per_sim / wall)
        series["cpu_us"].append(cpu / per_sim * 1e6)
        series["attain"].append(slo_attain(report))
        series["reject"].append(share(report.overall.rejected,
                                      report.overall.received))
        series["p90_ms"].append(worst_p90_ms(report))
    return series


def measure(workload: SimWorkload, seed: int) -> Outcome:
    """The untraced run: end-to-end metrics."""
    out = Outcome()
    build_s, simulate = median_build(workload.build)
    setup_s = time_imports(("repro",)) + build_s
    series = run_shape(out, simulate, workload.shape, workload.rate, seed,
                       workload.name)
    out.metrics.update({
        "setup_s": setup_s,
        "throughput_qps": median(series["qps"]),
        "slo_attain": median(series["attain"]),
        "cpu_us_per_query": median(series["cpu_us"]),
        "peak_rss_mb": peak_rss_mb(),
    })
    return out


def profile_counts(simulate: Simulate, shape: SimShape, rate: float,
                   seed: int) -> Dict[str, float]:
    """Python calls and allocated KiB per simulated query, from one
    cProfile pass and one tracemalloc pass over the profile shape."""
    queries = offered(shape, rate)
    profiler = cProfile.Profile()
    profiler.enable()
    simulate(seed, shape.queries, shape.warmup)
    profiler.disable()
    calls = pstats.Stats(profiler).total_calls  # type: ignore[attr-defined]
    tracemalloc.start()
    try:
        simulate(seed, shape.queries, shape.warmup)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"py.calls_per_query": calls / queries,
            "py.alloc_kb_per_query": peak / 1024.0 / queries}


def traced(workload: SimWorkload, seed: int) -> Outcome:
    """The traced run: per-layer metrics of one simulation, its tracing
    overhead against the same simulation untraced, and the layer table."""
    out = Outcome()
    simulate = workload.build()
    series = run_shape(out, simulate, workload.shape, workload.rate, seed,
                       workload.name)
    untraced_wall = series["wall"][0]
    shape = workload.shape
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        tracer.call("bench:run", simulate, sub_seed(seed, 0), shape.queries,
                    shape.warmup)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    queries = offered(shape, workload.rate)
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    metrics.update(layers.layer_metrics(tracer, queries))
    metrics.update(profile_counts(simulate, workload.profile, workload.rate,
                                  sub_seed(seed, 0)))
    metrics.update({
        "sim.slo_attain_min": min(series["attain"]),
        "sim.reject_share": median(series["reject"]),
        "sim.worst_p90_ms": median(series["p90_ms"]),
        "trace.overhead_s": wall - untraced_wall,
    })
    metrics.update(write_report(tracer, f"{workload.name}-seed{seed}", wall, [
        f"One simulation of {queries} queries (seed {sub_seed(seed, 0)}); "
        f"untraced it took {untraced_wall:.3f} s, so tracing added "
        f"{wall - untraced_wall:.3f} s."]))
    out.metrics = metrics
    return out


def fig06_workload() -> SimWorkload:
    rate = FIG06_FACTOR * fig06_mix().full_load_qps(PARALLELISM)
    return SimWorkload("fig06_overload", fig06_cell, rate,
                       SimShape(sims=10, queries=15_000),
                       SimShape(sims=1, queries=10_000, warmup=2_000))


def cluster_workload() -> SimWorkload:
    return SimWorkload("cluster_fanout", cluster_cell, CLUSTER_RATE,
                       SimShape(sims=2, queries=10_000),
                       SimShape(sims=1, queries=3_000, warmup=2_000))
