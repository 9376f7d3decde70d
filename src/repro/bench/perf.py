"""Performance microbenchmarks and the parallel experiment runner.

This module backs the ``repro bench`` CLI (docs/performance.md).  It has
two halves:

* **Microbenchmarks** measuring the admission hot paths: decisions/sec
  per policy (Bouncer, alone and with telemetry and spans attached,
  against the MaxQL/MaxQWT baselines), histogram record / percentile
  throughput, and simulator events/sec (including a cancellation-heavy
  workload that exercises the lazy heap compaction).

* **A parallel experiment runner** that fans seeded simulation
  configurations across cores with :mod:`multiprocessing`.  Each task is
  fully determined by its ``(policy, factor, seed)`` tuple, so results are
  byte-identical regardless of scheduling; they are sorted before
  aggregation to keep the output stable.

Results are emitted as machine-readable JSON (``BENCH_01.json`` at the
repo root by convention) plus per-bench detail files under
``benchmarks/results/``.  ``check_baseline`` compares a fresh run against
a committed baseline and flags throughput regressions — CI fails when
decisions/sec drops more than 30% (see ``.github/workflows/ci.yml``).

Wall-clock use: benchmarking *is* the one legitimate reason to read the
wall clock outside ``repro.core.clock``, so this module is allowlisted
for the ``no-wall-clock`` lint rule (see ``repro.analysis.linter``).
Simulated workloads inside the benchmarks still run on seeded
``ManualClock`` time; ``time.perf_counter`` only brackets the measured
regions.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.bouncer import BouncerConfig, BouncerPolicy
from ..core.clock import ManualClock
from ..core.context import HostContext
from ..core.dual_buffer import DualBufferHistogram
from ..core.histogram import LatencyHistogram
from ..core.policy import AdmissionPolicy, QueueView
from ..core.types import Query
from ..sim.driver import run_simulation
from ..sim.simulator import Simulator
from .experiments import (SIM_PARALLELISM, make_maxql, make_maxqwt,
                          simulation_mix, simulation_slos)

#: Identifier stamped into the emitted JSON; later PRs add BENCH_02... so
#: the trajectory of results stays comparable.
BENCH_ID = "BENCH_01"
#: Identifier of the batch-admission burst-sweep document
#: (``BENCH_02.json``): ``decide_many`` throughput at each burst size
#: against the scalar ``decide`` loop on the same warmed policy.
BENCH02_ID = "BENCH_02"
#: Burst sizes the BENCH_02 sweep measures.
BATCH_SIZES: Tuple[int, ...] = (1, 8, 64, 256)
#: Arms of ``batch_decisions_per_sec`` gated by
#: :func:`check_batch_baseline`; the other burst sizes and the scalar
#: reference are informational, keeping the CI gate's noise surface at
#: one well-margined number.
BATCH_GATE_KEYS: Tuple[str, ...] = ("batch_64",)
#: Minimum fraction of the scalar ``decide()`` rate that a batch-of-1
#: ``decide_many`` must sustain, gated *within* one BENCH_02 document (both
#: arms run on the same machine in the same process, so the bound needs no
#: per-machine baseline).  Guards the regression fixed in PR 8: the
#: per-batch entry-table setup cost ~30% of single-query throughput until
#: batches of one were routed through the scalar engine.
BATCH1_SCALAR_FLOOR = 0.90
#: Version of the emitted JSON structure.
SCHEMA_VERSION = 1
#: Default regression tolerance for :func:`check_baseline` (30%).
DEFAULT_TOLERANCE = 0.30
#: Maximum fraction of lifecycle throughput span tracing may cost at the
#: always-on production operating point (:data:`SPAN_GATE_SAMPLE_RATE`),
#: measured within one bench document so the gate is machine-independent.
SPAN_OVERHEAD_TOLERANCE = 0.10
#: Span sampling rate the overhead gate measures at.  Always-on tracing
#: samples a deterministic fraction of traces (Dapper-style); 100%
#: sampling is a debugging mode whose cost is reported informationally
#: (``span_overhead_full_sampling``) and bounded only by the
#: machine-tolerance baseline on ``bouncer_fast_spans``.
SPAN_GATE_SAMPLE_RATE = 0.10

#: Queue occupancy used by the decision microbenchmarks: a realistic
#: backlog mixing the Table 1 types (distinct types exercise Eq. 2's
#: per-type terms; the counts exercise the occupancy weighting).
DECISION_QUEUE_FILL: Tuple[Tuple[str, int], ...] = (
    ("fast", 40), ("medium_fast", 25), ("medium_slow", 20), ("slow", 10),
)


@dataclass(frozen=True)
class BenchScale:
    """Iteration counts for one bench run (quick vs. full)."""

    decision_iterations: int = 100_000
    histogram_records: int = 400_000
    percentile_calls: int = 100_000
    simulator_events: int = 150_000
    cancel_events: int = 120_000
    parallel_queries: int = 6_000
    parallel_factors: Tuple[float, ...] = (1.0, 1.2)
    parallel_policies: Tuple[str, ...] = ("bouncer", "maxql")
    parallel_seeds: Tuple[int, ...] = (11, 13)


#: The two standard scales; tests construct smaller ones directly.
SCALES: Dict[str, BenchScale] = {
    "full": BenchScale(),
    "quick": BenchScale(decision_iterations=20_000,
                        histogram_records=80_000,
                        percentile_calls=20_000,
                        simulator_events=40_000,
                        cancel_events=30_000,
                        parallel_queries=2_000,
                        parallel_factors=(1.2,),
                        parallel_policies=("bouncer", "maxql"),
                        parallel_seeds=(11,)),
}


def _warmed_policy(policy: AdmissionPolicy, queue: QueueView,
                   clock: ManualClock, seed: int = 401) -> None:
    """Feed a policy realistic history and backlog before measuring.

    Records lognormal-ish processing times for every Table 1 type (so the
    per-type and general histograms publish), advances past a publish
    boundary, and fills the queue with :data:`DECISION_QUEUE_FILL`.
    """
    rng = random.Random(seed)
    mix = simulation_mix()
    for spec in mix:
        for _ in range(300):
            value = rng.lognormvariate(spec.mu, spec.sigma)
            policy.on_completed(Query(qtype=spec.name), 0.0, value)
    clock.advance(1.5)  # cross the default 1s publish boundary
    for qtype, count in DECISION_QUEUE_FILL:
        for _ in range(count):
            queue.on_enqueue(qtype)


def _decision_policies() -> Dict[str, Callable[[HostContext],
                                               AdmissionPolicy]]:
    """Policy factories measured by the decision microbenchmark."""
    slos = simulation_slos()
    return {
        "bouncer_fast": lambda ctx: BouncerPolicy(
            ctx, BouncerConfig(slos=slos)),
        "maxql": lambda ctx: make_maxql(limit=400)(ctx),
        "maxqwt": lambda ctx: make_maxqwt(limit=0.015)(ctx),
    }


def _lifecycle_rate(iterations: int,
                    span_sample_rate: Optional[float]) -> float:
    """Throughput of the full per-query host hot path — ``decide()`` plus
    the Figure-1 telemetry hooks (points 1/2/3) — with the tracer at 100%
    sampling.  ``span_sample_rate`` attaches a span recorder sampling that
    fraction of traces (``None`` = no recorder); the delta against the
    recorder-free rate isolates span open/close cost at that rate."""
    from ..telemetry import (DecisionTracer, MetricsRegistry, SpanRecorder,
                             Telemetry)

    clock = ManualClock(0.0)
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue,
                      parallelism=SIM_PARALLELISM)
    policy = BouncerPolicy(ctx, BouncerConfig(slos=simulation_slos()))
    _warmed_policy(policy, queue, clock)
    telemetry = Telemetry(
        registry=MetricsRegistry(), tracer=DecisionTracer(),
        spans=(SpanRecorder(sample_rate=span_sample_rate)
               if span_sample_rate is not None else None))
    arrival_types = [name for name, _ in DECISION_QUEUE_FILL]
    now = clock.now()
    queries = [Query(qtype=arrival_types[i % len(arrival_types)],
                     arrival_time=now)
               for i in range(iterations)]
    decide = policy.decide
    on_decision = telemetry.on_decision
    on_dequeue = telemetry.on_dequeue
    on_completion = telemetry.on_completion
    start = time.perf_counter()
    for query in queries:
        result = decide(query)
        on_decision(query, result, now=now, policy=policy)
        if result.accepted:
            query.enqueued_at = now
            query.dequeued_at = now
            on_dequeue(query, now=now)
            query.completed_at = now
            on_completion(query, now=now)
    elapsed = time.perf_counter() - start
    return iterations / elapsed if elapsed > 0 else 0.0


def bench_decisions(iterations: int) -> Dict[str, Any]:
    """Admission decisions per second, per policy.

    Every policy sees the same warmed histograms and queue backlog and the
    same arrival sequence; the clock is frozen during measurement so no
    publish boundary lands mid-run and each sample measures the steady
    state.
    """
    arrival_types = [name for name, _ in DECISION_QUEUE_FILL]
    results: Dict[str, float] = {}
    for name, factory in _decision_policies().items():
        clock = ManualClock(0.0)
        queue = QueueView()
        ctx = HostContext(clock=clock, queue=queue,
                          parallelism=SIM_PARALLELISM)
        policy = factory(ctx)
        _warmed_policy(policy, queue, clock)
        queries = [Query(qtype=arrival_types[i % len(arrival_types)])
                   for i in range(iterations)]
        decide = policy.decide
        start = time.perf_counter()
        for query in queries:
            decide(query)
        elapsed = time.perf_counter() - start
        results[name] = iterations / elapsed if elapsed > 0 else 0.0
    # Interleaved trios, four rounds: alternating the arms inside one
    # loop exposes all of them to the same scheduler/thermal noise.
    # Best-of (minimum time) per arm is the standard de-noised throughput
    # estimate; the *gated* overhead takes the minimum ratio across
    # same-round pairs — a genuine regression inflates every round, noise
    # only inflates some.
    plain_best = sampled_best = full_best = 0.0
    sampled_overhead: Optional[float] = None
    for _ in range(4):
        plain = _lifecycle_rate(iterations, None)
        sampled = _lifecycle_rate(iterations, SPAN_GATE_SAMPLE_RATE)
        full = _lifecycle_rate(iterations, 1.0)
        plain_best = max(plain_best, plain)
        sampled_best = max(sampled_best, sampled)
        full_best = max(full_best, full)
        if plain > 0:
            ratio = 1.0 - sampled / plain
            sampled_overhead = (ratio if sampled_overhead is None
                                else min(sampled_overhead, ratio))
    results["bouncer_fast_telemetry"] = plain_best
    results["bouncer_fast_spans"] = full_best
    payload: Dict[str, Any] = {"decisions_per_sec": results,
                               "iterations": iterations}
    if sampled_overhead is not None:
        payload["span_overhead_sampled"] = sampled_overhead
        payload["span_gate_sample_rate"] = SPAN_GATE_SAMPLE_RATE
    if plain_best > 0:
        payload["span_overhead_full_sampling"] = 1.0 - full_best / plain_best
    return payload


def _warmed_bouncer() -> BouncerPolicy:
    """A fresh Bouncer with the standard warmed state, used by every arm
    of the batch sweep so the arms differ only in batching."""
    clock = ManualClock(0.0)
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue,
                      parallelism=SIM_PARALLELISM)
    policy = BouncerPolicy(ctx, BouncerConfig(slos=simulation_slos()))
    _warmed_policy(policy, queue, clock)
    return policy


def bench_batch_decisions(iterations: int) -> Dict[str, Any]:
    """Batch admission throughput: ``decide_many`` at each burst size
    against the scalar ``decide`` loop.

    Every arm gets its own warmed Bouncer with the identical backlog and
    sees the identical arrival sequence, chunked into bursts of its size;
    the clock is frozen during measurement.  No ``on_decision`` callback
    is attached, so queue state stays stable across a run (matching
    :func:`bench_decisions`) and the batch arms measure the decision
    engine plus the ``decide_many`` loop overhead.
    """
    arrival_types = [name for name, _ in DECISION_QUEUE_FILL]
    queries = [Query(qtype=arrival_types[i % len(arrival_types)])
               for i in range(iterations)]

    def timed_pass(policy: BouncerPolicy, size: int) -> float:
        if size == 0:                        # the scalar decide() loop
            decide = policy.decide
            start = time.perf_counter()
            for query in queries:
                decide(query)
        else:
            batches = [queries[i:i + size]
                       for i in range(0, iterations, size)]
            decide_many = policy.decide_many
            start = time.perf_counter()
            for batch in batches:
                decide_many(batch)
        elapsed = time.perf_counter() - start
        return iterations / elapsed if elapsed > 0 else 0.0

    batch_rates: Dict[str, float] = {}

    # The gated batch-1 floor compares two arms that are near-identical by
    # design, so the measurement has to beat scheduler noise: interleave
    # scalar and batch-1 passes in the same rounds (like the span-overhead
    # arms above) and gate on the *best* same-round ratio — a genuine
    # regression deflates every round, noise only deflates some.
    scalar_rate = 0.0
    batch1_ratio: Optional[float] = None
    for _ in range(4):
        scalar = timed_pass(_warmed_bouncer(), 0)
        policy = _warmed_bouncer()
        batch1 = timed_pass(policy, 1)
        scalar_rate = max(scalar_rate, scalar)
        batch_rates["batch_1"] = max(batch_rates.get("batch_1", 0.0),
                                     batch1)
        if scalar > 0:
            ratio = batch1 / scalar
            batch1_ratio = (ratio if batch1_ratio is None
                            else max(batch1_ratio, ratio))

    for size in BATCH_SIZES:
        if size == 1:
            continue
        policy = _warmed_bouncer()
        batch_rates[f"batch_{size}"] = timed_pass(policy, size)
    payload: Dict[str, Any] = {
        "batch_decisions_per_sec": batch_rates,
        "scalar_decisions_per_sec": scalar_rate,
        "iterations": iterations,
    }
    if scalar_rate > 0:
        payload["batch64_vs_scalar_speedup"] = (
            batch_rates.get("batch_64", 0.0) / scalar_rate)
    if batch1_ratio is not None:
        payload["batch1_vs_scalar_ratio"] = batch1_ratio
    return payload


def run_batch_bench(scale: BenchScale, mode: str = "custom"
                    ) -> Dict[str, Any]:
    """Run the burst sweep; return the ``BENCH_02.json`` document."""
    document: Dict[str, Any] = {
        "bench_id": BENCH02_ID,
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    document.update(bench_batch_decisions(scale.decision_iterations))
    return document


def write_batch_results(document: Dict[str, Any],
                        out_path: str) -> List[str]:
    """Write the BENCH_02 aggregate JSON; returns the paths written."""
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [out_path]


def check_batch_baseline(current: Dict[str, Any],
                         baseline: Optional[Dict[str, Any]] = None,
                         tolerance: float = DEFAULT_TOLERANCE
                         ) -> List[str]:
    """Gate batched decision throughput against a committed BENCH_02
    baseline.

    Only the :data:`BATCH_GATE_KEYS` arms gate (CI fails when batch-64
    decisions/sec drops more than ``tolerance`` below the baseline);
    keys absent from either document are skipped, so older baselines
    neither fail nor mask anything.

    Additionally gates the batch-of-1 floor *within* the current
    document: the paired same-round ``batch1_vs_scalar_ratio`` must be
    at least :data:`BATCH1_SCALAR_FLOOR`, so the single-query
    ``decide_many`` path can never quietly regress against the scalar
    ``decide`` loop again.  (Older documents without the paired ratio fall
    back to the best-of rates, which are noisier across rounds.)
    """
    problems: List[str] = []
    cur_rates = current.get("batch_decisions_per_sec", {})
    if baseline is not None:
        base_rates = baseline.get("batch_decisions_per_sec", {})
        for name in BATCH_GATE_KEYS:
            base = base_rates.get(name)
            cur = cur_rates.get(name)
            if base is None or cur is None or base <= 0:
                continue
            floor = base * (1.0 - tolerance)
            if cur < floor:
                problems.append(
                    f"{name}: {cur:,.0f} decisions/sec is "
                    f"{(1 - cur / base):.0%} below baseline {base:,.0f} "
                    f"(tolerance {tolerance:.0%})")
    ratio = current.get("batch1_vs_scalar_ratio")
    if ratio is None:
        scalar = current.get("scalar_decisions_per_sec")
        batch1 = cur_rates.get("batch_1")
        if scalar and batch1 is not None and scalar > 0:
            ratio = batch1 / scalar
    if ratio is not None and ratio < BATCH1_SCALAR_FLOOR:
        problems.append(
            f"batch_1: only {ratio:.0%} of the scalar decide loop's "
            f"throughput in the same round; floor "
            f"{BATCH1_SCALAR_FLOOR:.0%}")
    return problems


def render_batch_summary(document: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a BENCH_02 document."""
    lines = [f"{document.get('bench_id', '?')} "
             f"(mode={document.get('mode', '?')}, "
             f"python={document.get('python', '?')})"]
    lines.append("batch decisions/sec (decide_many):")
    rates = document.get("batch_decisions_per_sec", {})
    for name in sorted(rates, key=lambda k: int(k.rsplit("_", 1)[1])):
        lines.append(f"  {name:<16} {rates[name]:>12,.0f}")
    scalar = document.get("scalar_decisions_per_sec")
    if scalar is not None:
        lines.append(f"  {'scalar decide()':<16} {scalar:>12,.0f}")
    speedup = document.get("batch64_vs_scalar_speedup")
    if speedup is not None:
        lines.append(f"  batch-64 vs scalar speedup: {speedup:.2f}x")
    ratio = document.get("batch1_vs_scalar_ratio")
    if ratio is not None:
        lines.append(f"  batch-1 vs scalar ratio: {ratio:.2f} "
                     f"(floor {BATCH1_SCALAR_FLOOR:.2f})")
    return "\n".join(lines)


def bench_histogram(records: int, percentile_calls: int) -> Dict[str, Any]:
    """Histogram hot-path throughput: record, snapshot, percentiles."""
    rng = random.Random(402)
    values = [rng.lognormvariate(-5.0, 1.0) for _ in range(4096)]
    n_values = len(values)

    clock = ManualClock(0.0)
    buffer = DualBufferHistogram(clock, interval=1.0, min_samples=0)
    start = time.perf_counter()
    for i in range(records):
        buffer.record(values[i % n_values])
    record_elapsed = time.perf_counter() - start

    plain = LatencyHistogram()
    for value in values:
        plain.record(value)
    snap = plain.snapshot()
    targets = (50.0, 90.0)
    start = time.perf_counter()
    for _ in range(percentile_calls):
        snap.percentiles(targets)
    percentile_elapsed = time.perf_counter() - start

    buffer.force_swap()
    start = time.perf_counter()
    for _ in range(percentile_calls):
        buffer.snapshot()
    snapshot_elapsed = time.perf_counter() - start

    def rate(count: int, elapsed: float) -> float:
        return count / elapsed if elapsed > 0 else 0.0

    return {
        "histogram_ops_per_sec": {
            "dual_buffer_record": rate(records, record_elapsed),
            "snapshot_percentiles": rate(percentile_calls,
                                         percentile_elapsed),
            "snapshot_calls": rate(percentile_calls, snapshot_elapsed),
        },
        "records": records,
        "percentile_calls": percentile_calls,
    }


def bench_simulator(chain_events: int, cancel_events: int) -> Dict[str, Any]:
    """Simulator throughput: a self-scheduling event chain, and a
    cancellation-heavy run exercising the lazy heap compaction."""
    sim = Simulator()
    remaining = [chain_events]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule_after(0.001, tick)

    sim.schedule_after(0.001, tick)
    start = time.perf_counter()
    sim.run()
    chain_elapsed = time.perf_counter() - start

    # Cancellation-heavy: every "completion" cancels a timeout guard that
    # would otherwise linger in the heap, like deadline enforcement does.
    sim2 = Simulator()
    remaining2 = [cancel_events]

    def tick2() -> None:
        if remaining2[0] > 0:
            remaining2[0] -= 1
            guard = sim2.schedule_after(1000.0, _noop)
            guard.cancel()
            sim2.schedule_after(0.001, tick2)

    sim2.schedule_after(0.001, tick2)
    start = time.perf_counter()
    sim2.run()
    cancel_elapsed = time.perf_counter() - start

    return {
        "simulator_events_per_sec": {
            "event_chain": (chain_events / chain_elapsed
                            if chain_elapsed > 0 else 0.0),
            "cancel_heavy": (cancel_events / cancel_elapsed
                             if cancel_elapsed > 0 else 0.0),
        },
        "chain_events": chain_events,
        "cancel_events": cancel_events,
    }


def _noop() -> None:
    """Placeholder action for cancelled guard events."""


def _parallel_policy(name: str) -> Callable[[HostContext], AdmissionPolicy]:
    """Resolve a parallel-runner policy name to a factory (workers call
    this by name because closures do not pickle)."""
    if name == "bouncer":
        return lambda ctx: BouncerPolicy(
            ctx, BouncerConfig(slos=simulation_slos()))
    if name == "maxql":
        return make_maxql(limit=400)
    if name == "maxqwt":
        return make_maxqwt(limit=0.015)
    raise ValueError(f"unknown parallel bench policy {name!r}")


def _run_experiment_task(task: Tuple[str, float, int, int]) -> Dict[str, Any]:
    """One seeded simulation, fully determined by its task tuple."""
    policy_name, factor, seed, num_queries = task
    mix = simulation_mix()
    rate = factor * mix.full_load_qps(SIM_PARALLELISM)
    report = run_simulation(mix, _parallel_policy(policy_name),
                            rate_qps=rate, num_queries=num_queries,
                            parallelism=SIM_PARALLELISM, seed=seed)
    overall = report.overall
    return {
        "policy": policy_name,
        "factor": factor,
        "seed": seed,
        "queries": num_queries,
        "received": overall.received,
        "rejection_pct": overall.rejection_pct,
        "rt_p50_ms": overall.response.get(50.0, 0.0) * 1000.0,
        "rt_p90_ms": overall.response.get(90.0, 0.0) * 1000.0,
        "utilization": report.utilization,
    }


def run_parallel_experiments(scale: BenchScale,
                             jobs: int = 0) -> Dict[str, Any]:
    """Fan the scale's seeded sim configurations across cores.

    ``jobs <= 1`` runs sequentially in-process (used by tests and small
    machines); otherwise a process pool of ``jobs`` workers is used.  The
    result list is sorted by task key, so the output is identical either
    way — parallelism changes wall time, never content.
    """
    tasks = [(policy, factor, seed, scale.parallel_queries)
             for policy in scale.parallel_policies
             for factor in scale.parallel_factors
             for seed in scale.parallel_seeds]
    if jobs <= 0:
        jobs = min(len(tasks), max(1, (os.cpu_count() or 2) - 1))
    start = time.perf_counter()
    if jobs <= 1 or len(tasks) <= 1:
        results = [_run_experiment_task(task) for task in tasks]
        jobs_used = 1
    else:
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            results = pool.map(_run_experiment_task, tasks)
        jobs_used = min(jobs, len(tasks))
    wall = time.perf_counter() - start
    results.sort(key=lambda r: (r["policy"], r["factor"], r["seed"]))
    return {
        "parallel_runner": {
            "jobs": jobs_used,
            "experiments": len(tasks),
            "wall_seconds": wall,
            "experiments_per_sec": len(tasks) / wall if wall > 0 else 0.0,
            "results": results,
        },
    }


def run_bench(scale: BenchScale, jobs: int = 0,
              mode: str = "custom") -> Dict[str, Any]:
    """Run every microbenchmark plus the parallel runner; return the
    aggregate result document (the future contents of ``BENCH_01.json``)."""
    document: Dict[str, Any] = {
        "bench_id": BENCH_ID,
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    document.update(bench_decisions(scale.decision_iterations))
    document.update(bench_histogram(scale.histogram_records,
                                    scale.percentile_calls))
    document.update(bench_simulator(scale.simulator_events,
                                    scale.cancel_events))
    document.update(run_parallel_experiments(scale, jobs=jobs))
    return document


def write_results(document: Dict[str, Any], out_path: str,
                  results_dir: Optional[str] = None) -> List[str]:
    """Write the aggregate JSON plus per-bench detail files.

    Returns the list of paths written (aggregate first).
    """
    written = [out_path]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if results_dir:
        os.makedirs(results_dir, exist_ok=True)
        details = {
            "decisions": {k: document[k] for k in
                          ("decisions_per_sec", "iterations",
                           "span_overhead_sampled",
                           "span_gate_sample_rate",
                           "span_overhead_full_sampling")
                          if k in document},
            "histogram": {k: document[k] for k in
                          ("histogram_ops_per_sec", "records",
                           "percentile_calls") if k in document},
            "simulator": {k: document[k] for k in
                          ("simulator_events_per_sec", "chain_events",
                           "cancel_events") if k in document},
            "parallel": {k: document[k] for k in ("parallel_runner",)
                         if k in document},
        }
        for name, payload in details.items():
            path = os.path.join(results_dir,
                                f"{BENCH_ID}_{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)
    return written


def check_baseline(current: Dict[str, Any], baseline: Dict[str, Any],
                   tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Compare decision throughput against a committed baseline.

    Returns human-readable regression messages, one per policy whose
    decisions/sec dropped more than ``tolerance`` below the baseline
    (empty list = no regression).  Only keys present in both documents
    are compared, so adding a policy does not break old baselines.

    Additionally gates span-tracing overhead *within* the current
    document: ``span_overhead_sampled`` (the lifecycle-throughput cost of
    span tracing at :data:`SPAN_GATE_SAMPLE_RATE` sampling, minimum over
    interleaved measurement rounds) may not exceed
    :data:`SPAN_OVERHEAD_TOLERANCE`.  Both arms run on the same machine
    in the same process, so this bound needs no per-machine baseline.
    """
    problems: List[str] = []
    base_rates = baseline.get("decisions_per_sec", {})
    cur_rates = current.get("decisions_per_sec", {})
    for name, base in sorted(base_rates.items()):
        cur = cur_rates.get(name)
        if cur is None or base <= 0:
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            problems.append(
                f"{name}: {cur:,.0f} decisions/sec is "
                f"{(1 - cur / base):.0%} below baseline {base:,.0f} "
                f"(tolerance {tolerance:.0%})")
    overhead = current.get("span_overhead_sampled")
    if overhead is not None and overhead > SPAN_OVERHEAD_TOLERANCE:
        rate = current.get("span_gate_sample_rate", SPAN_GATE_SAMPLE_RATE)
        problems.append(
            f"span tracing at {rate:.0%} sampling costs {overhead:.0%} "
            f"of lifecycle throughput (budget "
            f"{SPAN_OVERHEAD_TOLERANCE:.0%})")
    return problems


def render_summary(document: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a bench document."""
    lines = [f"{document.get('bench_id', '?')} "
             f"(mode={document.get('mode', '?')}, "
             f"python={document.get('python', '?')})"]
    lines.append("decisions/sec:")
    for name, rate in sorted(
            document.get("decisions_per_sec", {}).items()):
        lines.append(f"  {name:<16} {rate:>12,.0f}")
    span_cost = document.get("span_overhead_sampled")
    if span_cost is not None:
        rate = document.get("span_gate_sample_rate", SPAN_GATE_SAMPLE_RATE)
        lines.append(f"  span tracing overhead at {rate:.0%} sampling: "
                     f"{span_cost:.1%} of lifecycle throughput (budget "
                     f"{SPAN_OVERHEAD_TOLERANCE:.0%})")
    full_cost = document.get("span_overhead_full_sampling")
    if full_cost is not None:
        lines.append(f"  span tracing overhead at 100% sampling: "
                     f"{full_cost:.1%} (informational)")
    lines.append("histogram ops/sec:")
    for name, rate in sorted(
            document.get("histogram_ops_per_sec", {}).items()):
        lines.append(f"  {name:<24} {rate:>12,.0f}")
    lines.append("simulator events/sec:")
    for name, rate in sorted(
            document.get("simulator_events_per_sec", {}).items()):
        lines.append(f"  {name:<16} {rate:>12,.0f}")
    runner = document.get("parallel_runner")
    if runner:
        lines.append(
            f"parallel runner: {runner['experiments']} experiments on "
            f"{runner['jobs']} worker(s) in {runner['wall_seconds']:.1f}s "
            f"({runner['experiments_per_sec']:.2f}/s)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Allow ``python -m repro.bench.perf`` as a shortcut."""
    from ..cli import main as cli_main
    return cli_main(["bench"] + list(argv or ()))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
