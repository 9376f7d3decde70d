"""End-to-end single-host simulation runs (the paper's §5.3 methodology).

:func:`run_simulation` wires a workload, a policy, and a simulated host
together: it generates Poisson arrivals at the requested rate, runs a
warm-up phase whose outcomes are discarded ("preceded by a warm-up phase to
avoid capturing cold start effects", §5.3), measures the remaining queries,
drains the system, and returns a :class:`~repro.sim.report.SimulationReport`.

Identical seeds produce identical arrival sequences regardless of the
policy under test, so policy comparisons see the same incoming traffic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # runtime import would cycle through repro.telemetry
    from ..faults import FaultInjector
    from ..telemetry import Telemetry

from ..core.types import Query
from ..exceptions import ConfigurationError
from .report import SimulationReport
from .server import DecisionHook, PolicyFactory, SimulatedServer
from .simulator import Simulator
from .workload import ArrivalSchedule, WorkloadMix

#: Queries pre-generated per workload chunk (see
#: :meth:`~repro.sim.workload.ArrivalSchedule.iter_chunks`).
_CHUNK_SIZE = 1024


def run_simulation(mix: WorkloadMix, policy_factory: PolicyFactory,
                   rate_qps: float, num_queries: int,
                   parallelism: int = 100,
                   warmup_queries: Optional[int] = None,
                   seed: int = 1,
                   on_decision: Optional[DecisionHook] = None,
                   telemetry: Optional["Telemetry"] = None,
                   fault_injector: Optional["FaultInjector"] = None,
                   attainment_threshold: Optional[float] = None
                   ) -> SimulationReport:
    """Simulate one policy under one traffic rate and report the outcome.

    Parameters
    ----------
    mix:
        The query mix (types, proportions, processing-time distributions).
    policy_factory:
        Builds the admission policy from the host context (clock, queue
        view, parallelism).
    rate_qps:
        Mean arrival rate of the Poisson process.
    num_queries:
        Queries generated *after* warm-up (the measured population).
    parallelism:
        ``P``, the number of query engine processes (paper: 100).
    warmup_queries:
        Queries offered before measurement starts; defaults to the larger
        of 20% of ``num_queries`` and two seconds of traffic, so histograms
        publish and the cold-start backlog drains before measurement at
        every rate the paper sweeps.
    seed:
        Workload RNG seed.  Policies with internal randomness derive their
        own seeds; pass a seeded policy factory for full determinism.
    on_decision:
        Optional per-decision hook (receives simulated time, the query, and
        the result) for time-series experiments such as Figure 3.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink forwarded to the
        simulated host; attach a tracer to capture per-query decision
        traces of the run (warm-up included — filter on timestamps if
        needed).
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  Armed at the
        first measured arrival (if not armed already), so the plan's
        windows are relative to the start of the measured phase.
    attainment_threshold:
        When set, the report's ``attainment`` maps each type (plus
        ``"ALL"``) to the fraction of completed responses within this many
        seconds — the SLO-attainment measure the chaos harness compares.
    """
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")
    if not (math.isfinite(rate_qps) and rate_qps > 0):
        raise ConfigurationError(
            f"rate_qps must be finite and > 0, got {rate_qps}")
    if warmup_queries is None:
        warmup_queries = max(num_queries // 5, int(2.0 * rate_qps), 1000)
    elif warmup_queries < 0:
        raise ConfigurationError(
            f"warmup_queries must be >= 0, got {warmup_queries}")
    total = warmup_queries + num_queries

    sim = Simulator()
    server = SimulatedServer(sim, parallelism, policy_factory,
                             on_decision=on_decision, telemetry=telemetry,
                             fault_injector=fault_injector)
    chunks = ArrivalSchedule(mix, rate_qps, seed=seed).iter_chunks(
        _CHUNK_SIZE)
    buffer = next(chunks)
    pos = 1
    offered = 0
    measure_at = warmup_queries + 1
    utilization = 0.0
    schedule_call = sim._schedule_call

    def arrive(query: Query) -> None:
        # Each arrival chains the next through the handle-free
        # ``_schedule_call`` (no per-arrival closure or cancellation
        # handle).  Chaining, rather than scheduling a whole chunk up
        # front, gives every arrival the event sequence number it would
        # get from one ``schedule_at`` per query, so ties resolve the same.
        nonlocal offered, buffer, pos, utilization
        offered += 1
        if offered == measure_at:
            # Open the window before offering the first measured query so
            # its outcome is included and every warm-up one isn't.
            server.reset_measurement()
            if fault_injector is not None:
                fault_injector.arm(sim.now)
        server.offer(query)
        if offered == total:
            # Freeze utilization at the last arrival so the post-run
            # drain does not dilute the measurement.
            utilization = server.metrics.utilization(sim.now, parallelism)
            return
        if pos == len(buffer):
            buffer = next(chunks)
            pos = 0
        nxt = buffer[pos]
        pos += 1
        schedule_call(nxt.arrival_time, arrive, nxt)

    schedule_call(buffer[0].arrival_time, arrive, buffer[0])
    sim.run()

    server.flush_telemetry()
    measure_end = max(server.metrics.last_arrival,
                      server.metrics.start_time)
    duration = measure_end - server.metrics.start_time
    per_type = server.metrics.build_type_stats()
    overall = server.metrics.build_overall_stats()
    return SimulationReport(
        policy_name=server.policy.name,
        rate_qps=rate_qps,
        parallelism=parallelism,
        duration=duration,
        utilization=utilization,
        per_type=per_type,
        overall=overall,
        offered=num_queries,
        seed=seed,
        attainment=(server.metrics.attainment(attainment_threshold)
                    if attainment_threshold is not None else {}),
    )
