"""Reference implementations the simulation engine is held to.

:class:`ReferenceScheduler` is the event schedule at its plainest: an
unsorted list, each step firing the entry with the smallest ``(when,
seq)``.  :func:`run_per_query` is the historical single-host driver: one
``ArrivalSchedule.__iter__`` draw and one ``Simulator.schedule_at`` per
arrival, one ``SimulatedServer.offer`` per query.  The tests hold
:class:`repro.sim.simulator.Simulator` and
:func:`repro.sim.driver.run_simulation` bit-identical to them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.core.clock import ManualClock
from repro.exceptions import SimulationError
from repro.sim.report import SimulationReport
from repro.sim.server import SimulatedServer
from repro.sim.simulator import Simulator
from repro.sim.workload import ArrivalSchedule

_NO_ARG = object()


class _ReferenceEvent:
    """One scheduled callback; cancelling removes it from the schedule."""

    def __init__(self, owner: "ReferenceScheduler", when: float, seq: int,
                 fn: Callable[..., None], arg: Any) -> None:
        self.owner = owner
        self.when = when
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        if self in self.owner.events:
            self.owner.events.remove(self)


class ReferenceScheduler:
    """Same public surface as ``Simulator``; pops by a linear ``min``."""

    def __init__(self, start: float = 0.0) -> None:
        self.clock = ManualClock(start)
        self.events: List[_ReferenceEvent] = []
        self.events_processed = 0
        self._seq = 0

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def pending(self) -> int:
        return len(self.events)

    def _add(self, when: float, fn: Callable[..., None],
             arg: Any) -> _ReferenceEvent:
        event = _ReferenceEvent(self, when, self._seq, fn, arg)
        self._seq += 1
        self.events.append(event)
        return event

    def schedule_at(self, when: float,
                    action: Callable[[], None]) -> _ReferenceEvent:
        if not when >= self.now:
            raise SimulationError(f"cannot schedule at {when}")
        return self._add(when, action, _NO_ARG)

    def schedule_after(self, delay: float,
                       action: Callable[[], None]) -> _ReferenceEvent:
        if not delay >= 0:
            raise SimulationError(f"bad delay {delay}")
        return self.schedule_at(self.now + delay, action)

    def _schedule_call(self, when: float, fn: Callable[[Any], None],
                       arg: Any) -> None:
        self._add(when, fn, arg)

    def _next(self) -> _ReferenceEvent:
        return min(self.events, key=lambda event: (event.when, event.seq))

    def _fire(self, event: _ReferenceEvent) -> None:
        self.events.remove(event)
        self.clock.set(event.when)
        self.events_processed += 1
        if event.arg is _NO_ARG:
            event.fn()
        else:
            event.fn(event.arg)

    def step(self) -> bool:
        if not self.events:
            return False
        self._fire(self._next())
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        fired = 0
        while self.events:
            event = self._next()
            if until is not None and event.when > until:
                break
            if max_events is not None and fired >= max_events:
                return
            self._fire(event)
            fired += 1
        if until is not None and self.now < until:
            self.clock.set(until)


def run_per_query(mix: Any, policy_factory: Any, rate_qps: float,
                  num_queries: int, parallelism: int = 100,
                  warmup_queries: Optional[int] = None, seed: int = 1,
                  on_decision: Any = None, telemetry: Any = None,
                  fault_injector: Any = None,
                  attainment_threshold: Optional[float] = None
                  ) -> SimulationReport:
    """The per-query driver ``run_simulation`` must reproduce exactly."""
    if warmup_queries is None:
        warmup_queries = max(num_queries // 5, int(2.0 * rate_qps), 1000)
    total = warmup_queries + num_queries
    sim = Simulator()
    server = SimulatedServer(sim, parallelism, policy_factory,
                             on_decision=on_decision, telemetry=telemetry,
                             fault_injector=fault_injector)
    arrivals = iter(ArrivalSchedule(mix, rate_qps, seed=seed))
    offered = 0
    utilization = 0.0

    def arrive(query: Any) -> None:
        nonlocal offered, utilization
        offered += 1
        if offered == warmup_queries + 1:
            server.reset_measurement()
            if fault_injector is not None:
                fault_injector.arm(sim.now)
        server.offer(query)
        if offered == total:
            utilization = server.metrics.utilization(sim.now, parallelism)
        else:
            nxt = next(arrivals)
            sim.schedule_at(nxt.arrival_time, lambda: arrive(nxt))

    first = next(arrivals)
    sim.schedule_at(first.arrival_time, lambda: arrive(first))
    sim.run()

    server.flush_telemetry()
    metrics = server.metrics
    return SimulationReport(
        policy_name=server.policy.name,
        rate_qps=rate_qps,
        parallelism=parallelism,
        duration=max(metrics.last_arrival, metrics.start_time)
        - metrics.start_time,
        utilization=utilization,
        per_type=metrics.build_type_stats(),
        overall=metrics.build_overall_stats(),
        offered=num_queries,
        seed=seed,
        attainment=(metrics.attainment(attainment_threshold)
                    if attainment_threshold is not None else {}),
    )
