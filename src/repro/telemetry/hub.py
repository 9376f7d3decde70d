"""The telemetry facade the serving frameworks call at the metric points.

:class:`Telemetry` bundles a :class:`~repro.telemetry.registry
.MetricsRegistry`, an optional :class:`~repro.telemetry.tracer
.DecisionTracer`, an optional :class:`~repro.telemetry.spans.SpanRecorder`,
and an optional :class:`~repro.telemetry.calibration.CalibrationTracker`
behind the hooks every host fires (decision, dequeue, completion,
expiration) plus the fail-open policy-error counter.  Hosts accept
``telemetry=None`` and skip the calls entirely, so uninstrumented runs pay
a single ``is None`` test per metric point.

One ``Telemetry`` can serve a whole cluster: :meth:`scoped` returns a view
sharing the registry, tracer, span recorder, and calibration tracker but
stamping a different ``host`` label (``broker-0``, ``shard-3``, …), which
is how the LIquid cluster model attributes events to hosts.

Bouncer evidence (``ewt_mean``, per-percentile ``ert_p``, the SLO targets,
the cold-start flag) is captured on *sampled* decisions only: the
percentile estimates ride along on the :class:`~repro.core.types
.AdmissionResult` for free, and the wait estimate is recomputed from the
live queue — a cost paid once per sampled query, not per query.  The span
recorder and calibration tracker use the same deterministic query-id hash,
so a sampled query's point events, spans, and calibration join always
appear together.

Span handles live on ``query.span_ctx`` between hooks; the ``span_*``
helpers here own every open/close transition, so hosts never hold a raw
handle (and the ``span-must-finish`` lint discipline concentrates in one
module).
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.bouncer import BouncerPolicy
from ..core.policy import AdmissionPolicy
from ..core.starvation import _StarvationWrapper
from ..core.types import AdmissionResult, Query, RejectReason
from .calibration import CalibrationTracker
from .registry import MetricsRegistry
from .spans import SpanContext, SpanRecorder
from .tracer import DecisionTracer, TraceEvent


def _unwrap_bouncer(policy: Optional[AdmissionPolicy]
                    ) -> Optional[BouncerPolicy]:
    if isinstance(policy, _StarvationWrapper):
        policy = policy.inner
    return policy if isinstance(policy, BouncerPolicy) else None


class TelemetryBatch:
    """Deferred registry updates, flushed through ``add_many``.

    The metric-point hooks accept ``defer=<batch>`` to buffer their
    counter increments and histogram observations here instead of taking
    the child lock per event; :meth:`flush` applies everything in one
    :meth:`~repro.telemetry.registry.MetricsRegistry.add_many` pass.
    Deferral never changes what the registry ends up containing — counter
    sums are commutative and each histogram child receives its values in
    recorded order, so bucket counts *and* the rendered value sums are
    identical to the unbuffered path.  Only scrape freshness changes: a
    render between buffer and flush can run up to the buffer's depth
    behind.  Hosts bound that lag (the simulated server flushes whenever
    its engines all go idle or the buffer tops 512 entries; the runtime
    server flushes at the end of each ``submit_many`` burst).

    Not thread-safe: one batch belongs to one recording thread.  Events
    that must stay per-query and in order (trace events, span
    transitions, calibration joins, gauge sets) are never deferred.
    """

    __slots__ = ("_registry", "_counters", "_histograms", "pending")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        # id(child) -> [child, payload]; identity-keyed so distinct label
        # sets of one family never collide and lookup skips __eq__.
        self._counters: dict = {}
        self._histograms: dict = {}
        #: Buffered updates not yet flushed (hosts use this for thresholds).
        self.pending = 0

    def inc(self, child: Any, amount: float = 1.0) -> None:
        """Buffer a counter/gauge increment."""
        slot = self._counters.get(id(child))
        if slot is None:
            self._counters[id(child)] = [child, amount]
        else:
            slot[1] += amount
        self.pending += 1

    def observe(self, child: Any, value: float) -> None:
        """Buffer one histogram observation (per-child order preserved)."""
        slot = self._histograms.get(id(child))
        if slot is None:
            self._histograms[id(child)] = [child, [value]]
        else:
            slot[1].append(value)
        self.pending += 1

    def flush(self) -> None:
        """Apply all buffered updates to the registry and empty the batch."""
        if not self.pending:
            return
        updates = [(child, payload)
                   for child, payload in self._counters.values()]
        updates.extend((child, values)
                       for child, values in self._histograms.values())
        self._registry.add_many(updates)
        self._counters.clear()
        self._histograms.clear()
        self.pending = 0


class Telemetry:
    """Registry + optional tracer/spans/calibration, stamped with this
    host's name.

    Parameters
    ----------
    registry:
        Shared metric registry; a fresh one is created when omitted.
    tracer:
        Optional decision tracer.  ``None`` keeps counters/histograms but
        records no per-query events.
    host:
        Label stamped on every metric and event this view records.
    spans:
        Optional lifecycle-span recorder.  ``None`` disables span
        emission (hosts pay nothing).
    calibration:
        Optional estimator-calibration tracker joining point-1 estimates
        to point-2/3 measurements.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[DecisionTracer] = None,
                 host: str = "main",
                 spans: Optional[SpanRecorder] = None,
                 calibration: Optional[CalibrationTracker] = None) -> None:
        self.registry = registry if registry is not None else (
            MetricsRegistry())
        self.tracer = tracer
        self.host = host
        self.spans = spans
        self.calibration = calibration
        reg = self.registry
        self._accepted = reg.counter(
            "accepted_total", "Queries admitted, by host and type.")
        self._rejected = reg.counter(
            "rejected_total",
            "Queries rejected, by host, type, and reason.")
        self._expired = reg.counter(
            "expired_total",
            "Admitted queries dropped in the queue past their deadline.")
        self._cancelled = reg.counter(
            "cancelled_total",
            "Admitted queries abandoned at shutdown before any worker "
            "dequeued them (their futures are cancelled).")
        self._policy_errors = reg.counter(
            "policy_errors_total",
            "Policy decide()/hook exceptions absorbed by fail-open hosts.")
        self._faults_injected = reg.counter(
            "faults_injected_total",
            "Fault activations realized by the injector, by host and kind.")
        self._retries = reg.counter(
            "retries_total",
            "Retry attempts issued after rejections or timeouts.")
        self._hedges = reg.counter(
            "hedges_total",
            "Hedged duplicate sub-queries issued against slow shards.")
        self._degraded = reg.counter(
            "degraded_responses_total",
            "Responses served from partial (healthy-replica) results.")
        self._queue_wait = reg.histogram(
            "queue_wait_seconds", "Measured FIFO queue wait (Point 2).")
        self._processing = reg.histogram(
            "processing_seconds", "Measured processing time (Point 3).")
        self._response = reg.histogram(
            "response_seconds",
            "Measured response time wt+pt (Point 3, paper Eq. 1).")
        self._ewt_gauge = reg.gauge(
            "bouncer_ewt_seconds",
            "Bouncer's latest mean queue-wait estimate (Eq. 2).")
        self._ert_gauge = reg.gauge(
            "bouncer_ert_seconds",
            "Bouncer's latest percentile response-time estimates "
            "(Eqs. 3-4), by type and quantile.")
        self._calibration_gauge = reg.gauge(
            "estimator_calibration",
            "Estimator calibration stats: rolling mean signed error and "
            "APE per estimator term, and rolling SLO attainment, by type "
            "(synced at render time).")

    def scoped(self, host: str) -> "Telemetry":
        """A view onto the same registry/tracer/spans/calibration under
        another host label."""
        return Telemetry(registry=self.registry, tracer=self.tracer,
                         host=host, spans=self.spans,
                         calibration=self.calibration)

    def batch(self) -> TelemetryBatch:
        """A new deferred-update buffer bound to this registry (pass it as
        the hooks' ``defer`` argument, flush at a drain boundary)."""
        return TelemetryBatch(self.registry)

    # -- convenience readers (the runtime server's counter properties) ----
    @property
    def policy_error_count(self) -> int:
        return int(self._policy_errors.labels(host=self.host).value)

    @property
    def expired_count(self) -> int:
        return int(self._expired.labels(host=self.host).value)

    @property
    def cancelled_count(self) -> int:
        return int(self._cancelled.labels(host=self.host).value)

    def faults_injected_total(self) -> int:
        """Realized fault injections across all hosts and kinds."""
        return int(sum(child.value
                       for child in self._faults_injected.children()
                       .values()))

    def retries_total(self) -> int:
        """Retry attempts recorded across all hosts."""
        return int(sum(child.value
                       for child in self._retries.children().values()))

    def hedges_total(self) -> int:
        """Hedged sub-queries recorded across all hosts."""
        return int(sum(child.value
                       for child in self._hedges.children().values()))

    def degraded_total(self) -> int:
        """Degraded (partial-result) responses across all hosts."""
        return int(sum(child.value
                       for child in self._degraded.children().values()))

    def render(self) -> str:
        """Exposition text for the shared registry (calibration gauges
        are synced from the tracker first)."""
        calibration = self.calibration
        if calibration is not None:
            for labels, value in calibration.gauge_values():
                self._calibration_gauge.labels(**labels).set(value)
        return self.registry.render()

    # -- metric-point hooks ------------------------------------------------
    def on_decision(self, query: Query, result: AdmissionResult,
                    now: float, queue_length: int = 0,
                    policy: Optional[AdmissionPolicy] = None,
                    defer: Optional[TelemetryBatch] = None) -> None:
        """Point 1: an admission verdict was produced for ``query``.

        ``defer`` buffers the accepted/rejected counter increment in a
        :class:`TelemetryBatch` instead of taking the child lock here;
        everything order-sensitive (gauges, traces, spans, calibration)
        still happens inline.
        """
        qtype = query.qtype
        if result.accepted:
            child = self._accepted.labels(host=self.host, qtype=qtype)
            if defer is None:
                child.inc()
            else:
                defer.inc(child)
        else:
            reason = result.reason.value if result.reason else "unknown"
            child = self._rejected.labels(host=self.host, qtype=qtype,
                                          reason=reason)
            if defer is None:
                child.inc()
            else:
                defer.inc(child)
        if result.estimates:
            for percentile, value in result.estimates.items():
                self._ert_gauge.labels(host=self.host, qtype=qtype,
                                       quantile=f"{percentile:g}"
                                       ).set(value)
        tracer = self.tracer
        calibration = self.calibration
        query_id = query.query_id
        trace_this = tracer is not None and tracer.sampled(query_id)
        calibrate_this = (calibration is not None
                          and calibration.sampled(query_id))
        if not trace_this and not calibrate_this:
            self._span_decision(query, result, now)
            return
        # Bouncer evidence, computed once and shared by both sinks.
        ewt_mean: Optional[float] = None
        cold: Optional[bool] = None
        slo_map: dict = {}
        bouncer = _unwrap_bouncer(policy)
        if bouncer is not None:
            # The policy's own memo answers, so the cold flag and SLO are
            # the ones the decision used.
            estimate = bouncer.estimate(qtype)
            ewt_mean = estimate.wait_mean
            self._ewt_gauge.labels(host=self.host).set(ewt_mean)
            cold = estimate.cold_start
            if estimate.slo is not None:
                slo_map = {f"{p:g}": target
                           for p, target in estimate.slo.items()}
        ert_map = {f"{p:g}": v for p, v in result.estimates.items()}
        if trace_this:
            event = TraceEvent(
                event="decision", point=1, ts=now, query_id=query_id,
                qtype=qtype, host=self.host, accepted=result.accepted,
                reason=result.reason.value if result.reason else None,
                overridden=result.overridden or None,
                queue_length=queue_length, ert=ert_map)
            if bouncer is not None:
                event.ewt_mean = ewt_mean
                event.cold_start = cold
                event.slo = slo_map
            tracer.record(event)
        if calibrate_this:
            calibration.note_decision(
                query_id, qtype, accepted=result.accepted,
                reason=result.reason.value if result.reason else None,
                ewt_mean=ewt_mean, ert=ert_map, slo=slo_map)
        self._span_decision(query, result, now)

    def on_dequeue(self, query: Query, now: float,
                   defer: Optional[TelemetryBatch] = None) -> None:
        """Point 2: an engine process pulled ``query`` from the queue."""
        wait = query.wait_time or 0.0
        wait_child = self._queue_wait.labels(host=self.host,
                                             qtype=query.qtype)
        if defer is None:
            wait_child.observe(wait)
        else:
            defer.observe(wait_child, wait)
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="dequeue", point=2, ts=now, query_id=query.query_id,
                qtype=query.qtype, host=self.host, wait_time=wait))
        calibration = self.calibration
        if calibration is not None:
            calibration.note_dequeue(query.query_id, wait)
        self.span_dequeue(query, now)

    def on_completion(self, query: Query, now: float,
                      errored: bool = False,
                      defer: Optional[TelemetryBatch] = None) -> None:
        """Point 3: ``query`` finished; its response is about to ship."""
        qtype = query.qtype
        processing = query.processing_time or 0.0
        response = query.response_time or 0.0
        processing_child = self._processing.labels(host=self.host,
                                                   qtype=qtype)
        response_child = self._response.labels(host=self.host, qtype=qtype)
        if defer is None:
            processing_child.observe(processing)
            response_child.observe(response)
        else:
            defer.observe(processing_child, processing)
            defer.observe(response_child, response)
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="completion", point=3, ts=now,
                query_id=query.query_id, qtype=qtype, host=self.host,
                wait_time=query.wait_time, processing_time=processing,
                response_time=response))
        calibration = self.calibration
        if calibration is not None:
            calibration.note_completion(query.query_id, response)
        late = query.deadline is not None and now > query.deadline
        self.span_complete(query, now,
                           status=("error" if errored
                                   else "expired" if late else "ok"))

    def on_expired(self, query: Query, now: float) -> None:
        """An admitted query was dropped in the queue past its deadline."""
        self._expired.labels(host=self.host).inc()
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="expired", point=3, ts=now, query_id=query.query_id,
                qtype=query.qtype, host=self.host,
                wait_time=query.wait_time))
        calibration = self.calibration
        if calibration is not None:
            calibration.note_expired(query.query_id, query.qtype)
        self.span_expired(query, now)

    def on_cancelled(self, query: Query, now: float) -> None:
        """An admitted query was abandoned unprocessed at shutdown."""
        self._cancelled.labels(host=self.host).inc()
        tracer = self.tracer
        if tracer is not None and tracer.sampled(query.query_id):
            tracer.record(TraceEvent(
                event="cancelled", point=3, ts=now,
                query_id=query.query_id, qtype=query.qtype,
                host=self.host))
        ctx = query.span_ctx
        if ctx is not None:
            query.span_ctx = None
            self.spans.finish_lifecycle(ctx, now, "cancelled")

    def on_policy_error(self) -> None:
        """The host absorbed a policy exception (fail-open admission)."""
        self._policy_errors.labels(host=self.host).inc()

    # -- span lifecycle helpers --------------------------------------------
    # Hosts never hold raw SpanHandles: every open handle lives on
    # ``query.span_ctx`` between hooks, and each helper below performs a
    # complete open/close (or handoff) transition.

    def _span_decision(self, query: Query, result: AdmissionResult,
                       now: float) -> None:
        """Open (accepted) or record whole (rejected) the root span."""
        spans = self.spans
        if spans is None:
            return
        ctx = query.span_ctx
        if ctx is not None:
            # Adopted span (a shard-side attempt): the parent trace owns
            # the root; this host only adds/closes its own phases.
            if not result.accepted:
                query.span_ctx = None
                reason = result.reason.value if result.reason else "unknown"
                status = ("fault"
                          if result.reason is RejectReason.FAULT_INJECTED
                          else "rejected")
                ctx.root.finish(now, status=status, reason=reason)
                return
            ctx.queue = ctx.root.child_span("queue_wait", now,
                                            host=self.host)
            return
        if not result.accepted:
            reason = result.reason.value if result.reason else "unknown"
            status = ("fault"
                      if result.reason is RejectReason.FAULT_INJECTED
                      else "rejected")
            spans.record_trace(query.query_id, query.qtype, self.host,
                               start=query.arrival_time, end=now,
                               status=status, reason=reason)
            return
        ctx = spans.open_lifecycle(query.query_id, query.qtype, self.host,
                                   query.arrival_time, now)
        if ctx is None:
            return
        if result.overridden:
            ctx.root.annotate(overridden=True)
        query.span_ctx = ctx

    def span_adopt(self, query: Query, handle: Optional[Any]) -> None:
        """Attach an already-open span handle (opened by another host,
        e.g. a broker-side attempt span) as ``query``'s root, so this
        host's queue/execute/close transitions land under it."""
        if self.spans is None or handle is None:
            return
        query.span_ctx = SpanContext(handle,
                                     execute_name="shard_execute")

    def span_annotate(self, query: Query, **attrs: Any) -> None:
        """Attach attributes to the query's root span (no-op unsampled)."""
        ctx = query.span_ctx
        if ctx is not None:
            ctx.root.annotate(**attrs)

    def span_dequeue(self, query: Query, now: float) -> None:
        """Close the queue-wait span and open the execution span."""
        ctx = query.span_ctx
        if ctx is not None:
            self.spans.transition_execute(ctx, now, self.host)

    def span_complete(self, query: Query, now: float,
                      status: str = "ok") -> None:
        """Close every phase span still open, then the root span."""
        ctx = query.span_ctx
        if ctx is not None:
            query.span_ctx = None
            self.spans.finish_lifecycle(ctx, now, status)

    def span_expired(self, query: Query, now: float) -> None:
        """Close all open spans for a query dropped in the queue."""
        ctx = query.span_ctx
        if ctx is not None:
            query.span_ctx = None
            self.spans.finish_lifecycle(ctx, now, "expired")

    def span_mark_fault(self, query: Query, kind: str,
                        now: float) -> None:
        """Attach an instantaneous fault marker to the query's trace."""
        ctx = query.span_ctx
        if ctx is None:
            return
        target = ctx.execute if ctx.execute is not None else ctx.root
        target.marker("fault", now, status="fault", kind=kind)

    # -- chaos hooks (fault injection and the resilience it triggers) ------
    def on_fault_injected(self, kind: str, qtype: str = "") -> None:
        """The fault injector realized one injection on this host."""
        self._faults_injected.labels(host=self.host, kind=kind).inc()

    def on_retry(self) -> None:
        """A client/broker retried after a rejection or timeout."""
        self._retries.labels(host=self.host).inc()

    def on_hedge(self) -> None:
        """A broker hedged a slow sub-query to another shard."""
        self._hedges.labels(host=self.host).inc()

    def on_degraded(self) -> None:
        """A response shipped with partial (healthy-replica) results."""
        self._degraded.labels(host=self.host).inc()
