"""Which calls the traced run wraps, and the per-layer metrics it reads.

Each hook is ``(module, class, attribute, key)``; the key's part before
``:`` is the layer, named after the module that implements it.  Every
workload installs the same hooks, so a layer a workload bypasses reads 0.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, List, Tuple

from .common import share
from .trace import Tracer

#: Plain span hooks.  Policy hooks of every class count as ``core.policy``
#: (the Figure-1 enqueue/dequeue/complete points); decisions count in the
#: layer of the class that makes them.
HOOKS: List[Tuple[str, str, str, str]] = [
    ("repro.core.policy", "AdmissionPolicy", "on_enqueued",
     "core.policy:hook"),
    ("repro.core.policy", "AdmissionPolicy", "on_dequeued",
     "core.policy:hook"),
    ("repro.core.bouncer", "BouncerPolicy", "on_completed",
     "core.policy:hook"),
    ("repro.core.starvation", "AcceptanceAllowancePolicy", "on_enqueued",
     "core.policy:hook"),
    ("repro.core.starvation", "AcceptanceAllowancePolicy", "on_dequeued",
     "core.policy:hook"),
    ("repro.core.starvation", "AcceptanceAllowancePolicy", "on_completed",
     "core.policy:hook"),
    ("repro.core.baselines", "AcceptFractionPolicy", "on_completed",
     "core.policy:hook"),
    ("repro.core.starvation", "AcceptanceAllowancePolicy", "decide",
     "core.starvation:decide"),
    ("repro.core.baselines", "AcceptFractionPolicy", "decide",
     "core.baselines:decide"),
    ("repro.core.histogram", "HistogramSnapshot", "percentile",
     "core.histogram:percentile"),
    ("repro.core.histogram", "HistogramSnapshot", "percentiles",
     "core.histogram:percentile"),
    ("repro.core.histogram", "LatencyHistogram", "record",
     "core.histogram:record"),
    ("repro.core.dual_buffer", "DualBufferHistogram", "record",
     "core.dual_buffer:record"),
    ("repro.core.dual_buffer", "DualBufferHistogram", "_publish_locked",
     "core.dual_buffer:publish"),
    ("repro.core.sliding_window", "SlidingWindowCounts", "record",
     "core.sliding_window:record"),
    ("repro.core.sliding_window", "SlidingWindowCounts",
     "average_acceptance_ratio", "core.sliding_window:read"),
    ("repro.core.sliding_window", "SlidingWindowCounts", "acceptance_ratio",
     "core.sliding_window:read"),
    ("repro.core.sliding_window", "SlidingWindowStats", "add",
     "core.sliding_window:record"),
    ("repro.core.sliding_window", "SlidingWindowStats", "mean",
     "core.sliding_window:read"),
    ("repro.core.sliding_window", "SlidingWindowStats", "rate",
     "core.sliding_window:read"),
    ("repro.sim.server", "SimulatedServer", "offer", "sim.server:offer"),
    ("repro.sim.server", "SimulatedServer", "offer_many",
     "sim.server:offer"),
    ("repro.sim.server", "SimulatedServer", "_complete",
     "sim.server:complete"),
    ("repro.liquid.cluster_sim", "LiquidClusterSim", "offer",
     "liquid.cluster_sim:offer"),
    ("repro.liquid.cluster_sim", "BrokerHost", "offer",
     "liquid.cluster_sim:broker_offer"),
    ("repro.liquid.cluster_sim", "BrokerHost", "_after_merge",
     "liquid.cluster_sim:merge"),
    ("repro.liquid.cluster_sim", "ShardHost", "offer",
     "liquid.cluster_sim:shard_offer"),
    ("repro.liquid.cluster_sim", "ShardHost", "_complete_entry",
     "liquid.cluster_sim:shard_complete"),
    ("repro.telemetry", "Telemetry", "on_decision", "telemetry:decision"),
    ("repro.telemetry", "Telemetry", "on_dequeue", "telemetry:dequeue"),
    ("repro.telemetry", "Telemetry", "on_completion",
     "telemetry:completion"),
    ("repro.telemetry", "Telemetry", "on_expired", "telemetry:expired"),
]

#: Every per-layer metric, with its unit.  Every traced run reports all.
PER_LAYER: Dict[str, str] = {
    "sim.workload.gen_s": "s",
    "sim.workload.gen_us_per_query": "us",
    "sim.simulator.events": "count",
    "sim.simulator.events_per_query": "count",
    "sim.simulator.self_s": "s",
    "sim.server.offer_s": "s",
    "sim.server.complete_s": "s",
    "sim.server.completions": "count",
    "sim.slo_attain_min": "share",
    "sim.reject_share": "share",
    "sim.worst_p90_ms": "ms",
    "core.bouncer.decide_calls": "count",
    "core.bouncer.decide_queries": "count",
    "core.bouncer.decide_us_p50": "us",
    "core.bouncer.decide_us_p99": "us",
    "core.bouncer.self_s": "s",
    "core.policy.hook_calls": "count",
    "core.policy.hook_s": "s",
    "core.histogram.records": "count",
    "core.histogram.record_s": "s",
    "core.histogram.percentile_calls": "count",
    "core.dual_buffer.publishes": "count",
    "core.dual_buffer.self_s": "s",
    "core.starvation.self_s": "s",
    "core.sliding_window.self_s": "s",
    "core.baselines.self_s": "s",
    "liquid.cluster_sim.self_s": "s",
    "liquid.cluster_sim.subqueries_per_query": "count",
    "runtime.server.submit_us_p50": "us",
    "runtime.server.submit_us_p99": "us",
    "runtime.server.queue_wait_ms_p50": "ms",
    "runtime.server.queue_wait_ms_p99": "ms",
    "runtime.server.reject_share": "share",
    "runtime.server.lat_p50_ms": "ms",
    "runtime.server.lat_p99_ms": "ms",
    "liquid.service.execute_ms_p50.edge": "ms",
    "liquid.service.execute_ms_p50.fanout2": "ms",
    "liquid.service.execute_ms_p50.distance": "ms",
    "telemetry.self_s": "s",
    "gateway.decide_many_us_per_query": "us",
    "gateway.worker_cpu_us_per_decision": "us",
    "gateway.publish_us_p50": "us",
    "gateway.route_us_p50": "us",
    "gateway.snapshot_syncs": "count",
    "gateway.lat_p50_ms": "ms",
    "gateway.lat_p99_ms": "ms",
    "gateway.reject_share": "share",
    "loadgen.lag_ms_p50": "ms",
    "loadgen.lag_ms_p99": "ms",
    "py.calls_per_query": "count",
    "py.alloc_kb_per_query": "KiB",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_written": "count",
}


def install(tracer: Tracer) -> None:
    """Wrap every hook plus the engine run loop and workload generator."""
    for module_name, class_name, attr, key in HOOKS:
        owner = getattr(importlib.import_module(module_name), class_name)
        tracer.wrap(owner, attr, key)
    from repro.core.bouncer import BouncerPolicy
    from repro.sim.simulator import Simulator
    from repro.sim.workload import ArrivalSchedule

    tracer.wrap(BouncerPolicy, "decide", "core.bouncer:scalar", keep=True)
    tracer.wrap(BouncerPolicy, "decide_many", "core.bouncer:batch",
                keep=True, count_items=True)
    tracer.wrap_generator(ArrivalSchedule, "iter_chunks", "sim.workload:gen")
    original_run = Simulator.run

    def run(sim: "Simulator", *args: object, **kwargs: object) -> object:
        try:
            return tracer.call("sim.simulator:run", functools.partial(
                original_run, sim, *args, **kwargs))
        finally:
            tracer.count("sim.simulator:events", sim.events_processed)

    tracer.patch(Simulator, "run", run)


def layer_metrics(tracer: Tracer, queries: int) -> Dict[str, float]:
    """The per-layer metrics every hook above feeds (``queries`` is the
    workload's query count, the per-query denominator)."""
    events = tracer.items("sim.simulator:events")
    decide_queries = (tracer.calls("core.bouncer:scalar")
                      + tracer.items("core.bouncer:batch"))
    gen_s = tracer.self_s("sim.workload:")
    return {
        "sim.workload.gen_s": gen_s,
        "sim.workload.gen_us_per_query": share(gen_s, queries) * 1e6,
        "sim.simulator.events": float(events),
        "sim.simulator.events_per_query": share(events, queries),
        "sim.simulator.self_s": tracer.self_s("sim.simulator:"),
        "sim.server.offer_s": tracer.self_s("sim.server:offer"),
        "sim.server.complete_s": tracer.self_s("sim.server:complete"),
        "sim.server.completions": float(
            tracer.calls("sim.server:complete")),
        "core.bouncer.decide_calls": float(tracer.calls("core.bouncer:")),
        "core.bouncer.decide_queries": float(decide_queries),
        "core.bouncer.decide_us_p50": tracer.duration_pct_us(
            "core.bouncer:", 50),
        "core.bouncer.decide_us_p99": tracer.duration_pct_us(
            "core.bouncer:", 99),
        "core.bouncer.self_s": tracer.self_s("core.bouncer:"),
        "core.policy.hook_calls": float(tracer.calls("core.policy:")),
        "core.policy.hook_s": tracer.self_s("core.policy:"),
        "core.histogram.records": float(
            tracer.calls("core.histogram:record")),
        "core.histogram.record_s": tracer.self_s("core.histogram:record"),
        "core.histogram.percentile_calls": float(
            tracer.calls("core.histogram:percentile")),
        "core.dual_buffer.publishes": float(
            tracer.calls("core.dual_buffer:publish")),
        "core.dual_buffer.self_s": tracer.self_s("core.dual_buffer:"),
        "core.starvation.self_s": tracer.self_s("core.starvation:"),
        "core.sliding_window.self_s": tracer.self_s("core.sliding_window:"),
        "core.baselines.self_s": tracer.self_s("core.baselines:"),
        "liquid.cluster_sim.self_s": tracer.self_s("liquid.cluster_sim:"),
        "liquid.cluster_sim.subqueries_per_query": share(
            tracer.calls("liquid.cluster_sim:shard_offer"), queries),
        "telemetry.self_s": tracer.self_s("telemetry:"),
    }
