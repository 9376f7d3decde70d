"""The gateway benchmark (BENCH_03): open-loop QPS + bit-identity replay.

``repro gateway-bench`` stands the whole multi-process stack up — a
:class:`~repro.gateway.GatewayServer` fleet, a publisher thread feeding
the shared-memory snapshot board on a cadence, and open-loop generator
processes — measures sustained end-to-end decisions/sec, then *replays*
every worker's decision log through a fresh single-process
:class:`~repro.core.bouncer.BouncerPolicy` built from the same spec.  The
log records exactly two kinds of events (board generations applied,
decisions made), and the worker clocks are frozen, so the replay must
reproduce every admission bit; any mismatch fails the bench.  That is the
acceptance check that the sharded gateway is *the same policy* as the
paper's single-process Bouncer, merely scaled out.

The synthetic workload drifts: each published generation scales every
type's latency distribution through :data:`DRIFT_CYCLE`, pushing marginal
types across their SLO thresholds so the run exercises real accept *and*
reject traffic (and the epoch-keyed estimator caches are invalidated and
rebuilt on every publication, not just warmed once).
"""

from __future__ import annotations

import json
import math
import platform
import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.clock import MonotonicClock
from ..core.histogram import HistogramSnapshot, LatencyHistogram
from ..core.types import Query
from ..gateway import GatewayServer, PolicySpec, run_open_loop
from .perf import DEFAULT_TOLERANCE, SCHEMA_VERSION

GATEWAY_BENCH_ID = "BENCH_03"

#: Query types: name -> (median seconds, p50 SLO, p90 SLO, traffic
#: weight, static queue fill).  Medians span 2-60ms like the paper's
#: LIquid mix; SLOs sit close enough above the drifted response estimates
#: that the :data:`DRIFT_CYCLE` swings types across their thresholds.
GATEWAY_TYPES: Mapping[str, Tuple[float, float, float, float, int]] = {
    "point_read": (0.002, 0.011, 0.030, 30.0, 10),
    "range_scan": (0.004, 0.013, 0.040, 20.0, 8),
    "two_hop": (0.008, 0.019, 0.060, 15.0, 6),
    "rank": (0.012, 0.025, 0.060, 12.0, 5),
    "facet": (0.018, 0.032, 0.075, 10.0, 4),
    "analytic": (0.030, 0.050, 0.110, 7.0, 3),
    "bulk_export": (0.060, 0.150, 0.400, 4.0, 2),
    "admin": (0.005, 0.015, 0.035, 2.0, 1),
}

#: Latency-scale multiplier per published generation (cycled).  The 1.45
#: peak overloads the tighter types; the 0.7 trough clears them again.
DRIFT_CYCLE: Tuple[float, ...] = (0.7, 1.0, 1.45, 1.0, 0.85, 1.25)

#: Log-normal shape of every type's latency distribution.
LATENCY_SIGMA = 0.5
#: Observations per type per publication.
SAMPLES_PER_PUBLICATION = 400
#: Simulated engine parallelism behind the gateway (Eq. 2 denominator).
ENGINE_PARALLELISM = 64


@dataclass(frozen=True)
class GatewayBenchScale:
    """Run parameters for one gateway bench (quick vs. full)."""

    shards: int = 4
    generators: int = 2
    rate: float = 140_000.0
    duration: float = 3.0
    tick_queries: int = 1024
    publish_interval: float = 0.25
    qps_floor: float = 100_000.0
    seed: int = 1309


GATEWAY_SCALES: Dict[str, GatewayBenchScale] = {
    "full": GatewayBenchScale(),
    # CI smoke: same fleet shape, a fraction of the traffic, no QPS
    # floor (shared two-core runners cannot promise 100k QPS).
    "quick": GatewayBenchScale(rate=30_000.0, duration=1.2,
                               tick_queries=512, qps_floor=0.0),
}


def build_policy_spec() -> PolicySpec:
    """The one spec every worker and every replay builds from."""
    return PolicySpec(
        default_slo={50: 0.025, 90: 0.060},
        type_slos={name: {50: p50, 90: p90}
                   for name, (_, p50, p90, _, _) in GATEWAY_TYPES.items()},
        queue_fill={name: fill
                    for name, (_, _, _, _, fill) in GATEWAY_TYPES.items()},
        parallelism=ENGINE_PARALLELISM)


def build_publication(index: int, seed: int
                      ) -> Tuple[Dict[str, HistogramSnapshot],
                                 HistogramSnapshot]:
    """Histograms for the ``index``-th publication (0-based).

    Deterministic in (index, seed); the epoch stamped on every snapshot
    is ``index + 1`` so successive publications carry strictly
    increasing epochs for the workers to adopt.
    """
    epoch = index + 1
    types: Dict[str, HistogramSnapshot] = {}
    general = LatencyHistogram()
    for phase, (name, (median, _, _, _, _)) in enumerate(
            GATEWAY_TYPES.items()):
        # Each type walks the drift cycle at its own phase, so every
        # generation pushes a *different* subset of types across their
        # SLO thresholds instead of flipping the whole workload at once.
        drift = DRIFT_CYCLE[(index + phase) % len(DRIFT_CYCLE)]
        rng = random.Random(f"{seed}/{index}/{name}")
        hist = LatencyHistogram()
        mu = math.log(median * drift)
        for _ in range(SAMPLES_PER_PUBLICATION):
            value = rng.lognormvariate(mu, LATENCY_SIGMA)
            hist.record(value)
            general.record(value)
        types[name] = hist.snapshot(epoch=epoch)
    return types, general.snapshot(epoch=epoch)


def _traffic() -> Tuple[List[str], List[float]]:
    names = list(GATEWAY_TYPES)
    weights = [GATEWAY_TYPES[name][3] for name in names]
    return names, weights


def replay_decision_log(path: str, spec: PolicySpec,
                        publications: Mapping[int, Tuple[
                            Dict[str, HistogramSnapshot],
                            HistogramSnapshot]]) -> Tuple[int, int]:
    """Replay one worker's log through a fresh policy.

    Returns ``(decisions, mismatches)``.  ``publications`` maps board
    generations to the snapshots published under them; ``g`` lines
    preload at exactly the logged positions with ``adopt_epochs=True``,
    reproducing the worker's epoch sequence, and every ``d`` line's
    scalar ``decide()`` must reproduce the worker's bit (the
    batch/scalar differential battery guarantees the worker's
    ``decide_many`` framing cannot matter).
    """
    policy, _, _ = spec.build()
    decisions = 0
    mismatches = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("g "):
                generation = int(line[2:])
                types, general = publications[generation]
                policy.preload_snapshots(types, general,
                                         adopt_epochs=True)
            elif line.startswith("d "):
                qtype, bit = line[2:].split()
                result = policy.decide(Query(qtype=qtype))
                decisions += 1
                if result.accepted != (bit == "1"):
                    mismatches += 1
    return decisions, mismatches


def run_gateway_bench(scale: GatewayBenchScale,
                      mode: str = "custom") -> Dict[str, Any]:
    """Run the full gateway bench; returns the BENCH_03 document."""
    spec = build_policy_spec()
    qtypes, weights = _traffic()
    publications_by_generation: Dict[int, Tuple[
        Dict[str, HistogramSnapshot], HistogramSnapshot]] = {}
    stop_publishing = threading.Event()

    gateway = GatewayServer(spec, shards=scale.shards)
    gateway.start()
    try:
        def publish(index: int) -> None:
            types, general = build_publication(index, scale.seed)
            generation = gateway.publish(types, general)
            publications_by_generation[generation] = (types, general)

        publish(0)      # workers decide against real data from frame one

        def publisher() -> None:
            index = 1
            while not stop_publishing.wait(scale.publish_interval):
                publish(index)
                index += 1

        publisher_thread = threading.Thread(target=publisher,
                                            name="gw-bench-publisher",
                                            daemon=True)
        publisher_thread.start()
        try:
            report = run_open_loop(
                gateway.socket_paths(), scale.shards, qtypes, weights,
                rate=scale.rate, duration=scale.duration,
                processes=scale.generators,
                tick_queries=scale.tick_queries, seed=scale.seed)
        finally:
            stop_publishing.set()
            publisher_thread.join(timeout=10.0)
        stats = gateway.collect_stats()
    finally:
        gateway.stop(timeout=30.0)

    replay_decisions = 0
    replay_mismatches = 0
    per_shard: Dict[str, Dict[str, Any]] = {}
    for shard, path in sorted(gateway.decision_log_paths.items()):
        decisions, mismatches = replay_decision_log(
            path, spec, publications_by_generation)
        replay_decisions += decisions
        replay_mismatches += mismatches
        worker = stats.get(shard)
        per_shard[str(shard)] = {
            "decisions": worker.decisions if worker else decisions,
            "accepted": worker.accepted if worker else 0,
            "policy_errors": worker.policy_errors if worker else 0,
            "snapshot_syncs": worker.snapshot_syncs if worker else 0,
            "replay_decisions": decisions,
            "replay_mismatches": mismatches,
        }

    return {
        "bench_id": GATEWAY_BENCH_ID,
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "shards": scale.shards,
        "generators": scale.generators,
        "offered_qps": report.offered_qps,
        "achieved_qps": report.achieved_qps,
        "qps_floor": scale.qps_floor,
        "duration": scale.duration,
        "sent": report.sent,
        "answered": report.answered,
        "accepted": report.accepted,
        "accepted_ratio": report.accepted_ratio,
        "publications": len(publications_by_generation),
        "replay_decisions": replay_decisions,
        "replay_mismatches": replay_mismatches,
        "bit_identical": replay_mismatches == 0 and replay_decisions > 0,
        "per_shard": per_shard,
    }


def write_gateway_results(document: Dict[str, Any],
                          out_path: str) -> List[str]:
    """Write the BENCH_03 aggregate JSON; returns the paths written."""
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [out_path]


def check_gateway_baseline(current: Dict[str, Any],
                           baseline: Optional[Dict[str, Any]] = None,
                           tolerance: float = DEFAULT_TOLERANCE
                           ) -> List[str]:
    """Gate a BENCH_03 document; returns regression messages.

    Three gates: the replay must be bit-identical (within-document,
    unconditional — a mismatch means the sharded gateway is *not* the
    single-process policy); every offered query must be answered; and
    achieved QPS must clear both the document's own recorded floor and
    ``tolerance`` below the committed baseline's throughput.  The
    baseline QPS comparison only applies when the two documents were
    produced at the same scale (``mode``): achieved QPS is bounded by
    the offered rate, so a quick CI run can never match a full-scale
    baseline and comparing them would only measure the scale gap.
    """
    problems: List[str] = []
    if not current.get("bit_identical"):
        problems.append(
            f"replay is not bit-identical: "
            f"{current.get('replay_mismatches', '?')} mismatched "
            f"decisions out of {current.get('replay_decisions', '?')}")
    sent = current.get("sent", 0)
    answered = current.get("answered", 0)
    if answered < sent:
        problems.append(
            f"decision loss: {sent - answered} of {sent} offered "
            f"queries were never answered")
    achieved = current.get("achieved_qps", 0.0)
    floor = current.get("qps_floor", 0.0)
    if floor and achieved < floor:
        problems.append(
            f"achieved {achieved:,.0f} QPS is below the scale's "
            f"{floor:,.0f} QPS floor")
    if baseline is not None and baseline.get("mode") == current.get("mode"):
        base = baseline.get("achieved_qps")
        if base and achieved < base * (1.0 - tolerance):
            problems.append(
                f"achieved_qps: {achieved:,.0f} is "
                f"{(1 - achieved / base):.0%} below baseline "
                f"{base:,.0f} (tolerance {tolerance:.0%})")
    return problems


def render_gateway_summary(document: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a BENCH_03 document."""
    lines = [f"{document.get('bench_id', '?')} "
             f"(mode={document.get('mode', '?')}, "
             f"python={document.get('python', '?')}, "
             f"shards={document.get('shards', '?')}, "
             f"generators={document.get('generators', '?')})"]
    lines.append(
        f"  offered {document.get('offered_qps', 0):>12,.0f} QPS over "
        f"{document.get('duration', 0):.1f}s "
        f"({document.get('sent', 0):,} queries)")
    lines.append(
        f"  achieved {document.get('achieved_qps', 0):>11,.0f} QPS "
        f"({document.get('answered', 0):,} decisions, "
        f"{document.get('accepted_ratio', 0):.0%} admitted)")
    lines.append(
        f"  replay: {document.get('replay_decisions', 0):,} decisions, "
        f"{document.get('replay_mismatches', 0)} mismatches "
        f"-> bit-identical: "
        f"{'yes' if document.get('bit_identical') else 'NO'}")
    lines.append(f"  publications applied: "
                 f"{document.get('publications', 0)}")
    for shard, stats in sorted(document.get("per_shard", {}).items()):
        lines.append(
            f"  shard {shard}: {stats.get('decisions', 0):>9,} decisions "
            f"({stats.get('accepted', 0):,} accepted, "
            f"{stats.get('snapshot_syncs', 0)} syncs, "
            f"{stats.get('replay_mismatches', 0)} replay mismatches)")
    return "\n".join(lines)
