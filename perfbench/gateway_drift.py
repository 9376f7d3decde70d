"""``gateway_drift``: 256-query bursts through the sharded gateway.

An open loop on the real clock: bursts are due every ``BURST / RATE``
seconds and each is timed from its due time to its last decision.  A
second thread publishes drifting histograms every
:data:`PUBLISH_INTERVAL`; the workers only adopt them, so no histogram is
recorded during the run.  Afterwards every worker's decision log is
replayed, outside the timed window, through a fresh policy built from the
same spec, and must reproduce every decision bit.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import shutil
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from . import layers
from .common import (SETUP_REPEATS, Outcome, median, pct, peak_rss_mb,
                     proc_cpu_s, run_dir, share, time_imports)
from .trace import Tracer, write_report

SHARDS = 2
BURST = 256
RATE = 25_000.0
#: A burst answered later than this after its due time misses.
LIMIT_S = 0.020
PUBLISH_INTERVAL = 0.25
#: Cost figures are medians over slices of the window this long, so a
#: burst of contention on the host moves one slice, not the run.
SLICE_S = 1.0

#: name -> (median s, p50 SLO s, p90 SLO s, traffic weight, queue fill):
#: eight types whose medians span 2-60 ms, with SLOs close enough above
#: the drifted estimates that the drift cycle pushes types across them.
TYPES: Mapping[str, Tuple[float, float, float, float, int]] = {
    "point_read": (0.002, 0.011, 0.030, 30.0, 10),
    "range_scan": (0.004, 0.013, 0.040, 20.0, 8),
    "two_hop": (0.008, 0.019, 0.060, 15.0, 6),
    "rank": (0.012, 0.025, 0.060, 12.0, 5),
    "facet": (0.018, 0.032, 0.075, 10.0, 4),
    "analytic": (0.030, 0.050, 0.110, 7.0, 3),
    "bulk_export": (0.060, 0.150, 0.400, 4.0, 2),
    "admin": (0.005, 0.015, 0.035, 2.0, 1),
}
#: Latency scale of each publication, cycled; every type walks it at its
#: own phase so each publication moves a different subset of types.
DRIFT_CYCLE = (0.7, 1.0, 1.45, 1.0, 0.85, 1.25)
LATENCY_SIGMA = 0.5
SAMPLES_PER_PUBLICATION = 400
ENGINE_PARALLELISM = 64

Publication = Tuple[Dict[str, Any], Any]


def policy_spec() -> Any:
    from repro.gateway import PolicySpec

    return PolicySpec(
        default_slo={50: 0.025, 90: 0.060},
        type_slos={name: {50: p50, 90: p90}
                   for name, (_, p50, p90, _, _) in TYPES.items()},
        queue_fill={name: fill for name, (_, _, _, _, fill) in TYPES.items()},
        parallelism=ENGINE_PARALLELISM)


def publication(index: int, seed: int) -> Publication:
    """Histograms of the ``index``-th publication (epoch ``index + 1``)."""
    from repro import LatencyHistogram

    epoch = index + 1
    types: Dict[str, Any] = {}
    general = LatencyHistogram()
    for phase, (name, (median_s, _, _, _, _)) in enumerate(TYPES.items()):
        drift = DRIFT_CYCLE[(index + phase) % len(DRIFT_CYCLE)]
        rng = random.Random(f"{seed}/{index}/{name}")
        hist = LatencyHistogram()
        mu = math.log(median_s * drift)
        for _ in range(SAMPLES_PER_PUBLICATION):
            value = rng.lognormvariate(mu, LATENCY_SIGMA)
            hist.record(value)
            general.record(value)
        types[name] = hist.snapshot(epoch=epoch)
    return types, general.snapshot(epoch=epoch)


def bursts(seed: int, seconds: float) -> List[List[str]]:
    rng = random.Random(f"gateway/{seed}")
    names = list(TYPES)
    weights = [TYPES[name][3] for name in names]
    count = max(1, int(seconds * RATE / BURST))
    return [rng.choices(names, weights, k=BURST) for _ in range(count)]


def replay(path: str, spec: Any,
           publications: Mapping[int, Publication]) -> Tuple[int, int]:
    """Replay one decision log through a fresh policy built from ``spec``;
    returns ``(decisions, mismatches)``."""
    from repro import Query

    policy, _, _ = spec.build()
    decisions = 0
    mismatches = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("g "):
                types, general = publications[int(line[2:])]
                policy.preload_snapshots(types, general, adopt_epochs=True)
            elif line.startswith("d "):
                qtype, bit = line[2:].split()
                accepted = policy.decide(Query(qtype=qtype)).accepted
                decisions += 1
                mismatches += accepted != (bit == "1")
    return decisions, mismatches


class Fleet:
    """One gateway with its first publication, in a private directory."""

    def __init__(self, seed: int, tag: str) -> None:
        from repro.gateway import GatewayServer

        self.dir = run_dir(f"gw-{os.getpid()}-{tag}")
        self.spec = policy_spec()
        self.publications: Dict[int, Publication] = {}
        self.publish_s: List[float] = []
        self.gateway = GatewayServer(self.spec, shards=SHARDS,
                                     runtime_dir=self.dir)
        self.gateway.start()
        self.publish(publication(0, seed))

    def publish(self, pub: Publication) -> None:
        start = time.perf_counter()
        generation = self.gateway.publish(*pub)
        self.publish_s.append(time.perf_counter() - start)
        self.publications[generation] = pub

    def worker_pids(self) -> List[int]:
        return [proc.pid for proc in multiprocessing.active_children()
                if proc.name.startswith("repro-gw-") and proc.pid]

    def close(self) -> None:
        """Stop the workers and remove the directory (idempotent)."""
        self.gateway.stop(timeout=30.0)
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def start_fleet(seed: int) -> Tuple[float, Fleet]:
    """Median set-up seconds over ``SETUP_REPEATS`` fleets (spawn plus
    first publication); the last fleet is kept for the run."""
    samples = []
    fleet: Optional[Fleet] = None
    for tag in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.close()
        start = time.perf_counter()
        fleet = Fleet(seed, str(tag))
        samples.append(time.perf_counter() - start)
    assert fleet is not None
    return median(samples), fleet


class Window:
    def __init__(self) -> None:
        self.lat: List[float] = []
        self.lag: List[float] = []
        self.call_s: List[float] = []
        self.decisions = 0
        self.rejected = 0
        self.unanswered = 0
        self.cpu_s = 0.0
        self.worker_cpu_s = 0.0
        self.wall_s = 0.0
        #: (decisions, own CPU s, worker CPU s) at each slice boundary.
        self.marks: List[Tuple[int, float, float]] = []

    def cpu_per_decision(self) -> List[float]:
        """CPU us per decision (this process plus the workers) of every
        slice."""
        return [(c1 - c0 + w1 - w0) / (d1 - d0) * 1e6
                for (d0, c0, w0), (d1, c1, w1) in zip(self.marks,
                                                      self.marks[1:])
                if d1 > d0]


def drive(fleet: Fleet, plan: List[List[str]],
          pubs: List[Publication]) -> Window:
    """Send every burst on schedule while the publisher thread runs."""
    window = Window()
    stop = threading.Event()

    def publisher() -> None:
        for pub in pubs:
            if stop.wait(PUBLISH_INTERVAL):
                return
            fleet.publish(pub)

    pids = fleet.worker_pids()

    def mark() -> None:
        window.marks.append((window.decisions, time.process_time(),
                             sum(proc_cpu_s(pid) for pid in pids)))

    thread = threading.Thread(target=publisher, name="perfbench-publisher")
    perf = time.perf_counter
    period = BURST / RATE
    per_slice = max(1, round(SLICE_S / period))
    decide = fleet.gateway.decide_many
    mark()
    origin = perf() + 0.01
    thread.start()
    try:
        for index, burst in enumerate(plan):
            if index and index % per_slice == 0:
                mark()
            due = origin + index * period
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            sent = perf()
            window.lag.append(sent - due)
            bits = decide(burst)
            done = perf()
            window.call_s.append(done - sent)
            window.lat.append(done - due)
            if len(bits) != len(burst):
                window.unanswered += len(burst) - len(bits)
            window.decisions += len(bits)
            window.rejected += sum(1 for bit in bits if not bit)
        window.wall_s = perf() - origin
    finally:
        stop.set()
        thread.join(timeout=10.0)
    mark()
    first, last = window.marks[0], window.marks[-1]
    window.cpu_s = last[1] - first[1]
    window.worker_cpu_s = last[2] - first[2]
    return window


def finish(out: Outcome, fleet: Fleet, plan: List[List[str]],
           window: Window, replay_tracer: Optional[Tracer] = None) -> int:
    """Stop the workers, check the accounting and replay every decision
    log (traced with the layer hooks when ``replay_tracer`` is given);
    returns the workers' snapshot syncs."""
    sent = sum(len(burst) for burst in plan)
    try:
        stats = fleet.gateway.collect_stats()
    finally:
        fleet.gateway.stop(timeout=30.0)
    out.attempted += sent
    out.failed += window.unanswered + sum(s.policy_errors
                                          for s in stats.values())
    out.check(window.unanswered == 0,
              f"{window.unanswered} of {sent} decisions never answered")
    worker_decisions = sum(s.decisions for s in stats.values())
    out.check(worker_decisions == window.decisions,
              f"workers report {worker_decisions} decisions, client got "
              f"{window.decisions}")
    replayed = 0
    if replay_tracer is not None:
        layers.install(replay_tracer)
    try:
        for shard, path in sorted(fleet.gateway.decision_log_paths.items()):
            decisions, mismatches = replay(path, fleet.spec,
                                           fleet.publications)
            replayed += decisions
            out.check(mismatches == 0,
                      f"shard {shard}: {mismatches} of {decisions} logged "
                      f"decisions differ on replay")
    finally:
        if replay_tracer is not None:
            replay_tracer.uninstall()
    out.check(replayed == sent,
              f"decision logs hold {replayed} decisions, {sent} were sent")
    return sum(s.snapshot_syncs for s in stats.values())


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    plan = bursts(seed, seconds)
    pubs = [publication(index, seed)
            for index in range(1, int(seconds / PUBLISH_INTERVAL) + 2)]
    if trace:
        return traced(out, seed, plan, pubs)
    import_s = time_imports(("repro", "repro.gateway"))
    build_s, fleet = start_fleet(seed)
    with fleet:
        window = drive(fleet, plan, pubs)
        finish(out, fleet, plan, window)
    in_limit = sum(1 for lat in window.lat if lat <= LIMIT_S)
    out.metrics.update({
        "setup_s": import_s + build_s,
        "throughput_qps": in_limit * BURST / window.wall_s,
        "slo_attain": share(in_limit, len(window.lat)),
        "cpu_us_per_query": median(window.cpu_per_decision()),
        "peak_rss_mb": peak_rss_mb(),
    })
    return out


def traced(out: Outcome, seed: int, plan: List[List[str]],
           pubs: List[Publication]) -> Outcome:
    """Untraced then traced pass over the same schedule.  The workers'
    decisions run in other processes, so the decision-layer metrics come
    from tracing the replay: the same policy on the same decision stream,
    in this process."""
    from repro.gateway import GatewayServer, ShardRouter

    with Fleet(seed, "untraced") as fleet:
        untraced = drive(fleet, plan, pubs)
        finish(out, fleet, plan, untraced)

    tracer = Tracer()
    replay_tracer = Tracer()
    with Fleet(seed, "traced") as fleet:
        tracer.wrap(GatewayServer, "decide_many",
                    "gateway.server:decide_many")
        tracer.wrap(GatewayServer, "publish", "gateway.server:publish")
        tracer.wrap(ShardRouter, "assignment", "gateway.hashring:route",
                    keep=True)
        try:
            window = drive(fleet, plan, pubs)
        finally:
            tracer.uninstall()
        syncs = finish(out, fleet, plan, window, replay_tracer)
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    metrics.update(layers.layer_metrics(replay_tracer, window.decisions))
    metrics.update({
        "gateway.decide_many_us_per_query": sum(window.call_s)
        / window.decisions * 1e6,
        "gateway.worker_cpu_us_per_decision": window.worker_cpu_s
        / window.decisions * 1e6,
        "gateway.publish_us_p50": pct(fleet.publish_s, 50) * 1e6,
        "gateway.route_us_p50": tracer.duration_pct_us(
            "gateway.hashring:", 50),
        "gateway.snapshot_syncs": float(syncs),
        "gateway.lat_p50_ms": pct(window.lat, 50) * 1000.0,
        "gateway.lat_p99_ms": pct(window.lat, 99) * 1000.0,
        "gateway.reject_share": share(window.rejected, window.decisions),
        "loadgen.lag_ms_p50": pct(window.lag, 50) * 1000.0,
        "loadgen.lag_ms_p99": pct(window.lag, 99) * 1000.0,
    })
    # Two threads in this process: the client and the publisher.
    metrics["trace.overhead_s"] = window.cpu_s - untraced.cpu_s
    metrics.update(write_report(tracer, f"gateway_drift-seed{seed}",
                                window.wall_s * 2, [
        f"{window.decisions} decisions in {len(plan)} bursts over "
        f"{window.wall_s:.3f} s; the total is that window times 2 threads "
        f"(client + publisher), so waiting is unattributed.  Socket round "
        f"trips are in gateway.server.",
        f"The {SHARDS} worker processes used {window.worker_cpu_s:.3f} CPU "
        f"s in the window ({window.worker_cpu_s / window.decisions * 1e6:.2f}"
        f" us per decision), outside this table.  Tracing added "
        f"{window.cpu_s - untraced.cpu_s:.3f} CPU s in this process."]))
    out.metrics = metrics
    return out
