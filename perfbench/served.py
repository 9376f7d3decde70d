"""``served_graph``: real graph queries through the threaded server.

An open loop on the real clock: the send schedule (Poisson arrivals at
:data:`RATE`, each with its query) is fixed from the seed before the
server starts, and every query is timed from its due time, so a stall in
the generator or the server counts against the queries behind it.  The
benchmark thread is the only client.  The first :data:`WARMUP_S` seconds
of the schedule let Bouncer's histograms fill and are not measured; the
run's seconds after them are.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import Future, wait
from typing import Any, Dict, List, Optional, Tuple

from . import layers
from .common import (Outcome, median_build, peak_rss_mb, pct, share,
                     time_imports)
from .trace import Tracer, write_report

VERTICES = 5_000
AVG_DEGREE = 12
SHARDS = 4
LABEL = "knows"
WORKERS = 2
#: Offered rate, queries per second: about two thirds of what the two
#: workers sustain on a 2-vCPU host, so the open loop stays stable.
RATE = 1_200.0
#: (kind, share) of the query mix.
MIX = (("edge", 0.70), ("fanout2", 0.20), ("distance", 0.10))
FANOUT_LIMIT = 48
DISTANCE_HOPS = 3
SLO_P50_MS = 30
SLO_P90_MS = 120
#: Unmeasured lead-in of the schedule (Bouncer starts with empty
#: histograms and admits everything until its first publication).
WARMUP_S = 2.0
#: Answers compared against a direct execution after the run.
SAMPLE_CHECKS = 60
#: How long to wait for the backlog after the last send.
DRAIN_TIMEOUT = 30.0

Send = Tuple[float, str, int, int]


def schedule(seed: int, seconds: float) -> List[Send]:
    """(due offset s, kind, src vertex, dst vertex) for every send of the
    warm-up plus ``seconds`` measured seconds."""
    rng = random.Random(f"served/{seed}")
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    sends: List[Send] = []
    due = 0.0
    while True:
        due += rng.expovariate(RATE)
        if due >= WARMUP_S + seconds:
            return sends
        kind = rng.choices(kinds, weights)[0]
        sends.append((due, kind, rng.randrange(VERTICES),
                      rng.randrange(VERTICES)))


def payload(kind: str, src: int, dst: int) -> Any:
    from repro.liquid import DistanceQuery, EdgeQuery, FanoutQuery

    if kind == "edge":
        return EdgeQuery(f"v{src}", LABEL)
    if kind == "fanout2":
        return FanoutQuery(f"v{src}", LABEL, limit=FANOUT_LIMIT)
    return DistanceQuery(f"v{src}", f"v{dst}", LABEL,
                         max_hops=DISTANCE_HOPS)


def build_graph(seed: int) -> Any:
    from repro import build_random_graph

    return build_random_graph(num_vertices=VERTICES, avg_degree=AVG_DEGREE,
                              label=LABEL, seed=seed, num_shards=SHARDS)


def policy_factory() -> Any:
    from repro import BouncerConfig, BouncerPolicy, LatencySLO, SLORegistry

    slos = SLORegistry.uniform(
        LatencySLO.from_ms(p50=SLO_P50_MS, p90=SLO_P90_MS),
        [kind for kind, _ in MIX])
    return lambda ctx: BouncerPolicy(ctx, BouncerConfig(slos=slos))


class Window:
    """Everything one pass of the send schedule observed."""

    def __init__(self, count: int) -> None:
        self.lag: List[float] = []
        self.submit: List[float] = []
        self.done: List[Optional[float]] = [None] * count
        self.due: List[float] = [0.0] * count
        self.futures: Dict[int, "Future[Any]"] = {}
        #: Queue waits of answered queries (s), stamped by the server.
        self.waits: List[float] = []
        self.rejected = 0
        #: The server's own tallies, read after it stopped.
        self.policy_errors = 0
        self.policy_accepted = 0
        self.policy_rejected = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0


def finished(window: Window, index: int, query: Any) -> None:
    """Done-callback (runs on a worker thread once the server is through
    with the query): completion time and queue wait."""
    window.done[index] = time.perf_counter()
    if query.dequeued_at is not None and query.enqueued_at is not None:
        window.waits.append(query.dequeued_at - query.enqueued_at)
    # The future keeps this callback, and so the query, until the run
    # ends; drop the graph query's traversal state now.
    query.payload = None


def first_measured(sends: List[Send]) -> int:
    """Index of the first send due after the warm-up."""
    return next((i for i, send in enumerate(sends) if send[0] >= WARMUP_S),
                len(sends))


def drive(service: Any, sends: List[Send], tracer: Optional[Tracer],
          executions: Dict[str, List[float]]) -> Window:
    """Run the schedule against a fresh server (stopped on return)."""
    from repro import AdmissionServer, Query

    def handler(query: Any) -> Any:
        if tracer is None:
            return service.execute(query.payload)
        start = time.perf_counter()
        try:
            return tracer.call("liquid.service:execute", service.execute,
                               query.payload, rid=query.query_id)
        finally:
            executions.setdefault(query.qtype, []).append(
                time.perf_counter() - start)

    window = Window(len(sends))
    server = AdmissionServer(policy_factory(), handler, workers=WORKERS)
    server.start()
    try:
        perf = time.perf_counter
        measured = first_measured(sends)
        cpu0 = time.process_time()
        origin = perf() + 0.01
        for index, (offset, kind, src, dst) in enumerate(sends):
            if index == measured:
                cpu0 = time.process_time()
            due = origin + offset
            window.due[index] = due
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            sent = perf()
            window.lag.append(sent - due)
            query = Query(qtype=kind, payload=payload(kind, src, dst))
            if tracer is None:
                result, future = server.try_submit(query)
            else:
                result, future = tracer.call(
                    "runtime.server:submit", server.try_submit, query,
                    rid=query.query_id)
            window.submit.append(perf() - sent)
            if future is None:
                window.rejected += 1
                continue
            window.futures[index] = future
            future.add_done_callback(
                lambda _f, i=index, q=query: finished(window, i, q))
        wait(list(window.futures.values()), timeout=DRAIN_TIMEOUT)
        window.cpu_s = time.process_time() - cpu0
        window.wall_s = perf() - origin
    finally:
        server.stop()
    totals = server.policy.stats.totals()
    window.policy_errors = server.policy_errors
    window.policy_accepted = totals.accepted
    window.policy_rejected = totals.rejected
    return window


def check_window(out: Outcome, window: Window, sends: List[Send],
                 service: Any, seed: int) -> List[int]:
    """Accounting and answer checks over every send; returns the measured
    sends answered within the p90 target."""
    sent = len(sends)
    accepted = len(window.futures)
    answered = [i for i, f in window.futures.items()
                if f.done() and not f.cancelled() and f.exception() is None]
    failed = sum(1 for f in window.futures.values()
                 if not f.done() or f.cancelled()
                 or f.exception() is not None)
    out.attempted += sent
    out.failed += failed + window.policy_errors
    out.check(sent == accepted + window.rejected,
              f"sent {sent} != accepted {accepted} + rejected "
              f"{window.rejected}")
    out.check(accepted == len(answered) + failed,
              f"accepted {accepted} != answered {len(answered)} + failed "
              f"{failed}")
    # The server's own tally must agree with the client's (a policy
    # error admits without a tally: fail-open).
    out.check(window.policy_accepted + window.policy_errors == accepted
              and window.policy_rejected == window.rejected,
              f"server tallied {window.policy_accepted} accepted + "
              f"{window.policy_errors} fail-open and "
              f"{window.policy_rejected} rejected; the client saw "
              f"{accepted} and {window.rejected}")
    rng = random.Random(f"served-check/{seed}")
    for index in rng.sample(answered, min(SAMPLE_CHECKS, len(answered))):
        _, kind, src, dst = sends[index]
        expected = service.execute(payload(kind, src, dst)).value
        got = window.futures[index].result().value
        out.check(got == expected,
                  f"answer {index} ({kind}) differs from a direct "
                  f"execution")
    limit = SLO_P90_MS / 1000.0
    measured = first_measured(sends)
    return [i for i in answered
            if i >= measured and window.done[i] is not None
            and window.done[i] - window.due[i] <= limit]


def latencies_ms(window: Window) -> List[float]:
    return [(window.done[i] - window.due[i]) * 1000.0
            for i in window.futures if window.done[i] is not None]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    sends = schedule(seed, seconds)
    if not trace:
        build_s, service = median_build(lambda: build_graph(seed))
        setup_s = time_imports(("repro",)) + build_s
        window = drive(service, sends, None, {})
        in_time = check_window(out, window, sends, service, seed)
        measured = len(sends) - first_measured(sends)
        out.metrics.update({
            "setup_s": setup_s,
            "throughput_qps": len(in_time) / seconds,
            "slo_attain": share(len(in_time), measured),
            "cpu_us_per_query": window.cpu_s / measured * 1e6,
            "peak_rss_mb": peak_rss_mb(),
        })
        return out
    return traced(out, seed, seconds, sends)


def traced(out: Outcome, seed: int, seconds: float,
           sends: List[Send]) -> Outcome:
    """Untraced then traced pass over the same schedule; per-layer
    metrics and the layer table come from the traced pass."""
    service = build_graph(seed)
    untraced = drive(service, sends, None, {})
    check_window(out, untraced, sends, service, seed)
    tracer = Tracer()
    executions: Dict[str, List[float]] = {}
    layers.install(tracer)
    try:
        window = drive(service, sends, tracer, executions)
    finally:
        tracer.uninstall()
    check_window(out, window, sends, service, seed)
    waits = [wait_s * 1000.0 for wait_s in window.waits]
    lat = latencies_ms(window)
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    metrics.update(layers.layer_metrics(tracer, len(sends)))
    metrics.update({
        "runtime.server.submit_us_p50": pct(window.submit, 50) * 1e6,
        "runtime.server.submit_us_p99": pct(window.submit, 99) * 1e6,
        "runtime.server.queue_wait_ms_p50": pct(waits, 50),
        "runtime.server.queue_wait_ms_p99": pct(waits, 99),
        "runtime.server.reject_share": share(window.rejected, len(sends)),
        "runtime.server.lat_p50_ms": pct(lat, 50),
        "runtime.server.lat_p99_ms": pct(lat, 99),
        "loadgen.lag_ms_p50": pct(window.lag, 50) * 1000.0,
        "loadgen.lag_ms_p99": pct(window.lag, 99) * 1000.0,
    })
    for kind, _ in MIX:
        metrics[f"liquid.service.execute_ms_p50.{kind}"] = pct(
            executions.get(kind, []), 50) * 1000.0
    # Self time is charged per thread; the table's total is the window
    # wall time of the client thread plus each worker thread.
    threads = 1 + WORKERS
    metrics["trace.overhead_s"] = window.cpu_s - untraced.cpu_s
    metrics.update(write_report(tracer, f"served_graph-seed{seed}",
                                window.wall_s * threads, [
        f"{len(sends)} sends over {WARMUP_S + seconds:g} s; the total is "
        f"the window ({window.wall_s:.3f} s) times {threads} threads "
        f"(client + {WORKERS} workers), so idle worker time is "
        f"unattributed.  The window is open-loop, so tracing overhead "
        f"shows as CPU: {window.cpu_s:.3f} s traced against "
        f"{untraced.cpu_s:.3f} s untraced."]))
    out.metrics = metrics
    return out
