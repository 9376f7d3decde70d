"""Gateway worker process: one shard's Bouncer behind a unix socket.

Each worker owns the consistent-hash shard of query types routed to it and
runs a private :class:`~repro.core.bouncer.BouncerPolicy` on a *frozen*
:class:`~repro.core.clock.ManualClock`.  Freezing the clock removes every
time-driven state change (dual-buffer swaps, bootstrap publishes) from the
worker, so its policy state advances only through the two channels the
decision log records: snapshot-board generations applied and decisions
made.  That is what makes a worker's admission stream *bit-identical* to a
single-process replay of its log — the acceptance check the gateway bench
performs (``repro gateway-bench``).

The transport is a line protocol over a unix stream socket, one asyncio
server per worker:

``d <seq> <qt1,qt2,...>``
    Decide a batch; replies ``r <seq> <bits>`` with one ``0``/``1`` per
    query, in order.
``s``
    Replies ``S <json>`` with the worker's counters (the per-shard stats
    the parent aggregates over this control channel).
``x``
    Flush the decision log to the spec'd path, reply ``X <decisions>``,
    and shut the worker down.

Fail-open parity with :class:`~repro.runtime.AdmissionServer` is
structural: batches run through the same
:func:`~repro.runtime.server.decide_many_fail_open` helper the threaded
server's ``submit_many`` uses, so a crashing policy admits exactly the
query that raised and bumps ``policy_errors`` in both hosts.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import (BouncerConfig, BouncerPolicy, HostContext, LatencySLO,
                    ManualClock, QueueView, SLORegistry)
from ..core.types import AdmissionResult, Query
from ..runtime.server import decide_many_fail_open
from .snapshot import SnapshotBoard


@dataclass(frozen=True)
class PolicySpec:
    """Picklable recipe for one shard's policy.

    Primitives only: the spec crosses the ``spawn`` pickling boundary
    into every worker, and the bench replay rebuilds the *same* policy
    from it in-process.  SLO targets are ``{percentile: seconds}``
    mappings; ``queue_fill`` is the static simulated per-type queue depth
    each worker carries (the gateway is an admission tier — it decides
    and answers, it does not execute, so Eq. 2's occupancy term is a
    configured stand-in for the protected engine's queue).
    """

    default_slo: Mapping[float, float]
    type_slos: Mapping[str, Mapping[float, float]] = field(
        default_factory=dict)
    queue_fill: Mapping[str, int] = field(default_factory=dict)
    parallelism: int = 8
    min_samples: int = 1
    retain_min_samples: int = 1
    bootstrap_samples: int = 0

    def build(self) -> Tuple[BouncerPolicy, QueueView, ManualClock]:
        """Construct the policy (frozen clock, static queue fill)."""
        clock = ManualClock(0.0)
        queue = QueueView()
        ctx = HostContext(clock=clock, queue=queue,
                          parallelism=self.parallelism)
        registry = SLORegistry(
            default=LatencySLO(dict(self.default_slo)),
            per_type={qtype: LatencySLO(dict(targets))
                      for qtype, targets in self.type_slos.items()})
        policy = BouncerPolicy(ctx, BouncerConfig(
            slos=registry, min_samples=self.min_samples,
            retain_min_samples=self.retain_min_samples,
            bootstrap_samples=self.bootstrap_samples))
        # Deterministic fill order: sorted by type, then sequential.
        for qtype in sorted(self.queue_fill):
            for _ in range(int(self.queue_fill[qtype])):
                query = Query(qtype=qtype)
                query.enqueued_at = 0.0
                queue.on_enqueue(qtype)
                policy.on_enqueued(query)
        return policy, queue, clock


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, picklable for ``spawn``."""

    shard: int
    socket_path: str
    log_path: str
    board_name: Optional[str]
    policy: PolicySpec


class ShardEngine:
    """Transport-free core of a worker: policy + log + counters.

    Kept separate from the asyncio plumbing so tests (and the bench
    replay) can drive the exact decision/sync sequence in-process.
    """

    def __init__(self, spec: PolicySpec,
                 board: Optional[SnapshotBoard] = None,
                 shard: int = 0) -> None:
        self.policy, self.queue_view, self.clock = spec.build()
        self._board = board
        self.shard = shard
        self.generation = 0
        self.decisions = 0
        self.accepted = 0
        self.policy_errors = 0
        self.snapshot_syncs = 0
        self.per_type: Dict[str, List[int]] = {}   # qtype -> [decided, ok]
        # Append-only decision log, packed as UTF-8 bytes.  A list of str
        # held one ~50-byte object per decision; one bytearray holds the
        # same flushed text (each record appended with its newline) in a
        # single growing buffer — ~10x less memory per million decisions
        # and no join pass at flush time.
        self._log = bytearray()

    def _on_policy_error(self) -> None:
        self.policy_errors += 1

    def sync_board(self) -> None:
        """Adopt the board's latest generation, if it moved.

        The applied generation is appended to the decision log *before*
        any decision made under it, giving the replay the exact preload
        positions.  Epochs are adopted from the published snapshots, so
        estimator caches invalidate identically in every process.
        """
        if self._board is None:
            return
        view = self._board.read()
        if view is None or view.generation == self.generation:
            return
        self.generation = view.generation
        self.policy.preload_snapshots(view.types, view.general,
                                      adopt_epochs=True)
        self.snapshot_syncs += 1
        self._log += f"g {view.generation}\n".encode("utf-8")

    def decide_batch(self, qtypes: Sequence[str]) -> str:
        """Decide one frame; returns the accept bits as a 0/1 string."""
        self.sync_board()
        queries = [Query(qtype=qtype) for qtype in qtypes]
        bits: List[str] = []
        log = self._log
        per_type = self.per_type

        def apply(query: Query, result: AdmissionResult) -> None:
            bit = "1" if result.accepted else "0"
            bits.append(bit)
            log.extend(f"d {query.qtype} {bit}\n".encode("utf-8"))
            tally = per_type.get(query.qtype)
            if tally is None:
                tally = per_type.setdefault(query.qtype, [0, 0])
            tally[0] += 1
            if result.accepted:
                tally[1] += 1

        decide_many_fail_open(self.policy, queries, apply,
                              self._on_policy_error)
        self.decisions += len(bits)
        self.accepted += sum(1 for bit in bits if bit == "1")
        return "".join(bits)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot shipped over the control channel."""
        return {
            "shard": self.shard,
            "decisions": self.decisions,
            "accepted": self.accepted,
            "rejected": self.decisions - self.accepted,
            "policy_errors": self.policy_errors,
            "generation": self.generation,
            "snapshot_syncs": self.snapshot_syncs,
            "per_type": {qtype: {"decided": tally[0], "accepted": tally[1]}
                         for qtype, tally in sorted(self.per_type.items())},
        }

    def flush_log(self, path: str) -> int:
        """Write the decision log; returns the number of decisions.

        The flushed text is byte-for-byte what the ``List[str]`` log
        produced (newline-terminated records, empty file for an empty
        log) — the replay reader is unchanged.
        """
        with open(path, "wb") as handle:
            handle.write(self._log)
        return self.decisions


async def _serve(spec: WorkerSpec) -> None:
    board = (SnapshotBoard.attach(spec.board_name)
             if spec.board_name else None)
    engine = ShardEngine(spec.policy, board, spec.shard)
    stopped = asyncio.Event()

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                verb = line[:1]
                if verb == b"d":
                    gap = line.index(b" ", 2)
                    seq = line[2:gap]
                    qtypes = line[gap + 1:-1].decode("ascii").split(",")
                    bits = engine.decide_batch(qtypes)
                    writer.write(b"r %s %s\n"
                                 % (seq, bits.encode("ascii")))
                    await writer.drain()
                elif verb == b"s":
                    payload = json.dumps(engine.stats()).encode("utf-8")
                    writer.write(b"S %s\n" % payload)
                    await writer.drain()
                elif verb == b"x":
                    count = engine.flush_log(spec.log_path)
                    writer.write(b"X %d\n" % count)
                    await writer.drain()
                    stopped.set()
                    break
                # Unknown verbs are ignored: a newer parent may speak a
                # superset and the worker must not wedge the connection.
        finally:
            writer.close()

    server = await asyncio.start_unix_server(handle, path=spec.socket_path)
    try:
        async with server:
            await stopped.wait()
    finally:
        if board is not None:
            board.close()


def worker_main(spec: WorkerSpec) -> None:
    """Process entry point (the ``spawn`` target)."""
    asyncio.run(_serve(spec))
