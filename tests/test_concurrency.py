"""Concurrency tests: shared structures under thread contention.

The threaded runtime exercises these structures from many workers at
once; these tests hammer them directly and check the invariants that the
per-call locks are supposed to protect.

All tests drive time through :class:`~repro.core.ManualClock` and line
threads up on a start barrier, so interval swaps happen exactly where the
test advances the clock and assertions can be exact — no wall-clock
sleeps, no tolerance bands, no flakiness on slow CI machines.
"""

import random
import sys
import threading

from repro.core import (BouncerConfig, BouncerPolicy, DualBufferHistogram,
                        HostContext, LatencySLO, ManualClock, PolicyStats,
                        QueueView, SlidingWindowCounts, SlidingWindowStats,
                        SLORegistry)
from repro.core.types import AdmissionResult, Query, RejectReason


def run_threads(worker, count=8):
    """Run ``worker`` in ``count`` threads released simultaneously."""
    start = threading.Event()

    def gated():
        start.wait()
        worker()

    threads = [threading.Thread(target=gated) for _ in range(count)]
    for thread in threads:
        thread.start()
    start.set()
    for thread in threads:
        thread.join()


class TestDualBufferConcurrency:
    def test_no_records_lost(self):
        # Frozen manual clock: no interval boundary can fire mid-test, so
        # every record lands in the write buffer and one forced swap must
        # publish all of them — an exact conservation check.
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=0.01, min_samples=1)
        per_thread = 2000

        def worker():
            for _ in range(per_thread):
                buf.record(0.001)

        run_threads(worker)
        assert buf.force_swap().count == 8 * per_thread

    def test_records_split_across_intervals_conserved(self):
        # Two deterministic interval boundaries: records before each
        # advance are published by it; the published counts plus the final
        # forced swap must sum to everything recorded.
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        first_batch = threading.Barrier(5)  # 4 workers + main
        per_phase = 1000

        def worker():
            for _ in range(per_phase):
                buf.record(0.001)
            first_batch.wait()
            first_batch.wait()  # main swaps in between
            for _ in range(per_phase):
                buf.record(0.002)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        first_batch.wait()        # all phase-1 records are in
        clock.advance(1.5)
        published = buf.snapshot()  # boundary passed: publishes phase 1
        assert published.count == 4 * per_phase
        first_batch.wait()        # release phase 2
        for thread in threads:
            thread.join()
        assert buf.force_swap().count == 4 * per_phase

    def test_snapshot_immutable_under_writes(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        stop = threading.Event()
        started = threading.Event()

        def writer():
            started.set()
            while not stop.is_set():
                buf.record(0.002)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        started.wait()
        try:
            for _ in range(200):
                # Each advance crosses an interval boundary, so snapshots
                # are republished continually while writers hammer away.
                clock.advance(1.0)
                snap = buf.snapshot()
                count_before = snap.count
                mean_before = snap.mean()
                # The same snapshot object must not change underneath us.
                assert snap.count == count_before
                assert snap.mean() == mean_before
        finally:
            stop.set()
            for thread in threads:
                thread.join()


class TestQueueViewConcurrency:
    def test_balanced_enqueue_dequeue_returns_to_zero(self):
        view = QueueView()
        per_thread = 5000

        def worker():
            for i in range(per_thread):
                view.on_enqueue("t")
                view.on_dequeue("t")

        run_threads(worker)
        assert view.length() == 0
        assert view.count_for("t") == 0

    def test_length_equals_sum_of_counts(self):
        view = QueueView()

        def worker():
            for i in range(3000):
                view.on_enqueue(f"t{i % 3}")

        run_threads(worker, count=4)
        occupancy = view.occupancy()
        assert sum(occupancy.values()) == view.length() == 12000


class TestSlidingWindowConcurrency:
    def test_counts_conserved(self):
        # Frozen clock: nothing can age out of the window mid-test.
        clock = ManualClock()
        window = SlidingWindowCounts(clock, duration=60.0, step=1.0)
        per_thread = 3000

        def worker():
            for i in range(per_thread):
                window.record("k", accepted=(i % 2 == 0))

        run_threads(worker, count=4)
        assert window.received_count("k") == 4 * per_thread
        assert window.accepted_count("k") == 2 * per_thread

    def test_stats_sum_conserved(self):
        clock = ManualClock()
        stats = SlidingWindowStats(clock, duration=60.0, step=1.0)

        def worker():
            for _ in range(2000):
                stats.add(0.001)

        run_threads(worker, count=4)
        assert stats.count() == 8000
        assert abs(stats.mean() - 0.001) < 1e-9


class TestPolicyStatsConcurrency:
    def test_tallies_conserved(self):
        stats = PolicyStats()

        def worker():
            for i in range(4000):
                if i % 3:
                    stats.record("t", AdmissionResult.accept())
                else:
                    stats.record("t", AdmissionResult.reject(
                        RejectReason.CAPACITY))

        run_threads(worker, count=4)
        totals = stats.totals()
        assert totals.received == 16000
        assert totals.rejected == totals.rejected_by_reason[
            RejectReason.CAPACITY]


class TestBouncerMemoConcurrency:
    def test_wait_memo_matches_final_queue(self):
        # Threads churn the queue and decide concurrently.  Bouncer keys
        # its memoized Eq. 2 sum on the queue version; a sum stored under
        # a newer version than the counts it summed (a lost update) would
        # survive the churn and disagree with the final queue below.
        types = ("fast", "slow", "bulk")
        clock = ManualClock()
        queue = QueueView()
        ctx = HostContext(clock=clock, queue=queue, parallelism=4)
        policy = BouncerPolicy(ctx, BouncerConfig(
            slos=SLORegistry.uniform(LatencySLO.from_ms(p50=18, p90=50),
                                     types),
            min_samples=1, retain_min_samples=1, bootstrap_samples=0))
        for scale, qtype in enumerate(types, start=1):
            for _ in range(20):
                policy.on_completed(Query(qtype=qtype), 0.0, 0.002 * scale)
        clock.advance(1.0)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            mine = []
            try:
                for _ in range(1500):
                    qtype = rng.choice(types)
                    if mine and rng.random() < 0.45:
                        queue.on_dequeue(mine.pop(rng.randrange(len(mine))))
                    else:
                        queue.on_enqueue(qtype)
                        mine.append(qtype)
                    policy.decide(Query(qtype=qtype))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        expected = 0.0
        for qtype, count in queue.occupancy().items():
            expected += count * policy.processing_snapshot(qtype).mean()
        assert policy.estimate_wait_mean() == expected / 4
