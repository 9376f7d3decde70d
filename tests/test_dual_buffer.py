"""Unit tests for repro.core.dual_buffer."""

import pytest

from repro.core.clock import ManualClock
from repro.core.dual_buffer import DualBufferHistogram, SlidingWindowHistogram
from repro.exceptions import ConfigurationError


class TestDualBufferHistogram:
    def test_rejects_bad_config(self):
        clock = ManualClock()
        with pytest.raises(ConfigurationError):
            DualBufferHistogram(clock, interval=0)
        with pytest.raises(ConfigurationError):
            DualBufferHistogram(clock, min_samples=-1)
        with pytest.raises(ConfigurationError):
            DualBufferHistogram(clock, bootstrap_samples=-1)

    def test_nothing_published_within_first_interval(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0)
        buf.record(0.010)
        assert buf.snapshot().is_empty

    def test_swap_publishes_at_interval_boundary(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.record(0.010)
        clock.advance(1.0)
        snap = buf.snapshot()
        assert snap.count == 1
        assert snap.mean() == pytest.approx(0.010)

    def test_published_snapshot_excludes_current_interval(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.record(0.010)
        clock.advance(1.0)
        buf.record(0.100)  # lands in the new write buffer
        assert buf.snapshot().count == 1
        assert buf.snapshot().mean() == pytest.approx(0.010)

    def test_sparse_interval_retains_stale_snapshot(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=5)
        for _ in range(10):
            buf.record(0.010)
        clock.advance(1.0)
        assert buf.snapshot().count == 10
        # Next interval sees only 2 samples (< min_samples): keep stale.
        buf.record(0.500)
        buf.record(0.500)
        clock.advance(1.0)
        snap = buf.snapshot()
        assert snap.count == 10
        assert snap.mean() == pytest.approx(0.010)
        assert buf.retained_count >= 1

    def test_first_publication_happens_even_when_sparse(self):
        # min_samples only protects an existing snapshot; with nothing
        # published yet, any data beats no data.
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=100)
        buf.record(0.020)
        clock.advance(1.0)
        assert buf.snapshot().count == 1

    def test_multiple_idle_intervals_skip_cleanly(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.record(0.010)
        clock.advance(5.5)
        buf.record(0.020)
        # The 0.020 sample belongs to the current interval, unpublished.
        assert buf.snapshot().count == 1
        clock.advance(1.0)
        assert buf.snapshot().mean() == pytest.approx(0.020)

    def test_bootstrap_publishes_before_first_boundary(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=10.0, bootstrap_samples=3)
        buf.record(0.010)
        buf.record(0.010)
        assert buf.snapshot().is_empty
        buf.record(0.010)
        snap = buf.snapshot()
        assert snap.count == 3

    def test_bootstrap_only_fires_once(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=10.0, bootstrap_samples=2,
                                  min_samples=1)
        buf.record(0.010)
        buf.record(0.010)
        first = buf.snapshot()
        for _ in range(5):
            buf.record(0.100)
        # Still inside the interval: published snapshot unchanged.
        assert buf.snapshot().count == first.count == 2

    def test_force_swap(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=100.0, min_samples=1)
        buf.record(0.042)
        snap = buf.force_swap()
        assert snap.count == 1
        assert buf.swap_count == 1

    def test_swap_count_increments(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        for _ in range(3):
            buf.record(0.01)
            clock.advance(1.0)
            buf.snapshot()
        assert buf.swap_count == 3

    def test_no_second_swap_at_the_same_instant(self):
        # Catch-up after a long idle gap: int((now - next) / interval)
        # can round the next boundary onto ``now`` itself; a second touch
        # at that instant must not swap again.
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=0.05, min_samples=0)
        for _ in range(3):
            buf.record(0.01)
        clock.advance(1.0)
        first = buf.snapshot()
        assert (first.count, first.epoch) == (3, 1)
        assert buf.next_publish_due() > clock.now()
        again = buf.snapshot()
        assert again is first
        assert buf.swap_count == 1

    def test_no_spurious_retained_swap_at_the_same_instant(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=0.05, min_samples=10)
        for _ in range(3):
            buf.record(0.01)
        clock.advance(1.0)
        buf.snapshot()
        buf.snapshot()
        assert (buf.swap_count, buf.retained_count) == (1, 0)

    @pytest.mark.parametrize("interval", [0.01, 0.05, 0.1, 0.3])
    def test_publishing_independent_of_touch_count(self, interval):
        # Every catch-up leaves the next boundary strictly after ``now``.
        for k in range(1, 2000):
            clock = ManualClock()
            buf = DualBufferHistogram(clock, interval=interval,
                                      min_samples=0)
            buf.record(0.01)
            clock.advance(k * 0.01)
            buf.snapshot()
            assert buf.next_publish_due() > clock.now(), k


class TestSlidingWindowHistogram:
    def test_rejects_bad_config(self):
        clock = ManualClock()
        with pytest.raises(ConfigurationError):
            SlidingWindowHistogram(clock, window=0)
        with pytest.raises(ConfigurationError):
            SlidingWindowHistogram(clock, window=1.0, step=2.0)

    def test_snapshot_includes_current_slice(self):
        clock = ManualClock()
        hist = SlidingWindowHistogram(clock, window=10.0, step=1.0)
        hist.record(0.010)
        assert hist.snapshot().count == 1

    def test_old_observations_age_out(self):
        clock = ManualClock()
        hist = SlidingWindowHistogram(clock, window=3.0, step=1.0)
        hist.record(0.010)
        clock.advance(1.5)
        hist.record(0.020)
        assert hist.snapshot().count == 2
        clock.advance(3.0)  # first slice now older than the window
        snap = hist.snapshot()
        assert snap.count <= 1

    def test_everything_ages_out_eventually(self):
        clock = ManualClock()
        hist = SlidingWindowHistogram(clock, window=2.0, step=0.5)
        for _ in range(10):
            hist.record(0.010)
        clock.advance(60.0)
        assert hist.snapshot().is_empty

    def test_gradual_aging_smoother_than_dual_buffer(self):
        # Within one window, counts decrease slice by slice, not all at once.
        clock = ManualClock()
        hist = SlidingWindowHistogram(clock, window=4.0, step=1.0)
        for _ in range(4):
            hist.record(0.010)
            clock.advance(1.0)
        counts = []
        for _ in range(4):
            counts.append(hist.snapshot().count)
            clock.advance(1.0)
        assert counts[0] >= counts[-1]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("step", [0.01, 0.05, 0.1, 0.3])
    def test_rotation_matches_next_publish_due(self, step):
        # A touch changes the view exactly when ``now`` has reached
        # next_publish_due(), and always leaves the next rotation after
        # ``now`` -- so a reader can skip touches before that instant.
        clock = ManualClock()
        hist = SlidingWindowHistogram(clock, window=3 * step, step=step)
        for k in range(1, 600):
            hist.record(0.01)
            before = hist.snapshot()
            due = hist.next_publish_due()
            clock.advance(0.01 if k % 7 else 0.013)
            due_reached = clock.now() >= due
            rotated = hist.snapshot() is not before
            assert rotated is due_reached, k
            assert hist.next_publish_due() > clock.now(), k
