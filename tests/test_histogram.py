"""Unit tests for repro.core.histogram."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import (SNAPSHOT_WIRE_HEADER, BucketLayout,
                                  HistogramSnapshot, LatencyHistogram,
                                  empty_snapshot)
from repro.exceptions import ConfigurationError


class TestBucketLayout:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BucketLayout(min_value=0)
        with pytest.raises(ConfigurationError):
            BucketLayout(min_value=1.0, max_value=0.5)
        with pytest.raises(ConfigurationError):
            BucketLayout(growth=1.0)

    def test_index_for_small_values_clamps_to_zero(self):
        layout = BucketLayout(min_value=1e-6)
        assert layout.index_for(0.0) == 0
        assert layout.index_for(1e-9) == 0

    def test_index_for_large_values_clamps_to_last(self):
        layout = BucketLayout(max_value=10.0)
        assert layout.index_for(10.0) == layout.num_buckets - 1
        assert layout.index_for(1e6) == layout.num_buckets - 1

    def test_value_falls_within_its_bucket_bounds(self):
        layout = BucketLayout()
        for value in (1e-6, 3.7e-5, 0.00123, 0.018, 0.5, 7.0, 99.0):
            idx = layout.index_for(value)
            assert layout.lower_bound(idx) <= value < layout.upper_bound(idx)

    def test_bounds_are_monotone(self):
        layout = BucketLayout()
        bounds = [layout.lower_bound(i) for i in range(layout.num_buckets)]
        assert bounds == sorted(bounds)

    def test_compatibility(self):
        a = BucketLayout()
        b = BucketLayout()
        c = BucketLayout(growth=1.1)
        assert a.compatible_with(b)
        assert not a.compatible_with(c)


class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert len(hist) == 0

    def test_record_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_mean_is_exact(self):
        hist = LatencyHistogram.from_values([0.010, 0.020, 0.030])
        assert hist.mean() == pytest.approx(0.020)

    def test_percentile_within_relative_error(self):
        values = [0.001 * i for i in range(1, 1001)]
        hist = LatencyHistogram.from_values(values)
        # True p50 is ~0.5; log-bucket approximation error <= growth - 1.
        assert hist.percentile(50) == pytest.approx(0.5, rel=0.05)
        assert hist.percentile(90) == pytest.approx(0.9, rel=0.05)
        assert hist.percentile(99) == pytest.approx(0.99, rel=0.05)

    def test_single_value_percentiles(self):
        hist = LatencyHistogram.from_values([0.018])
        for p in (1, 50, 99, 100):
            assert hist.percentile(p) == pytest.approx(0.018, rel=0.05)

    def test_percentile_monotone_in_p(self):
        hist = LatencyHistogram.from_values(
            [0.001, 0.003, 0.010, 0.050, 0.200])
        values = [hist.percentile(p) for p in (10, 25, 50, 75, 90, 99)]
        assert values == sorted(values)

    def test_merge_combines_counts_and_sum(self):
        a = LatencyHistogram.from_values([0.010] * 10)
        b = LatencyHistogram.from_values([0.030] * 10)
        a.merge(b)
        assert a.count == 20
        assert a.mean() == pytest.approx(0.020)

    def test_merge_rejects_incompatible_layouts(self):
        a = LatencyHistogram(BucketLayout())
        b = LatencyHistogram(BucketLayout(growth=1.2))
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_reset_clears_everything(self):
        hist = LatencyHistogram.from_values([0.01, 0.02])
        hist.reset()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert hist.snapshot().is_empty

    def test_values_above_max_clamp_instead_of_erroring(self):
        layout = BucketLayout(max_value=1.0)
        hist = LatencyHistogram(layout)
        hist.record(50.0)
        assert hist.count == 1
        assert hist.percentile(50) <= layout.upper_bound(
            layout.num_buckets - 1)


class TestHistogramSnapshot:
    def test_snapshot_is_isolated_from_later_records(self):
        hist = LatencyHistogram.from_values([0.010])
        snap = hist.snapshot()
        hist.record(0.100)
        assert snap.count == 1
        assert hist.count == 2

    def test_empty_snapshot_percentile_is_zero(self):
        snap = empty_snapshot()
        assert snap.is_empty
        assert snap.percentile(50) == 0.0
        assert snap.mean() == 0.0

    def test_percentile_rejects_out_of_range(self):
        snap = LatencyHistogram.from_values([0.01]).snapshot()
        with pytest.raises(ValueError):
            snap.percentile(0)
        with pytest.raises(ValueError):
            snap.percentile(101)

    def test_percentiles_batch_matches_individual(self):
        hist = LatencyHistogram.from_values(
            [0.001 * i for i in range(1, 500)])
        snap = hist.snapshot()
        batch = snap.percentiles([50, 90, 99])
        individual = [snap.percentile(p) for p in (50, 90, 99)]
        assert batch == pytest.approx(individual)

    def test_percentiles_batch_on_empty(self):
        assert empty_snapshot().percentiles([50, 90]) == [0.0, 0.0]

    def test_merged_with(self):
        a = LatencyHistogram.from_values([0.010] * 5).snapshot()
        b = LatencyHistogram.from_values([0.020] * 5).snapshot()
        merged = a.merged_with(b)
        assert merged.count == 10
        assert merged.mean() == pytest.approx(0.015)
        # Operands untouched.
        assert a.count == 5 and b.count == 5

    def test_merged_with_incompatible_layouts(self):
        a = LatencyHistogram(BucketLayout()).snapshot()
        b = LatencyHistogram(BucketLayout(growth=1.5)).snapshot()
        with pytest.raises(ConfigurationError):
            a.merged_with(b)


latencies = st.lists(st.floats(min_value=1e-7, max_value=200.0,
                               allow_nan=False), max_size=40)


def wire(values, epoch=3):
    hist = LatencyHistogram.from_values(values)
    return hist.snapshot(epoch=epoch).to_bytes()


def with_header(buf, **fields):
    names = ("min_value", "max_value", "growth", "epoch", "count", "sum",
             "num_buckets")
    header = dict(zip(names, SNAPSHOT_WIRE_HEADER.unpack_from(buf, 0)))
    header.update(fields)
    return (SNAPSHOT_WIRE_HEADER.pack(*(header[name] for name in names))
            + buf[SNAPSHOT_WIRE_HEADER.size:])


class TestSnapshotWireForm:
    """``from_bytes`` validates like ``from_dict``: a record decodes to
    exactly what was encoded, or raises ConfigurationError."""

    def test_truncated_record_rejected(self):
        buf = wire([0.01] * 30)
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_bytes(buf[:-800])
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_bytes(buf[:10])
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_bytes(buf, offset=len(buf))

    def test_count_must_match_bucket_sum(self):
        buf = with_header(wire([0.01] * 30), count=999)
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_bytes(buf)

    def test_negative_bucket_count_rejected(self):
        buf = bytearray(wire([0.01] * 30))
        header = SNAPSHOT_WIRE_HEADER.size
        struct.pack_into("<qq", buf, header, -1, 1)
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_bytes(bytes(with_header(bytes(buf))))

    def test_invalid_layout_header_rejected(self):
        buf = wire([0.01])
        for fields in (dict(growth=1.0 + 1e-12), dict(growth=float("nan")),
                       dict(min_value=-1.0), dict(max_value=float("inf")),
                       dict(num_buckets=0), dict(num_buckets=-5)):
            with pytest.raises(ConfigurationError):
                HistogramSnapshot.from_bytes(with_header(buf, **fields))

    @settings(max_examples=150, deadline=None)
    @given(values=latencies, epoch=st.integers(0, 2**40),
           prefix=st.binary(max_size=16))
    def test_roundtrip(self, values, epoch, prefix):
        hist = LatencyHistogram.from_values(values)
        snap = hist.snapshot(epoch=epoch)
        buf = prefix + snap.to_bytes()
        decoded, end = HistogramSnapshot.from_bytes(buf, len(prefix))
        assert end == len(buf)
        assert (decoded.count, decoded.epoch) == (snap.count, epoch)
        assert decoded.to_dict() == snap.to_dict()

    @settings(max_examples=150, deadline=None)
    @given(values=latencies, data=st.data())
    def test_truncation_always_rejected(self, values, data):
        buf = wire(values)
        cut = data.draw(st.integers(0, len(buf) - 1))
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_bytes(buf[:cut])

    @settings(max_examples=300, deadline=None)
    @given(values=latencies, data=st.data())
    def test_malformed_record_decodes_consistently_or_raises(self, values,
                                                             data):
        buf = bytearray(wire(values))
        for _ in range(data.draw(st.integers(1, 4))):
            index = data.draw(st.integers(0, len(buf) - 1))
            buf[index] = data.draw(st.integers(0, 255))
        try:
            decoded, end = HistogramSnapshot.from_bytes(bytes(buf))
        except ConfigurationError:
            return
        assert end <= len(buf)
        as_dict = decoded.to_dict()
        assert all(count > 0 for count in as_dict["buckets"].values())
        assert decoded.count == sum(as_dict["buckets"].values())
        assert HistogramSnapshot.from_dict(as_dict).count == decoded.count


MANY_TARGETS = (1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0)
FEW_TARGETS = (50.0, 90.0)


def _random_snapshot(seed, count=500):
    rng = random.Random(seed)
    hist = LatencyHistogram()
    for _ in range(count):
        hist.record(rng.lognormvariate(-5.0, 1.0))
    return hist.snapshot()


class TestPercentileIdentity:
    @pytest.mark.parametrize("seed,targets", [
        (1, MANY_TARGETS), (2, MANY_TARGETS), (3, MANY_TARGETS),
        (4, MANY_TARGETS), (5, MANY_TARGETS), (11, FEW_TARGETS),
    ], ids=["many-1", "many-2", "many-3", "many-4", "many-5", "few-11"])
    def test_percentiles_equals_per_target_percentile(self, seed, targets):
        snap = _random_snapshot(seed)
        assert snap.percentiles(targets) == [
            snap.percentile(p) for p in targets]  # exact equality

    def test_boundary_targets_identical(self):
        # Percentile targets landing exactly on cumulative-count
        # boundaries are where bisect_left tie-breaking matters; pin them.
        hist = LatencyHistogram()
        for value in (0.001, 0.001, 0.01, 0.01, 0.1, 0.1, 0.1, 1.0):
            hist.record(value)
        snap = hist.snapshot()
        targets = (12.5, 25.0, 50.0, 62.5, 87.5, 100.0)
        assert snap.percentiles(targets) == [
            snap.percentile(p) for p in targets]
