"""The event engine and the arrival loop, held to the test-side oracles.

``Simulator`` must pop events in *exactly* the ``(when, seq)`` order of
:class:`tests.sim_oracle.ReferenceScheduler` under every interleaving of
scheduling, cancellation, and stepping; ``ArrivalSchedule.iter_chunks``
must replay the per-query RNG stream; and ``run_simulation`` must equal
the historical per-query driver :func:`tests.sim_oracle.run_per_query`
bit for bit.  Because the per-query driver shares ``Simulator`` and
``SimulatedServer`` with ``run_simulation``, counts recorded from the
earlier engine are pinned here as well.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim.simulator import Simulator
from repro.sim.workload import ArrivalSchedule, WorkloadMix
from tests.sim_oracle import ReferenceScheduler, run_per_query


def _lockstep_worlds():
    return Simulator(), ReferenceScheduler()


#: One op is (kind, payload); payloads are drawn small so schedules stay
#: dense enough for ties, cancellations, and compactions to all occur
#: within a script.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.floats(min_value=0.0, max_value=5.0,
                                           allow_nan=False)),
        st.tuples(st.just("after"), st.floats(min_value=0.0, max_value=0.5,
                                              allow_nan=False)),
        st.tuples(st.just("call"), st.floats(min_value=0.0, max_value=2.0,
                                             allow_nan=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0,
                                                 max_value=40)),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=8)),
    ),
    min_size=1, max_size=60)


class TestSchedulerEquivalence:
    """``Simulator`` vs the reference scheduler: identical pop sequences."""

    @settings(max_examples=120, deadline=None)
    @given(ops=_OPS)
    def test_identical_pop_sequences(self, ops):
        engine, reference = _lockstep_worlds()
        fired = {id(engine): [], id(reference): []}
        handles = {id(engine): [], id(reference): []}

        def run_script(sim):
            log = fired[id(sim)]
            pending_handles = handles[id(sim)]
            for kind, payload in ops:
                if kind == "at":
                    when = sim.now + payload
                    pending_handles.append(sim.schedule_at(
                        when,
                        lambda s=sim, w=when: log.append(("at", w, s.now))))
                elif kind == "after":
                    pending_handles.append(sim.schedule_after(
                        payload, lambda s=sim: log.append(("after", s.now))))
                elif kind == "call":
                    when = sim.now + payload
                    sim._schedule_call(when, log.append, ("call", when))
                elif kind == "cancel":
                    if pending_handles:
                        pending_handles[payload
                                        % len(pending_handles)].cancel()
                elif kind == "step":
                    for _ in range(payload):
                        if not sim.step():
                            break
                log.append(("pending", sim.pending))
            sim.run()

        run_script(engine)
        run_script(reference)
        assert fired[id(engine)] == fired[id(reference)]
        # repro: allow=no-simtime-float-eq (bit-identity: exact same float)
        assert engine.now == reference.now
        assert engine.events_processed == reference.events_processed

    @settings(max_examples=60, deadline=None)
    @given(whens=st.lists(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False),
                          min_size=1, max_size=200),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_same_timestamp_ties_resolve_by_seq(self, whens, seed):
        # Duplicate some timestamps deliberately: ties must fire in
        # scheduling order on both schedulers.
        rng = random.Random(seed)
        whens = whens + [rng.choice(whens) for _ in range(len(whens) // 2)]
        engine, reference = _lockstep_worlds()
        order = {id(engine): [], id(reference): []}
        for sim in (engine, reference):
            log = order[id(sim)]
            for tag, when in enumerate(whens):
                sim._schedule_call(when, log.append, (when, tag))
            sim.run()
        assert order[id(engine)] == order[id(reference)]
        # Non-decreasing in time; equal timestamps keep scheduling order.
        popped = order[id(engine)]
        assert all(a[0] <= b[0] for a, b in zip(popped, popped[1:]))
        assert all(a[1] < b[1] for a, b in zip(popped, popped[1:])
                   if a[0] == b[0])

    def test_run_until_stops_identically(self):
        for sim in _lockstep_worlds():
            log = []
            for when in (0.5, 1.0, 1.5, 2.5):
                sim._schedule_call(when, log.append, when)
            sim.run(until=1.5)
            assert log == [0.5, 1.0, 1.5]
            # repro: allow=no-simtime-float-eq (until= pins the exact bound)
            assert sim.now == 1.5
            assert sim.pending == 1
            sim.run(max_events=0)
            assert log == [0.5, 1.0, 1.5]


class TestNaNTimestamps:
    """A NaN instant compares False against everything; the engine must
    refuse it instead of scheduling an event it can never order."""

    def test_schedule_at_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_schedule_after_rejects_nan(self):
        sim = Simulator(start=3.0)
        with pytest.raises(SimulationError):
            sim.schedule_after(float("nan"), lambda: None)
        assert sim.pending == 0


def _mix():
    from repro.sim.workload import QueryTypeSpec

    return WorkloadMix([
        QueryTypeSpec("fast", 0.6, mu=math.log(0.01), sigma=0.4),
        QueryTypeSpec("slow", 0.3, mu=math.log(0.05), sigma=0.7),
        QueryTypeSpec("fixed", 0.1, mu=math.log(0.02), sigma=0.0),
    ])


class TestChunkedWorkloadEquivalence:
    """``iter_chunks`` must replay the per-query RNG stream exactly."""

    def test_chunked_matches_per_query_stream(self):
        n = 6000
        ref_queries = []
        for query in ArrivalSchedule(_mix(), 500.0, seed=42):
            ref_queries.append(query)
            if len(ref_queries) >= n:
                break
        # The block is max(4096, 2 * chunk_size) uniforms and each query
        # draws at least two, so a refill lands mid-chunk at every size.
        for chunk_size in (1, 256, 5000):
            new_queries = []
            for chunk in ArrivalSchedule(_mix(), 500.0,
                                         seed=42).iter_chunks(chunk_size):
                assert len(chunk) == chunk_size
                new_queries.extend(chunk)
                if len(new_queries) >= n:
                    break
            for ref, new in zip(ref_queries, new_queries[:n]):
                assert ref.qtype == new.qtype
                assert ref.arrival_time == new.arrival_time
                assert ref.payload == new.payload


def _fig06_cell(**kwargs):
    from repro.bench.experiments import make_bouncer, simulation_mix
    from repro.sim.driver import run_simulation

    return run_simulation(
        simulation_mix(), make_bouncer(), rate_qps=4000.0,
        num_queries=2500, parallelism=100, warmup_queries=1000, seed=11,
        attainment_threshold=0.05, **kwargs)


def _counts(report):
    return {qtype: (stats.completed, stats.rejected, stats.expired)
            for qtype, stats in sorted(report.per_type.items())}


class TestPinnedCounts:
    """Per-type completed/rejected/expired counts recorded from the
    engine before the single-heap rewrite (calendar queue, chunked
    numpy draws, pooled queries, batched offers).  The per-query oracle
    shares the engine and host with the driver, so only these fixed
    numbers catch a drift in both."""

    def test_fig06_cell(self):
        assert _counts(_fig06_cell()) == {
            "fast": (1022, 0, 0), "medium_fast": (519, 0, 0),
            "medium_slow": (722, 0, 0), "slow": (237, 0, 0)}

    def test_fig06_overload_cell(self):
        from repro.bench.experiments import make_bouncer, simulation_mix
        from repro.sim.driver import run_simulation

        mix = simulation_mix()
        report = run_simulation(
            mix, make_bouncer(), rate_qps=1.2 * mix.full_load_qps(100),
            num_queries=3000, parallelism=100, warmup_queries=1500,
            seed=11, attainment_threshold=0.05)
        assert _counts(report) == {
            "fast": (1235, 0, 0), "medium_fast": (599, 0, 0),
            "medium_slow": (881, 0, 0), "slow": (240, 45, 0)}

    def test_cluster_cell(self):
        from repro.bench.experiments import cluster_config, make_bouncer_aa
        from repro.liquid import run_cluster_simulation

        report = run_cluster_simulation(
            cluster_config(seed=3), make_bouncer_aa(), rate_qps=27000.0,
            num_queries=2000, warmup_queries=500, seed=3,
            attainment_threshold=0.05)
        assert _counts(report) == {
            "QT1": (225, 0, 0), "QT10": (70, 0, 0), "QT11": (401, 183, 0),
            "QT2": (1, 0, 0), "QT4": (39, 0, 0), "QT5": (282, 0, 0),
            "QT6": (272, 0, 0), "QT7": (7, 0, 0), "QT9": (504, 16, 0)}
        assert report.broker_rejections == 199


def _canonical_spans(recorder):
    """Span records with run-global ids (query, trace, span) remapped to
    first-seen ordinals, so two runs in one process compare by structure
    and timings only."""
    canonical = {}

    def ordinal(value):
        if value is None:
            return None
        return canonical.setdefault(value, len(canonical))

    spans = []
    for line in recorder.render_jsonl().splitlines():
        record = json.loads(line)
        record.pop("query_id", None)
        for key in ("trace_id", "span_id", "parent_id"):
            if key in record:
                record[key] = ordinal(record[key])
        spans.append(record)
    return spans


class TestEndToEndReportEquality:
    """``run_simulation`` vs the historical per-query driver: equal
    reports (floats included) and equal decision sequences."""

    SEEDS = (1, 7, 11)

    def _cell(self, driver, seed, **kwargs):
        from repro.bench.experiments import make_bouncer, simulation_mix

        mix = simulation_mix()
        return driver(mix, make_bouncer(),
                      rate_qps=1.2 * mix.full_load_qps(100),
                      num_queries=1500, parallelism=100,
                      warmup_queries=700, seed=seed,
                      attainment_threshold=0.05, **kwargs)

    def test_optimized_run_equals_legacy_run(self):
        from repro.sim.driver import run_simulation

        rejected = 0
        for seed in self.SEEDS:
            report = self._cell(run_simulation, seed)
            assert report == self._cell(run_per_query, seed)
            rejected += report.overall.rejected
        assert rejected > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_decision_sequence_equals_per_query_driver(self, seed):
        from repro.sim.driver import run_simulation

        runs = []
        for driver in (run_simulation, run_per_query):
            seq = []
            report = self._cell(driver, seed, on_decision=lambda now, q, r:
                                seq.append((now, q.qtype, r.accepted,
                                            r.reason,
                                            tuple(sorted(
                                                r.estimates.items())))))
            runs.append((seq, report))
        assert len(runs[0][0]) == 2200
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spans_and_unarmed_injector_equal_per_query_driver(self, seed):
        from repro.faults import FaultInjector, FaultPlan
        from repro.sim.driver import run_simulation
        from repro.telemetry import SpanRecorder, Telemetry

        runs = []
        for driver in (run_simulation, run_per_query):
            recorder = SpanRecorder(capacity=100_000, sample_rate=1.0)
            # Empty plan: unarmed through warm-up, armed when measurement
            # starts, and never injects anything.
            injector = FaultInjector(FaultPlan(name="idle", seed=5))
            report = self._cell(driver, seed,
                                telemetry=Telemetry(spans=recorder),
                                fault_injector=injector)
            runs.append((report, _canonical_spans(recorder)))
        assert len(runs[0][1]) > 0
        assert runs[0] == runs[1]
