"""Bouncer against the naive oracle (``tests/bouncer_oracle.py``).

:class:`~repro.core.bouncer.BouncerPolicy` reads through a per-type memo;
:class:`OracleBouncer` recomputes Eqs. 2-4 and Algorithm 1 from scratch on
every call.  Driven through the same random interleavings they must agree
bit for bit on every decision, every estimate and every Eq. 2 wait: across
both histogram backends, cold start and bootstrap publishes, stale
retention switched off, p99 SLOs and the ``all`` decision mode, enqueues
before a type's first decision, preloads, state imports, forced swaps, and
SLO re-registration at a frozen instant.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BouncerConfig, BouncerPolicy, HostContext,
                        LatencySLO, ManualClock, QueueView, SLORegistry)
from repro.core.bouncer import DECISION_ALL, HISTOGRAMS_SLIDING_WINDOW
from repro.core.histogram import LatencyHistogram
from repro.core.types import Query
from tests.bouncer_oracle import OracleBouncer

TYPES = ("a", "b", "c")
SLOS = (LatencySLO.from_ms(p50=18, p90=50),
        LatencySLO.from_ms(p50=5, p90=20, p99=60),
        LatencySLO.from_ms(p90=30),
        LatencySLO.from_ms(p99=45))
GENERAL = "<general>"

CONFIGS = {
    "dual_buffer": dict(min_samples=3, retain_min_samples=2,
                        bootstrap_samples=2, histogram_interval=0.05),
    "no_retention": dict(min_samples=0, retain_min_samples=0,
                         bootstrap_samples=0, histogram_interval=0.05),
    "bootstrap": dict(min_samples=1, retain_min_samples=1,
                      bootstrap_samples=3, histogram_interval=0.3),
    "all_mode": dict(min_samples=2, retain_min_samples=1,
                     bootstrap_samples=2, histogram_interval=0.05,
                     decision_mode=DECISION_ALL),
    "sliding_window": dict(min_samples=2, histogram_interval=0.05,
                           histogram_mode=HISTOGRAMS_SLIDING_WINDOW,
                           histogram_window=0.15),
}


class World:
    """One policy with its own clock, queue and SLO registry."""

    def __init__(self, policy_class, config, parallelism=3):
        self.clock = ManualClock()
        self.queue = QueueView()
        self.slos = SLORegistry(default=SLOS[0], per_type={"a": SLOS[1]})
        ctx = HostContext(clock=self.clock, queue=self.queue,
                          parallelism=parallelism)
        self.policy = policy_class(ctx, BouncerConfig(slos=self.slos,
                                                      **config))

    def backend(self, key):
        if key == GENERAL:
            return self.policy._general
        return self.policy._histogram_for(key)


class OracleRunner:
    """Apply one op script to a memoized and an oracle world in lockstep."""

    def __init__(self, config):
        self.dual_buffer = config.get("histogram_mode") != \
            HISTOGRAMS_SLIDING_WINDOW
        self.worlds = [World(BouncerPolicy, config),
                       World(OracleBouncer, config)]
        self.queued = []
        self.compared = 0

    def run(self, ops):
        for kind, arg in ops:
            getattr(self, "op_" + kind)(arg)

    def op_record(self, arg):
        qtype, value = arg
        for world in self.worlds:
            world.policy.on_completed(Query(qtype=qtype), 0.0, value)

    def op_enqueue(self, qtype):
        self.queued.append(qtype)
        for world in self.worlds:
            world.queue.on_enqueue(qtype)
            world.policy.on_enqueued(Query(qtype=qtype))

    def op_dequeue(self, index):
        if self.queued:
            qtype = self.queued.pop(index % len(self.queued))
            for world in self.worlds:
                world.queue.on_dequeue(qtype)
                world.policy.on_dequeued(Query(qtype=qtype), 0.0)

    def op_advance(self, seconds):
        for world in self.worlds:
            world.clock.advance(seconds)

    def op_register(self, arg):
        qtype, index = arg
        for world in self.worlds:
            world.slos.register(qtype, SLOS[index])

    def op_preload(self, arg):
        key, values = arg
        if not self.dual_buffer:
            return
        snap = LatencyHistogram.from_values(values).snapshot()
        for world in self.worlds:
            if key == GENERAL:
                world.policy.preload_snapshots({}, general=snap)
            else:
                world.policy.preload_snapshots({key: snap})

    def op_import(self, values):
        if not self.dual_buffer:
            return
        donor = World(BouncerPolicy, dict(min_samples=1,
                                          retain_min_samples=1))
        for qtype, value in zip(TYPES * len(values), values):
            donor.policy.on_completed(Query(qtype=qtype), 0.0, value)
        donor.clock.advance(1.0)
        state = donor.policy.export_state()
        for world in self.worlds:
            world.policy.import_state(state)

    def op_force_swap(self, key):
        if not self.dual_buffer:
            return
        for world in self.worlds:
            world.backend(key).force_swap()
            world.policy.invalidate_estimates()

    def op_decide(self, qtype):
        memo, oracle = (world.policy.decide(Query(qtype=qtype))
                        for world in self.worlds)
        assert memo.decision is oracle.decision
        assert memo.reason is oracle.reason
        assert memo.estimates == oracle.estimates  # exact float equality
        self.compared += 1

    def op_estimate(self, qtype):
        memo, oracle = (world.policy.estimate(qtype)
                        for world in self.worlds)
        assert memo.wait_mean == oracle.wait_mean
        assert memo.response == oracle.response
        assert memo.slo is oracle.slo
        assert memo.cold_start == oracle.cold_start
        self.compared += 1

    def op_wait(self, _):
        memo, oracle = (world.policy.estimate_wait_mean()
                        for world in self.worlds)
        assert memo == oracle
        self.compared += 1


def op_strategy(max_size=60):
    qtypes = st.sampled_from(TYPES)
    values = st.floats(min_value=1e-4, max_value=0.1, allow_nan=False)
    return st.lists(
        st.one_of(
            st.tuples(st.just("record"), st.tuples(qtypes, values)),
            st.tuples(st.just("enqueue"), qtypes),
            st.tuples(st.just("dequeue"), st.integers(0, 7)),
            st.tuples(st.just("advance"), st.sampled_from(
                [0.01, 0.02, 0.03, 0.05, 0.1, 0.3, 1.0, 2.5])),
            st.tuples(st.just("decide"), qtypes),
            st.tuples(st.just("estimate"), qtypes),
            st.tuples(st.just("wait"), st.none()),
            st.tuples(st.just("register"),
                      st.tuples(qtypes, st.integers(0, len(SLOS) - 1))),
            st.tuples(st.just("preload"), st.tuples(
                st.sampled_from(TYPES + (GENERAL,)),
                st.lists(values, min_size=1, max_size=8))),
            st.tuples(st.just("import"),
                      st.lists(values, min_size=1, max_size=12)),
            st.tuples(st.just("force_swap"),
                      st.sampled_from(TYPES + (GENERAL,))),
        ),
        min_size=1, max_size=max_size)


def seeded_ops(seed, count=400):
    """A long random script (many publish boundaries per run)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        roll = rng.random()
        qtype = rng.choice(TYPES)
        if roll < 0.30:
            ops.append(("record", (qtype, rng.uniform(1e-4, 0.08))))
        elif roll < 0.45:
            ops.append(("enqueue", qtype))
        elif roll < 0.55:
            ops.append(("dequeue", rng.randrange(8)))
        elif roll < 0.68:
            ops.append(("advance", rng.choice(
                [0.01, 0.02, 0.03, 0.05, 0.1, 0.3, 0.7, 1.0, 2.5])))
        elif roll < 0.69:
            ops.append(("force_swap", rng.choice(TYPES + (GENERAL,))))
        elif roll < 0.70:
            ops.append(("register", (qtype, rng.randrange(len(SLOS)))))
        elif roll < 0.71:
            ops.append(("preload", (rng.choice(TYPES + (GENERAL,)),
                                    [rng.uniform(1e-3, 0.05)
                                     for _ in range(rng.randrange(1, 20))])))
        elif roll < 0.75:
            ops.append(("estimate", qtype))
        else:
            ops.append(("decide", qtype))
    return ops


class TestOracleBattery:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @settings(max_examples=100, deadline=None)
    @given(ops=op_strategy())
    def test_random_interleavings(self, name, ops):
        OracleRunner(CONFIGS[name]).run(ops)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_seeded_soak(self, name):
        for seed in range(12):
            runner = OracleRunner(CONFIGS[name])
            runner.run(seeded_ops(seed))
            assert runner.compared > 50


class TestOracleRegressions:
    def test_enqueue_before_first_decision(self):
        # A type queued before its first decision gets its histogram at
        # that decision, as in the oracle -- not at enqueue, which would
        # start its publish grid earlier and make it warm 20 ms sooner.
        results = []
        for policy_class in (BouncerPolicy, OracleBouncer):
            world = World(policy_class, dict(histogram_interval=0.05,
                                             min_samples=1),
                          parallelism=2)
            world.clock.advance(0.01)
            world.queue.on_enqueue("x")
            world.policy.on_enqueued(Query(qtype="x"))
            world.clock.advance(0.02)
            world.policy.decide(Query(qtype="x"))
            world.clock.advance(0.01)
            world.policy.on_completed(Query(qtype="x"), 0.0, 0.004)
            world.policy.on_completed(Query(qtype="y"), 0.0, 0.040)
            world.clock.advance(0.03)
            results.append(world.policy.decide(Query(qtype="x")))
        memo, oracle = results
        assert memo.estimates == oracle.estimates
        # x is still cold at 0.07: general mean 22 ms / P=2 as the wait,
        # plus the general p50 (~4 ms).
        assert memo.estimates[50.0] == pytest.approx(0.01508, abs=1e-4)

    def test_register_at_frozen_instant(self):
        runner = OracleRunner(CONFIGS["dual_buffer"])
        runner.run([("record", ("b", 0.004))] * 4
                   + [("advance", 0.05), ("enqueue", "b"),
                      ("decide", "b"), ("register", ("b", 1)),
                      ("decide", "b"), ("estimate", "b"),
                      ("register", ("b", 3)), ("decide", "b"),
                      ("register", ("b", 0)), ("decide", "b")])

    def test_force_swap_then_invalidate(self):
        runner = OracleRunner(CONFIGS["bootstrap"])
        runner.run([("record", ("a", 0.004)), ("decide", "a"),
                    ("enqueue", "a"), ("force_swap", "a"),
                    ("decide", "a"), ("force_swap", GENERAL),
                    ("decide", "b"), ("wait", None)])
