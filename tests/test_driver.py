"""Tests for the end-to-end simulation driver (§5.3 methodology)."""

import pytest

from repro.core import AlwaysAcceptPolicy
from repro.exceptions import ConfigurationError
from repro.liquid import ClusterConfig, linkedin_cost_table
from repro.liquid import run_cluster_simulation
from repro.sim import (ArrivalSchedule, QueryTypeSpec, WorkloadMix,
                       run_simulation)


def small_mix():
    return WorkloadMix([
        QueryTypeSpec.from_mean_median("fast", 0.7, 0.002, 0.0015),
        QueryTypeSpec.from_mean_median("slow", 0.3, 0.010, 0.007),
    ])


def accept_all(ctx):
    return AlwaysAcceptPolicy()


class TestRunSimulation:
    def test_rejects_bad_num_queries(self):
        with pytest.raises(ConfigurationError):
            run_simulation(small_mix(), accept_all, 100.0, num_queries=0)

    @pytest.mark.parametrize("rate, warmup", [
        (100.0, -300), (float("nan"), 10), (float("inf"), 10),
        (-5.0, 10)])
    def test_rejects_impossible_inputs(self, rate, warmup):
        # A negative warm-up would silently shorten the measured run
        # below ``num_queries``; a NaN rate slips past ``rate <= 0`` and
        # an infinite one puts every arrival at t=0.
        with pytest.raises(ConfigurationError):
            run_simulation(small_mix(), accept_all, rate, num_queries=500,
                           warmup_queries=warmup)
        with pytest.raises(ConfigurationError):
            run_cluster_simulation(
                ClusterConfig(cost_table=linkedin_cost_table()),
                accept_all, rate, num_queries=500, warmup_queries=warmup)
        if warmup >= 0:  # the rate is the impossible input
            with pytest.raises(ConfigurationError):
                ArrivalSchedule(small_mix(), rate)

    def test_report_counts_measured_queries_only(self):
        mix = small_mix()
        report = run_simulation(mix, accept_all, rate_qps=500.0,
                                num_queries=2000, warmup_queries=500,
                                parallelism=8, seed=1)
        assert report.overall.received == 2000
        assert report.overall.completed == 2000  # accept-all, no rejections
        assert report.overall.rejected == 0

    def test_underload_means_no_queueing(self):
        mix = small_mix()
        # Offered load ~ 0.4 of capacity: responses ~ service times.
        rate = 0.4 * mix.full_load_qps(8)
        report = run_simulation(mix, accept_all, rate_qps=rate,
                                num_queries=3000, parallelism=8, seed=2)
        fast = report.stats_for("fast")
        assert fast.wait_mean < 0.002
        assert fast.response.get(50.0) == pytest.approx(0.0015, rel=0.2)

    def test_reproducible_with_same_seed(self):
        mix = small_mix()
        kwargs = dict(rate_qps=800.0, num_queries=1500, parallelism=8,
                      warmup_queries=200)
        a = run_simulation(mix, accept_all, seed=7, **kwargs)
        b = run_simulation(mix, accept_all, seed=7, **kwargs)
        assert a.overall.response == b.overall.response
        assert a.utilization == b.utilization

    def test_different_seeds_differ(self):
        mix = small_mix()
        kwargs = dict(rate_qps=800.0, num_queries=1500, parallelism=8,
                      warmup_queries=200)
        a = run_simulation(mix, accept_all, seed=7, **kwargs)
        b = run_simulation(mix, accept_all, seed=8, **kwargs)
        assert a.overall.response != b.overall.response

    def test_overload_utilization_approaches_one(self):
        mix = small_mix()
        rate = 1.5 * mix.full_load_qps(8)
        report = run_simulation(mix, accept_all, rate_qps=rate,
                                num_queries=4000, parallelism=8, seed=3)
        assert report.utilization > 0.9

    def test_report_accessors(self):
        mix = small_mix()
        report = run_simulation(mix, accept_all, rate_qps=500.0,
                                num_queries=1000, parallelism=8, seed=4)
        assert report.policy_name == "always-accept"
        assert report.rejection_pct() == 0.0
        assert report.rejection_pct("fast") == 0.0
        assert report.response_percentile("fast", 50.0) > 0.0
        assert report.response_percentile("missing", 50.0) == 0.0
        assert "always-accept" in str(report)

    def test_decision_hook_invoked_per_arrival(self):
        mix = small_mix()
        decisions = []
        run_simulation(mix, accept_all, rate_qps=500.0, num_queries=100,
                       warmup_queries=50, parallelism=8, seed=5,
                       on_decision=lambda now, q, r: decisions.append(now))
        assert len(decisions) == 150  # warm-up + measured
        assert decisions == sorted(decisions)

    def test_per_type_breakdown_present(self):
        mix = small_mix()
        report = run_simulation(mix, accept_all, rate_qps=500.0,
                                num_queries=1000, parallelism=8, seed=6)
        assert set(report.per_type) == {"fast", "slow"}
        ratio = report.per_type["fast"].received / 1000
        assert ratio == pytest.approx(0.7, abs=0.05)
