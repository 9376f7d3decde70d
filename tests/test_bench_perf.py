"""Tests for the perf harness (``repro bench``) and the Figure 6
differential guard.

The differential guard: a seeded simulation in the Figure 6
configuration must produce *bit-identical* accept/reject sequences and
report percentiles with the memoized Bouncer and with the naive oracle
(``tests/bouncer_oracle.py``).
"""

import json

from repro.bench.perf import (BATCH_SIZES, BENCH02_ID, BENCH_ID,
                              SPAN_GATE_SAMPLE_RATE,
                              SPAN_OVERHEAD_TOLERANCE, BenchScale,
                              bench_batch_decisions, bench_decisions,
                              bench_histogram, bench_simulator,
                              check_baseline, check_batch_baseline,
                              render_batch_summary, render_summary,
                              run_batch_bench, run_bench,
                              run_parallel_experiments,
                              write_batch_results, write_results)
from repro.bench.experiments import (make_bouncer, simulation_mix,
                                     simulation_slos)
from repro.cli import main
from repro.core import BouncerConfig
from repro.sim.driver import run_simulation
from tests.bouncer_oracle import OracleBouncer

TINY = BenchScale(decision_iterations=300, histogram_records=2000,
                  percentile_calls=500, simulator_events=500,
                  cancel_events=500, parallel_queries=150,
                  parallel_factors=(1.2,),
                  parallel_policies=("bouncer", "maxql"),
                  parallel_seeds=(11,))


class TestDifferentialGuard:
    def test_fig06_run_bit_identical_fast_vs_naive(self):
        mix = simulation_mix()
        decisions = {}
        percentiles = {}
        slos = simulation_slos()
        for label, factory in (
                ("fast", make_bouncer(slos)),
                ("naive", lambda ctx: OracleBouncer(
                    ctx, BouncerConfig(slos=slos)))):
            seq = []
            report = run_simulation(
                mix, factory, rate_qps=4000.0,
                num_queries=4000, parallelism=100, seed=11,
                on_decision=lambda now, q, r, seq=seq: seq.append(
                    (now, q.qtype, r.accepted, tuple(sorted(
                        r.estimates.items())))))
            decisions[label] = seq
            percentiles[label] = {
                p: report.response_percentile(None, p) for p in (50, 90, 99)}
        assert decisions["fast"] == decisions["naive"]
        assert percentiles["fast"] == percentiles["naive"]
        assert len(decisions["fast"]) > 0


class TestMicrobenchmarks:
    def test_bench_decisions_reports_both_bouncers(self):
        doc = bench_decisions(200)
        rates = doc["decisions_per_sec"]
        assert set(rates) == {"bouncer_fast", "maxql", "maxqwt",
                              "bouncer_fast_telemetry",
                              "bouncer_fast_spans"}
        assert all(rate > 0 for rate in rates.values())
        assert doc["span_gate_sample_rate"] == SPAN_GATE_SAMPLE_RATE
        # Ratios, not rates: can exceed 0 or dip below it with noise, but
        # must always be < 1 (spans can't consume all throughput).
        assert doc["span_overhead_sampled"] < 1.0
        assert doc["span_overhead_full_sampling"] < 1.0

    def test_bench_histogram_rates_positive(self):
        doc = bench_histogram(1000, 200)
        rates = doc["histogram_ops_per_sec"]
        assert set(rates) == {"dual_buffer_record", "snapshot_percentiles",
                              "snapshot_calls"}
        assert all(rate > 0 for rate in rates.values())

    def test_bench_simulator_rates_positive(self):
        doc = bench_simulator(400, 400)
        rates = doc["simulator_events_per_sec"]
        assert all(rate > 0 for rate in rates.values())


class TestParallelRunner:
    def test_sequential_and_parallel_agree(self):
        sequential = run_parallel_experiments(TINY, jobs=1)
        parallel = run_parallel_experiments(TINY, jobs=2)
        strip = lambda doc: [
            {k: v for k, v in row.items()}
            for row in doc["parallel_runner"]["results"]]
        assert strip(sequential) == strip(parallel)

    def test_results_sorted_and_complete(self):
        doc = run_parallel_experiments(TINY, jobs=1)["parallel_runner"]
        assert doc["experiments"] == len(doc["results"]) == 2
        keys = [(r["policy"], r["factor"], r["seed"])
                for r in doc["results"]]
        assert keys == sorted(keys)
        for row in doc["results"]:
            assert row["received"] > 0


class TestBenchDocument:
    def test_run_bench_document_shape(self, tmp_path):
        doc = run_bench(TINY, jobs=1, mode="tiny")
        assert doc["bench_id"] == BENCH_ID
        assert doc["mode"] == "tiny"
        for key in ("decisions_per_sec", "histogram_ops_per_sec",
                    "simulator_events_per_sec", "parallel_runner",
                    "python"):
            assert key in doc
        out = tmp_path / "BENCH_01.json"
        written = write_results(doc, str(out),
                                results_dir=str(tmp_path / "details"))
        assert written[0] == str(out)
        reparsed = json.loads(out.read_text())
        assert reparsed["bench_id"] == BENCH_ID
        assert len(written) == 5  # aggregate + 4 detail files
        summary = render_summary(doc)
        assert "decisions/sec" in summary
        assert "bouncer_fast" in summary


class TestBaselineGate:
    def test_no_regression_passes(self):
        current = {"decisions_per_sec": {"bouncer_fast": 100.0}}
        baseline = {"decisions_per_sec": {"bouncer_fast": 110.0}}
        assert check_baseline(current, baseline, tolerance=0.30) == []

    def test_regression_detected(self):
        current = {"decisions_per_sec": {"bouncer_fast": 60.0}}
        baseline = {"decisions_per_sec": {"bouncer_fast": 100.0}}
        problems = check_baseline(current, baseline, tolerance=0.30)
        assert len(problems) == 1
        assert "bouncer_fast" in problems[0]

    def test_missing_keys_ignored(self):
        current = {"decisions_per_sec": {"bouncer_fast": 100.0}}
        baseline = {"decisions_per_sec": {"bouncer_fast": 100.0,
                                          "other_policy": 500.0}}
        assert check_baseline(current, baseline) == []

    def test_span_overhead_budget_enforced(self):
        baseline = {"decisions_per_sec": {}}
        over = {"decisions_per_sec": {},
                "span_overhead_sampled": SPAN_OVERHEAD_TOLERANCE + 0.05,
                "span_gate_sample_rate": SPAN_GATE_SAMPLE_RATE}
        problems = check_baseline(over, baseline)
        assert len(problems) == 1
        assert "span tracing" in problems[0]
        under = dict(over, span_overhead_sampled=SPAN_OVERHEAD_TOLERANCE / 2)
        assert check_baseline(under, baseline) == []
        # Absent key (older documents): no gate, no crash.
        assert check_baseline({"decisions_per_sec": {}}, baseline) == []


class TestBatchBench:
    def test_bench_batch_decisions_shape(self):
        doc = bench_batch_decisions(300)
        rates = doc["batch_decisions_per_sec"]
        assert set(rates) == {f"batch_{size}" for size in BATCH_SIZES}
        assert all(rate > 0 for rate in rates.values())
        assert doc["scalar_decisions_per_sec"] > 0
        assert doc["batch64_vs_scalar_speedup"] > 0

    def test_run_batch_bench_document(self, tmp_path):
        doc = run_batch_bench(TINY, mode="tiny")
        assert doc["bench_id"] == BENCH02_ID
        assert doc["mode"] == "tiny"
        out = tmp_path / "BENCH_02.json"
        written = write_batch_results(doc, str(out))
        assert written == [str(out)]
        reparsed = json.loads(out.read_text())
        assert reparsed["bench_id"] == BENCH02_ID
        summary = render_batch_summary(doc)
        assert "batch_64" in summary
        assert "batch-64 vs scalar speedup" in summary


class TestBatchBaselineGate:
    def test_no_regression_passes(self):
        current = {"batch_decisions_per_sec": {"batch_64": 100.0}}
        baseline = {"batch_decisions_per_sec": {"batch_64": 110.0}}
        assert check_batch_baseline(current, baseline,
                                    tolerance=0.30) == []

    def test_regression_detected(self):
        current = {"batch_decisions_per_sec": {"batch_64": 60.0}}
        baseline = {"batch_decisions_per_sec": {"batch_64": 100.0}}
        problems = check_batch_baseline(current, baseline, tolerance=0.30)
        assert len(problems) == 1
        assert "batch_64" in problems[0]

    def test_only_gate_keys_compared(self):
        # batch_1 regressions are informational, not gated.
        current = {"batch_decisions_per_sec": {"batch_64": 100.0,
                                               "batch_1": 1.0}}
        baseline = {"batch_decisions_per_sec": {"batch_64": 100.0,
                                                "batch_1": 1000.0}}
        assert check_batch_baseline(current, baseline) == []

    def test_missing_keys_ignored(self):
        assert check_batch_baseline({}, {"batch_decisions_per_sec":
                                         {"batch_64": 100.0}}) == []
        assert check_batch_baseline({"batch_decisions_per_sec":
                                     {"batch_64": 100.0}}, {}) == []


class TestBenchCLI:
    def _tiny_scales(self, monkeypatch):
        from repro.bench import perf
        monkeypatch.setitem(perf.SCALES, "quick", TINY)

    def test_bench_subcommand_writes_json(self, tmp_path, monkeypatch,
                                          capsys):
        self._tiny_scales(monkeypatch)
        out = tmp_path / "BENCH_01.json"
        code = main(["bench", "--quick", "--out", str(out),
                     "--results-dir", str(tmp_path / "details"),
                     "--jobs", "1"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "quick"
        assert "decisions_per_sec" in doc
        assert "wrote" in capsys.readouterr().out

    def test_bench_baseline_gate_fails_on_regression(self, tmp_path,
                                                     monkeypatch, capsys):
        self._tiny_scales(monkeypatch)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"decisions_per_sec": {"bouncer_fast": 1e12}}))
        code = main(["bench", "--quick",
                     "--out", str(tmp_path / "BENCH_01.json"),
                     "--results-dir", str(tmp_path / "details"),
                     "--jobs", "1", "--baseline", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_bench_baseline_gate_passes(self, tmp_path, monkeypatch,
                                        capsys):
        self._tiny_scales(monkeypatch)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"decisions_per_sec": {"bouncer_fast": 1.0}}))
        code = main(["bench", "--quick",
                     "--out", str(tmp_path / "BENCH_01.json"),
                     "--results-dir", str(tmp_path / "details"),
                     "--jobs", "1", "--baseline", str(baseline)])
        assert code == 0
        assert "baseline check passed" in capsys.readouterr().out

    def test_bench_batch_out_writes_bench02(self, tmp_path, monkeypatch,
                                            capsys):
        self._tiny_scales(monkeypatch)
        batch_out = tmp_path / "BENCH_02.json"
        code = main(["bench", "--quick",
                     "--out", str(tmp_path / "BENCH_01.json"),
                     "--results-dir", str(tmp_path / "details"),
                     "--jobs", "1", "--batch-out", str(batch_out)])
        assert code == 0
        doc = json.loads(batch_out.read_text())
        assert doc["bench_id"] == BENCH02_ID
        assert "batch_64" in doc["batch_decisions_per_sec"]
        assert "decide_many" in capsys.readouterr().out

    def test_bench_batch_baseline_gate(self, tmp_path, monkeypatch,
                                       capsys):
        self._tiny_scales(monkeypatch)
        baseline = tmp_path / "batch_baseline.json"
        baseline.write_text(json.dumps(
            {"batch_decisions_per_sec": {"batch_64": 1e12}}))
        args = ["bench", "--quick",
                "--out", str(tmp_path / "BENCH_01.json"),
                "--results-dir", str(tmp_path / "details"),
                "--jobs", "1",
                "--batch-out", str(tmp_path / "BENCH_02.json"),
                "--batch-baseline", str(baseline)]
        assert main(args) == 1
        assert "REGRESSION" in capsys.readouterr().err
        baseline.write_text(json.dumps(
            {"batch_decisions_per_sec": {"batch_64": 1.0}}))
        assert main(args) == 0
        assert "BENCH_02 baseline check passed" in capsys.readouterr().out
