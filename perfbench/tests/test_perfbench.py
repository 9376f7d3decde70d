"""The benchmark's own tests: a tiny smoke run, and proof the checks fire.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, List, Optional

import pytest

from perfbench import gateway_drift, run, sims
from perfbench.common import Outcome
from perfbench.layers import PER_LAYER

TINY = sims.SimShape(sims=1, queries=1_500, warmup=500)


def tiny(make: Any) -> Any:
    def build() -> sims.SimWorkload:
        return dataclasses.replace(make(), shape=TINY, profile=TINY)
    return build


@pytest.fixture
def tiny_sims(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(sims, "fig06_workload", tiny(sims.fig06_workload))
    monkeypatch.setattr(sims, "cluster_workload",
                        tiny(sims.cluster_workload))


def run_main(capsys: pytest.CaptureFixture, workload: str, trace: int,
             seconds: float = 1.0) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                     str(seconds), "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, result
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(unit)
                   for line in lines), name
    return result


@pytest.mark.parametrize("workload", ["fig06_overload", "cluster_fanout",
                                      "served_graph", "gateway_drift"])
def test_smoke_prints_every_end_to_end_metric(
        tiny_sims: None, capsys: pytest.CaptureFixture,
        workload: str) -> None:
    result = run_main(capsys, workload, trace=0)
    for name in ("setup_s", "throughput_qps", "cpu_us_per_query",
                 "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0, name


def child_pids() -> List[int]:
    """Live children of this process (every thread's), from ``/proc``."""
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children", "r",
                  encoding="ascii") as handle:
            pids.extend(int(pid) for pid in handle.read().split())
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_gateway_run_leaves_no_process_behind(
        capsys: pytest.CaptureFixture, trace: int) -> None:
    before = set(child_pids())
    run_main(capsys, "gateway_drift", trace=trace)
    assert set(child_pids()) - before == set()


@pytest.mark.parametrize("workload", ["fig06_overload", "cluster_fanout",
                                      "served_graph", "gateway_drift"])
def test_smoke_traced_prints_every_per_layer_metric(
        tiny_sims: None, capsys: pytest.CaptureFixture,
        workload: str) -> None:
    result = run_main(capsys, workload, trace=1)
    metrics = result["metrics"]
    assert metrics["core.bouncer.decide_calls"]["value"] > 0
    # Self times plus the remainder add up to the traced wall time.
    assert metrics["trace.wall_s"]["value"] > 0
    assert metrics["trace.unattributed_s"]["value"] >= 0


class DroppingPolicy:
    """Wraps a policy and silently drops the decision on one query."""

    def __init__(self, inner: Any, drop_at: int) -> None:
        self._inner = inner
        self._drop_at = drop_at
        self._seen = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def decide_many(self, queries: List[Any],
                    on_decision: Optional[Any] = None) -> List[Any]:
        def forward(query: Any, result: Any) -> None:
            self._seen += 1
            if self._seen != self._drop_at and on_decision is not None:
                on_decision(query, result)
        return self._inner.decide_many(queries, on_decision=forward)


def test_accounting_check_fires_on_a_dropped_decision(
        monkeypatch: pytest.MonkeyPatch) -> None:
    import repro

    real = repro.BouncerPolicy

    def dropping(ctx: Any, config: Any) -> Any:
        return DroppingPolicy(real(ctx, config), drop_at=800)

    monkeypatch.setattr(repro, "BouncerPolicy", dropping)
    workload = sims.fig06_workload()
    out = Outcome()
    sims.run_shape(out, workload.build(), TINY, workload.rate, 5, "fig06")
    assert any("overall.received" in problem for problem in out.problems)


def test_accounting_check_passes_without_the_drop() -> None:
    workload = sims.fig06_workload()
    out = Outcome()
    sims.run_shape(out, workload.build(), TINY, workload.rate, 5, "fig06")
    assert out.problems == []


def gateway_outcome(monkeypatch: pytest.MonkeyPatch, tamper: bool
                    ) -> Outcome:
    from repro.gateway import GatewayServer

    real_stop = GatewayServer.stop

    def stop_then_tamper(self: Any, timeout: float = 10.0) -> None:
        real_stop(self, timeout)
        if not tamper:
            return
        path = self.decision_log_paths[0]
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        index = next(i for i, line in enumerate(lines)
                     if line.startswith("d "))
        qtype, bit = lines[index][2:].split()
        lines[index] = f"d {qtype} {'0' if bit == '1' else '1'}\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

    monkeypatch.setattr(GatewayServer, "stop", stop_then_tamper)
    plan = gateway_drift.bursts(7, 0.3)
    pubs = [gateway_drift.publication(index, 7) for index in range(1, 3)]
    out = Outcome()
    with gateway_drift.Fleet(7, "test") as fleet:
        window = gateway_drift.drive(fleet, plan, pubs)
        gateway_drift.finish(out, fleet, plan, window)
    return out


def test_replay_check_fires_on_a_tampered_log_line(
        monkeypatch: pytest.MonkeyPatch) -> None:
    out = gateway_outcome(monkeypatch, tamper=True)
    assert any("differ on replay" in problem for problem in out.problems)


def test_replay_check_passes_on_untouched_logs(
        monkeypatch: pytest.MonkeyPatch) -> None:
    assert gateway_outcome(monkeypatch, tamper=False).problems == []
