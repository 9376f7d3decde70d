"""Tests for trace summarization and the ``repro trace-report`` command."""

import pytest

from repro.cli import main
from repro.telemetry import (DecisionTracer, Telemetry, TraceEvent,
                             render_trace_report, summarize_events,
                             summarize_trace)


def make_events():
    """A small hand-built trace: 3 edge decisions (1 rejected), 2 slow."""
    return [
        TraceEvent(event="decision", point=1, ts=0.0, query_id=1,
                   qtype="edge", host="broker-0", accepted=True,
                   slo={"50": 0.018, "90": 0.050}),
        TraceEvent(event="completion", point=3, ts=0.2, query_id=1,
                   qtype="edge", wait_time=0.001, response_time=0.010),
        TraceEvent(event="decision", point=1, ts=0.3, query_id=2,
                   qtype="edge", accepted=False, reason="slo_estimate",
                   slo={"50": 0.018, "90": 0.050}),
        TraceEvent(event="decision", point=1, ts=0.4, query_id=3,
                   qtype="edge", accepted=True,
                   slo={"50": 0.018, "90": 0.050}),
        TraceEvent(event="completion", point=3, ts=0.9, query_id=3,
                   qtype="edge", wait_time=0.002, response_time=0.030),
        TraceEvent(event="decision", point=1, ts=1.0, query_id=4,
                   qtype="slow", accepted=True),
        TraceEvent(event="expired", point=2, ts=1.5, query_id=4,
                   qtype="slow"),
    ]


class TestSummarizeEvents:
    def test_per_type_counts(self):
        summary = summarize_events(make_events())
        edge = summary.per_type["edge"]
        assert edge.received == 3
        assert edge.accepted == 2 and edge.rejected == 1
        assert edge.rejected_by_reason == {"slo_estimate": 1}
        assert edge.completed == 2
        assert edge.rejection_pct == pytest.approx(100.0 / 3)
        slow = summary.per_type["slow"]
        assert slow.accepted == 1 and slow.expired == 1

    def test_slo_and_attainment(self):
        summary = summarize_events(make_events())
        edge = summary.per_type["edge"]
        assert edge.slo == {"50": 0.018, "90": 0.050}
        # Both completions (10ms, 30ms) are under the 50ms p90 target;
        # only one is under the 18ms p50 target.
        assert edge.attainment(90.0, 0.050) == 1.0
        assert edge.attainment(50.0, 0.018) == 0.5
        assert summary.per_type["slow"].attainment(50.0, 0.018) is None

    def test_totals_and_metadata(self):
        summary = summarize_events(make_events())
        assert summary.events == 7
        assert summary.hosts == ["broker-0"]
        assert summary.span == pytest.approx(1.5)
        total = summary.totals()
        assert total.received == 4
        assert total.expired == 1
        assert len(total.response_times) == 2

    def test_empty_trace(self):
        summary = summarize_events([])
        assert summary.events == 0 and summary.span == 0.0
        assert summary.totals().received == 0


class TestRenderTraceReport:
    def test_tables_contain_attribution_and_attainment(self):
        text = render_trace_report(summarize_events(make_events()))
        assert "Rejection attribution" in text
        assert "SLO attainment" in text
        assert "slo_estimate" in text
        assert "hosts: broker-0" in text
        # The p50 target (18ms) is missed: only 50% of completions <= 18ms.
        assert "NO (50%<50%)" not in text  # 50% >= 50% attains p50
        assert "rt_p90 (ms)" in text

    def test_report_on_real_tracer_output(self, tmp_path):
        from repro.core.types import AdmissionResult, Query, RejectReason

        telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
        for i in range(20):
            query = Query(qtype="t")
            query.query_id = i
            if i % 4 == 0:
                telemetry.on_decision(
                    query,
                    AdmissionResult.reject(RejectReason.QUEUE_FULL),
                    now=float(i))
            else:
                telemetry.on_decision(query, AdmissionResult.accept(),
                                      now=float(i))
                query.enqueued_at = float(i)
                query.dequeued_at = i + 0.001
                query.completed_at = i + 0.005
                telemetry.on_completion(query, now=query.completed_at)
        path = tmp_path / "run.jsonl"
        telemetry.tracer.export_jsonl(str(path))
        summary = summarize_trace(str(path))
        assert summary.per_type["t"].rejected == 5
        assert summary.per_type["t"].completed == 15
        assert "queue_full" in render_trace_report(summary)


class TestTraceReportCommand:
    def test_success(self, tmp_path, capsys):
        tracer = DecisionTracer()
        for event in make_events():
            tracer.record(event)
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Rejection attribution" in out
        assert "SLO attainment" in out

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_line_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "decision"\nnot json\n')
        assert main(["trace-report", str(path)]) == 1
        assert "trace-report:" in capsys.readouterr().err

    def test_empty_trace_is_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace-report", str(path)]) == 1
        assert "no trace events" in capsys.readouterr().err
