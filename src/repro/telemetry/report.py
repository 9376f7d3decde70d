"""Summarize an exported decision trace into the paper's evaluation tables.

The paper's §5 analysis is built on two views of a run: *where rejections
came from* (per type and reason — the shape of Figures 11/12) and *whether
the completed queries met their SLO targets* (per-type percentile response
times against the configured objectives).  :func:`summarize_trace` derives
both from a JSONL trace exported by :class:`~repro.telemetry.tracer
.DecisionTracer`, and :func:`render_trace_report` prints them as aligned
tables (the ``repro trace-report`` subcommand).

SLO targets are taken from the decision events themselves (Bouncer records
the targets it compared against), so the report needs no side-channel
configuration: the trace file is self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .._stats import mean, percentile
from .tracer import TraceEvent, load_jsonl


@dataclass
class TypeTraceSummary:
    """Per-query-type aggregates derived from one trace."""

    qtype: str
    accepted: int = 0
    rejected: int = 0
    expired: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    response_times: List[float] = field(default_factory=list)
    wait_times: List[float] = field(default_factory=list)
    #: Latest SLO targets observed in decision events: {"50": 0.018, ...}.
    slo: Dict[str, float] = field(default_factory=dict)

    @property
    def received(self) -> int:
        return self.accepted + self.rejected

    @property
    def completed(self) -> int:
        return len(self.response_times)

    @property
    def rejection_pct(self) -> float:
        received = self.received
        return 100.0 * self.rejected / received if received else 0.0

    def response_percentile(self, p: float) -> float:
        return percentile(sorted(self.response_times), p)

    def attainment(self, p: float, target: float) -> Optional[float]:
        """Fraction of completions at or under ``target`` (None if none).

        An SLO "pXX <= T" is attained when this fraction is >= XX/100.
        """
        if not self.response_times:
            return None
        under = sum(1 for rt in self.response_times if rt <= target)
        return under / len(self.response_times)


@dataclass
class TraceSummary:
    """Everything ``repro trace-report`` prints, in structured form."""

    per_type: Dict[str, TypeTraceSummary]
    events: int
    hosts: List[str]
    span: float  # seconds between first and last event timestamp

    def totals(self) -> TypeTraceSummary:
        total = TypeTraceSummary(qtype="ALL")
        for summary in self.per_type.values():
            total.accepted += summary.accepted
            total.rejected += summary.rejected
            total.expired += summary.expired
            for reason, count in summary.rejected_by_reason.items():
                total.rejected_by_reason[reason] = (
                    total.rejected_by_reason.get(reason, 0) + count)
            total.response_times.extend(summary.response_times)
            total.wait_times.extend(summary.wait_times)
        return total


def summarize_events(events: Sequence[TraceEvent]) -> TraceSummary:
    """Aggregate raw trace events into a :class:`TraceSummary`."""
    per_type: Dict[str, TypeTraceSummary] = {}
    hosts: List[str] = []
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None

    def entry(qtype: str) -> TypeTraceSummary:
        summary = per_type.get(qtype)
        if summary is None:
            summary = TypeTraceSummary(qtype=qtype)
            per_type[qtype] = summary
        return summary

    for event in events:
        if event.host and event.host not in hosts:
            hosts.append(event.host)
        if first_ts is None or event.ts < first_ts:
            first_ts = event.ts
        if last_ts is None or event.ts > last_ts:
            last_ts = event.ts
        summary = entry(event.qtype)
        if event.event == "decision":
            if event.accepted:
                summary.accepted += 1
            else:
                summary.rejected += 1
                reason = event.reason or "unknown"
                summary.rejected_by_reason[reason] = (
                    summary.rejected_by_reason.get(reason, 0) + 1)
            if event.slo:
                summary.slo = dict(event.slo)
        elif event.event == "completion":
            if event.response_time is not None:
                summary.response_times.append(event.response_time)
            if event.wait_time is not None:
                summary.wait_times.append(event.wait_time)
        elif event.event == "expired":
            summary.expired += 1
    span = ((last_ts - first_ts)
            if first_ts is not None and last_ts is not None else 0.0)
    return TraceSummary(per_type=per_type, events=len(events),
                        hosts=hosts, span=span)


def summarize_trace(path: str) -> TraceSummary:
    """Load a JSONL trace file and aggregate it."""
    return summarize_events(load_jsonl(path))


def _slo_percentiles(summary: TraceSummary) -> List[str]:
    """All percentile keys ("50", "90", …) any type's SLO constrains."""
    seen: List[str] = []
    for type_summary in summary.per_type.values():
        for key in type_summary.slo:
            if key not in seen:
                seen.append(key)
    return sorted(seen, key=float)


def render_trace_report(summary: TraceSummary) -> str:
    """Render the rejection-attribution and SLO-attainment tables."""
    # Deferred to avoid a telemetry <-> bench import cycle: the bench
    # package imports the simulators, which are telemetry-instrumented.
    from ..bench.tables import format_table

    sections: List[str] = []
    ordered = sorted(summary.per_type)
    reasons = sorted({reason
                      for s in summary.per_type.values()
                      for reason in s.rejected_by_reason})

    header = (f"trace: {summary.events} events, "
              f"{len(summary.per_type)} query types, "
              f"span {summary.span:.1f}s")
    if summary.hosts:
        header += f", hosts: {', '.join(summary.hosts)}"
    sections.append(header)

    # -- rejection attribution (the Fig. 11/12 shape) ---------------------
    rows = []
    for qtype in ordered + ["ALL"]:
        s = (summary.per_type[qtype] if qtype != "ALL"
             else summary.totals())
        row = [s.qtype, s.received, s.accepted, s.rejected,
               f"{s.rejection_pct:.2f}%", s.expired]
        for reason in reasons:
            row.append(s.rejected_by_reason.get(reason, 0))
        rows.append(row)
    sections.append(format_table(
        ["type", "received", "accepted", "rejected", "rej%", "expired"]
        + reasons,
        rows, title="Rejection attribution (traced decisions)"))

    # -- SLO attainment ---------------------------------------------------
    slo_ps = _slo_percentiles(summary)
    headers = ["type", "completed", "rt_mean (ms)"]
    for p in slo_ps:
        headers += [f"rt_p{p} (ms)", f"slo_p{p} (ms)", f"p{p} ok"]
    rows = []
    for qtype in ordered:
        s = summary.per_type[qtype]
        row: List[object] = [
            s.qtype, s.completed,
            f"{mean(s.response_times) * 1000:.2f}" if s.completed
            else "-"]
        for p in slo_ps:
            target = s.slo.get(p)
            measured = (s.response_percentile(float(p))
                        if s.completed else None)
            row.append(f"{measured * 1000:.2f}"
                       if measured is not None else "-")
            row.append(f"{target * 1000:.2f}"
                       if target is not None else "-")
            if target is None or not s.completed:
                row.append("-")
            else:
                attained = s.attainment(float(p), target)
                required = float(p) / 100.0
                ok = attained is not None and attained >= required
                row.append("yes" if ok else
                           f"NO ({attained:.0%}<{required:.0%})")
        rows.append(row)
    sections.append(format_table(
        headers, rows,
        title="SLO attainment (measured response times of traced "
              "completions vs targets recorded at decision time)"))

    return "\n\n".join(sections)
