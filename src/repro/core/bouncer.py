"""The Bouncer admission control policy (paper §3, Algorithm 1).

For every arriving query ``Q`` of type ``t``, Bouncer computes:

* an estimate of the mean queue wait time the query will experience::

      ewt_mean = sum(count(type) * pt_mean(type) for type in queue) / P    (Eq. 2)

  where ``count(type)`` is the number of queries of that type currently in
  the FIFO queue, ``pt_mean(type)`` is the mean processing time from the
  type's histogram, and ``P`` is the number of query engine processes; and

* percentile response-time estimates for each percentile ``p`` the type's
  SLO constrains::

      ert_p(Q) = ewt_mean + pt_p(t)                                (Eqs. 3-4)

and rejects ``Q`` iff any estimate exceeds its SLO target (Algorithm 1).
The paper uses p50 and p90; this implementation supports any percentile set
carried by the SLO (p99 etc. — listed by the authors as a straightforward
extension) and an alternative ``all`` decision mode for ablations.

Processing-time distributions are maintained per type in dual-buffer
histograms (§3 footnote 4) plus one *general* histogram over all types.
Cold starts are handled per Appendix A: while a type's histogram holds too
few samples, estimates are made from the general histogram against the
default (catch-all) SLO, and during traffic lulls stale per-type snapshots
are retained rather than replaced by empty ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..exceptions import ConfigurationError
from .context import HostContext
from .dual_buffer import DualBufferHistogram, SlidingWindowHistogram
from .histogram import BucketLayout, HistogramSnapshot
from .policy import AdmissionPolicy
from .slo import LatencySLO, SLORegistry
from .types import AdmissionResult, Query, RejectReason

#: Either histogram backend satisfies the same record/estimate surface.
HistogramBackend = Union[DualBufferHistogram, SlidingWindowHistogram]

#: Reject when ANY percentile estimate exceeds its target (Algorithm 1).
DECISION_ANY = "any"
#: Reject only when ALL percentile estimates exceed their targets
#: (a laxer variant evaluated in the ablation benches).
DECISION_ALL = "all"

#: Histogram maintenance via atomically swapped non-overlapping windows
#: (the paper's production design, §3 footnote 4).
HISTOGRAMS_DUAL_BUFFER = "dual-buffer"
#: Histogram maintenance over a sliding window of overlapping slices (the
#: alternative the paper lists as future work, §7).
HISTOGRAMS_SLIDING_WINDOW = "sliding-window"


@dataclass
class BouncerConfig:
    """Tunables for :class:`BouncerPolicy`.

    Parameters
    ----------
    slos:
        Per-query-type latency SLOs with a catch-all default (§3).
    histogram_interval:
        Dual-buffer swap period in seconds (the paper's LIquid deployment
        publishes every second).
    min_samples:
        A type's snapshot must hold at least this many observations to be
        trusted; below it the policy falls back to the general histogram and
        default SLO (Appendix A warm-up behaviour).
    retain_min_samples:
        Passed through to the dual buffers: an interval with fewer samples
        keeps the previous (stale) snapshot instead of publishing
        (Appendix A traffic-lull behaviour).
    bootstrap_samples:
        Publish a histogram's very first snapshot as soon as it has this
        many samples instead of waiting out a full interval, shortening the
        cold-start window (0 disables).
    decision_mode:
        :data:`DECISION_ANY` (the paper's Algorithm 1) or
        :data:`DECISION_ALL`.
    histogram_mode:
        :data:`HISTOGRAMS_DUAL_BUFFER` (the paper's design) or
        :data:`HISTOGRAMS_SLIDING_WINDOW` (its future-work alternative:
        observations age out slice by slice instead of all at once).
    histogram_window:
        Sliding-window span in seconds (sliding-window mode only); slices
        are ``histogram_interval`` long.
    layout:
        Optional shared histogram bucket layout.
    """

    slos: SLORegistry
    histogram_interval: float = 1.0
    min_samples: int = 20
    retain_min_samples: int = 10
    bootstrap_samples: int = 100
    decision_mode: str = DECISION_ANY
    histogram_mode: str = HISTOGRAMS_DUAL_BUFFER
    histogram_window: float = 5.0
    layout: Optional[BucketLayout] = None

    def __post_init__(self) -> None:
        if self.decision_mode not in (DECISION_ANY, DECISION_ALL):
            raise ConfigurationError(
                f"decision_mode must be {DECISION_ANY!r} or {DECISION_ALL!r},"
                f" got {self.decision_mode!r}")
        if self.histogram_mode not in (HISTOGRAMS_DUAL_BUFFER,
                                       HISTOGRAMS_SLIDING_WINDOW):
            raise ConfigurationError(
                f"histogram_mode must be {HISTOGRAMS_DUAL_BUFFER!r} or "
                f"{HISTOGRAMS_SLIDING_WINDOW!r}, got "
                f"{self.histogram_mode!r}")
        if self.histogram_window < self.histogram_interval:
            raise ConfigurationError(
                "histogram_window must be >= histogram_interval")
        if self.min_samples < 0:
            raise ConfigurationError("min_samples must be >= 0")
        if self.histogram_interval <= 0:
            raise ConfigurationError("histogram_interval must be > 0")


class BouncerEstimate:
    """The evidence behind one Bouncer decision (exposed for observability).

    ``cold_start`` flags that the general histogram and default SLO were
    used because the type's own histogram was insufficiently populated.
    One instance is allocated per :meth:`BouncerPolicy.estimate` call,
    hence ``__slots__``.
    """

    __slots__ = ("qtype", "wait_mean", "response", "slo", "cold_start")

    def __init__(self, qtype: str, wait_mean: float,
                 response: Optional[Dict[float, float]] = None,
                 slo: Optional[LatencySLO] = None,
                 cold_start: bool = False) -> None:
        self.qtype = qtype
        self.wait_mean = wait_mean
        self.response: Dict[float, float] = (
            response if response is not None else {})
        self.slo = slo
        self.cold_start = cold_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BouncerEstimate(qtype={self.qtype!r}, "
                f"wait_mean={self.wait_mean!r}, response={self.response!r}, "
                f"cold_start={self.cold_start!r})")


class _Entry:
    """One query type's memoized decision inputs.

    ``snap`` is the snapshot the decision reads (the type's own, or the
    general one while the type is cold) and ``mean`` its Eq. 2 term.  The
    entry stays valid while ``now < valid_until`` — the earliest
    ``next_publish_due()`` of the histograms read, before which a touch
    cannot publish — unless a completion drops it first.  ``values`` are
    ``snap``'s percentiles for ``slo``; ``wait``/``accept``/``response``
    memoize the last verdict against the Eq. 2 wait it was computed from.
    """

    __slots__ = ("snap", "mean", "cold", "valid_until", "slo", "values",
                 "wait", "accept", "response")

    def __init__(self, snap: HistogramSnapshot, cold: bool,
                 valid_until: float) -> None:
        self.snap = snap
        self.mean = snap.mean()
        self.cold = cold
        self.valid_until = valid_until
        self.slo: Optional[LatencySLO] = None
        self.values: Optional[List[float]] = None
        self.wait: Optional[float] = None
        self.accept = False
        self.response: Dict[float, float] = {}


class BouncerPolicy(AdmissionPolicy):
    """SLO-driven admission control (the paper's primary contribution).

    Every read goes through one per-type memo (:class:`_Entry`) whose rule
    is "reuse only what a snapshot touch could not have changed", so
    decisions equal a from-scratch evaluation of Eqs. 2-4 and Algorithm 1
    on every call (docs/performance.md, "Decision memo").
    """

    name = "bouncer"

    def __init__(self, ctx: HostContext, config: BouncerConfig) -> None:
        super().__init__()
        self._ctx = ctx
        self._config = config
        self._slos = config.slos
        self._hists: Dict[str, HistogramBackend] = {}
        self._general = self._new_histogram()
        self._mode_any = config.decision_mode == DECISION_ANY
        # Unified cold-start threshold: a snapshot is trusted only with at
        # least max(min_samples, 1) observations, so an empty snapshot is
        # never trusted even with min_samples=0.
        self._min_trusted = max(config.min_samples, 1)
        # Memo state, guarded by _lock.  Lock order: _lock before any
        # histogram lock, and never taken while holding the queue-view lock.
        self._lock = threading.Lock()
        self._memo: Dict[str, _Entry] = {}
        # Memoized Eq. 2 sum: valid for one queue version, before the
        # earliest valid_until of the entries it used; dropping any entry
        # resets _wait_until.
        self._wait = 0.0
        self._wait_version = -1
        self._wait_until = -math.inf

    # -- construction helpers -------------------------------------------
    def _new_histogram(self) -> HistogramBackend:
        if self._config.histogram_mode == HISTOGRAMS_SLIDING_WINDOW:
            return SlidingWindowHistogram(
                self._ctx.clock,
                window=self._config.histogram_window,
                step=self._config.histogram_interval,
                layout=self._config.layout)
        return DualBufferHistogram(
            self._ctx.clock,
            interval=self._config.histogram_interval,
            min_samples=self._config.retain_min_samples,
            bootstrap_samples=self._config.bootstrap_samples,
            layout=self._config.layout)

    def _histogram_for(self, qtype: str) -> HistogramBackend:
        hist = self._hists.get(qtype)
        if hist is None:
            hist = self._new_histogram()
            self._hists[qtype] = hist
        return hist

    # -- observability ----------------------------------------------------
    @property
    def config(self) -> BouncerConfig:
        return self._config

    @property
    def slos(self) -> SLORegistry:
        return self._slos

    def processing_snapshot(self, qtype: str) -> HistogramSnapshot:
        """Published processing-time snapshot for a type (tests/metrics)."""
        return self._histogram_for(qtype).snapshot()

    def general_snapshot(self) -> HistogramSnapshot:
        """Published snapshot of the general (all-types) histogram."""
        return self._general.snapshot()

    # -- state transfer (Appendix A's pre-populated-histogram deployment) --
    def export_state(self) -> dict:
        """Serialize the published histograms to a JSON-friendly dict.

        Appendix A discusses "deploying the system along with
        pre-populated histograms containing query processing times from
        previous installations"; this is the capture side.  Only the
        published (read-side) snapshots are exported — the in-flight write
        buffers are transient by design.
        """
        state = {"general": self._general.snapshot().to_dict(),
                 "types": {}}
        for qtype, hist in self._hists.items():
            snapshot = hist.snapshot()
            if not snapshot.is_empty:
                state["types"][qtype] = snapshot.to_dict()
        return state

    def import_state(self, state: dict) -> None:
        """Preload histograms exported from a previous installation.

        Requires dual-buffer histogram mode (the paper's design); the
        preloaded snapshots serve estimates until live data replaces them,
        skipping the cold-start window entirely.
        """
        if self._config.histogram_mode != HISTOGRAMS_DUAL_BUFFER:
            raise ConfigurationError(
                "state import requires dual-buffer histograms")
        general = state.get("general")
        if general is not None:
            snapshot = HistogramSnapshot.from_dict(general)
            if not snapshot.is_empty:
                self._general.preload(snapshot)
        for qtype, payload in state.get("types", {}).items():
            snapshot = HistogramSnapshot.from_dict(payload)
            if not snapshot.is_empty:
                self._histogram_for(qtype).preload(snapshot)
        self.invalidate_estimates()

    def preload_snapshots(self, types: Mapping[str, HistogramSnapshot],
                          general: Optional[HistogramSnapshot] = None,
                          adopt_epochs: bool = False) -> None:
        """Install externally published snapshots (gateway snapshot feed).

        The sharded gateway publishes histogram snapshots across processes
        (see :mod:`repro.gateway.snapshot`); each consumer applies the
        changed ones here.  With ``adopt_epochs`` the publisher's epochs
        are carried into the local dual buffers (epoch handoff), so every
        process applying the same publication sequence stamps its views
        identically.  Requires dual-buffer mode, like :meth:`import_state`.
        """
        if self._config.histogram_mode != HISTOGRAMS_DUAL_BUFFER:
            raise ConfigurationError(
                "snapshot preload requires dual-buffer histograms")
        if general is not None and not general.is_empty:
            self._general.preload(general, adopt_epoch=adopt_epochs)
        for qtype, snapshot in types.items():
            if not snapshot.is_empty:
                self._histogram_for(qtype).preload(
                    snapshot, adopt_epoch=adopt_epochs)
        self.invalidate_estimates()

    def invalidate_estimates(self) -> None:
        """Drop the decision memo.

        Call after mutating a policy-owned histogram out of band (e.g.
        ``force_swap`` in a test); :meth:`import_state` and
        :meth:`preload_snapshots` call it themselves.
        """
        with self._lock:
            self._memo.clear()
            self._wait_until = -math.inf

    # -- the decision memo ------------------------------------------------
    def _entry_locked(self, qtype: str, now: float) -> _Entry:
        """The type's entry, re-read from its histograms once stale.

        This is the Appendix A cold-start fallback: below the trust
        threshold the entry reads the general histogram instead.
        """
        entry = self._memo.get(qtype)
        if entry is not None and now < entry.valid_until:
            return entry
        hist = self._histogram_for(qtype)
        # The due instant is read before the touch: a publish the touch
        # makes only moves it later, so the bound errs early, never late.
        valid_until = hist.next_publish_due()
        snap = hist.snapshot()
        cold = snap.count < self._min_trusted
        if cold:
            valid_until = min(valid_until, self._general.next_publish_due())
            snap = self._general.snapshot()
        if entry is not None and entry.snap is snap and entry.cold == cold:
            # Same published view (e.g. a retained stale snapshot): keep
            # the derived statistics, extend the validity.
            entry.valid_until = valid_until
        else:
            entry = _Entry(snap, cold, valid_until)
            self._memo[qtype] = entry
        return entry

    def _wait_locked(self, now: float) -> float:
        """Eq. 2 over the queue's per-type counts, in insertion order."""
        queue = self._ctx.queue
        version = queue.version
        if now < self._wait_until and version == self._wait_version:
            return self._wait
        total = 0.0
        until = math.inf
        for qtype, count in queue.occupancy().items():
            entry = self._entry_locked(qtype, now)
            total += count * entry.mean
            if entry.valid_until < until:
                until = entry.valid_until
        wait = total / self._ctx.parallelism
        self._wait = wait
        self._wait_version = version
        self._wait_until = until
        return wait

    def _inputs_locked(self, qtype: str
                       ) -> Tuple[float, _Entry, LatencySLO]:
        """The Eq. 2 wait, the arriving type's entry, and its SLO.

        The SLO is looked up on every call (the registry may change it);
        the entry's percentile values and verdict follow the SLO object.
        """
        now = self._ctx.clock.now()
        wait = self._wait_locked(now)
        entry = self._entry_locked(qtype, now)
        slo = self._slos.default if entry.cold else self._slos.for_type(qtype)
        if slo is not entry.slo:
            entry.slo = slo
            entry.values = (None if entry.snap.is_empty
                            else entry.snap.percentiles(slo.percentiles))
            entry.wait = None
        return wait, entry, slo

    @staticmethod
    def _response(slo: LatencySLO, values: Optional[List[float]],
                  wait: float) -> Dict[float, float]:
        """Eqs. 3-4: ``wait + pt_p`` per percentile the SLO constrains.

        With nothing measured anywhere yet the estimates are just the
        queue wait, which errs toward acceptance (deliberate leniency).
        """
        if values is None:
            return {p: wait for p in slo.percentiles}
        # ``slo.percentiles`` is ascending, matching ``values``.
        return {p: wait + value for p, value in zip(slo.percentiles, values)}

    # -- estimation (Eqs. 2-4) -------------------------------------------
    def estimate_wait_mean(self) -> float:
        """Eq. 2: expected mean queue wait for a newly accepted query."""
        with self._lock:
            return self._wait_locked(self._ctx.clock.now())

    def estimate(self, qtype: str) -> BouncerEstimate:
        """Full percentile response-time estimate for an incoming type.

        Applies the Appendix A cold-start fallback: with a cold per-type
        histogram, percentiles come from the general histogram and the SLO
        compared against is the catch-all default.
        """
        with self._lock:
            wait, entry, slo = self._inputs_locked(qtype)
            return BouncerEstimate(qtype, wait,
                                   self._response(slo, entry.values, wait),
                                   slo, entry.cold)

    # -- the decision (Algorithm 1) ----------------------------------------
    def _decide(self, query: Query) -> AdmissionResult:
        """Reject iff an estimate exceeds its SLO target (any, or all).

        The verdict is reused while the entry's SLO, percentile values and
        the Eq. 2 wait are bit-equal to the ones it was computed from;
        every result still carries a fresh estimates dict.
        """
        with self._lock:
            wait, entry, slo = self._inputs_locked(query.qtype)
            if entry.wait != wait:
                response = self._response(slo, entry.values, wait)
                over = [response[p] > target for p, target in slo.items()]
                entry.accept = not (any(over) if self._mode_any
                                    else all(over))
                entry.response = response
                entry.wait = wait
            accept = entry.accept
            response = dict(entry.response)
        if accept:
            return AdmissionResult.accept(estimates=response)
        return AdmissionResult.reject(RejectReason.SLO_ESTIMATE,
                                      estimates=response)

    # -- framework hooks ----------------------------------------------------
    def on_completed(self, query: Query, wait_time: float,
                     processing_time: float) -> None:
        """Point 3: record the processing time in the type's histogram.

        Every completion also feeds the general histogram, which backs the
        cold-start fallback (Appendix A).  A record can change a published
        view without time passing only through a pending bootstrap publish
        or a sliding window; those drop the entries that read the view (the
        type's own, and every cold one for the general view).
        """
        hist = self._histogram_for(query.qtype)
        hist.record(processing_time)
        general = self._general
        general.record(processing_time)
        own_changed = (hist.records_visible_immediately
                       or hist.bootstrap_pending)
        general_changed = (general.records_visible_immediately
                           or general.bootstrap_pending)
        if own_changed or general_changed:
            with self._lock:
                memo = self._memo
                if own_changed:
                    memo.pop(query.qtype, None)
                if general_changed:
                    for qtype in [qtype for qtype, entry in memo.items()
                                  if entry.cold]:
                        del memo[qtype]
                self._wait_until = -math.inf
