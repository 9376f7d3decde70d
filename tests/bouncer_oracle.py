"""The reference Bouncer: Eqs. 2-4 and Algorithm 1 recomputed from scratch.

:class:`OracleBouncer` keeps no memo at all.  Every decision walks the
queue's per-type counts (Eq. 2), touches every histogram it reads, and
compares fresh percentile estimates against the SLO (Eqs. 3-4,
Algorithm 1), with the Appendix A cold-start fallback.  The tests hold
:class:`repro.core.bouncer.BouncerPolicy` bit-identical to it: same
verdicts, same estimates, same histogram-creation and touch instants.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from repro.core.bouncer import (DECISION_ANY, HISTOGRAMS_SLIDING_WINDOW,
                                BouncerConfig, BouncerEstimate)
from repro.core.context import HostContext
from repro.core.dual_buffer import DualBufferHistogram, SlidingWindowHistogram
from repro.core.histogram import HistogramSnapshot
from repro.core.policy import AdmissionPolicy
from repro.core.types import AdmissionResult, Query, RejectReason

Backend = Union[DualBufferHistogram, SlidingWindowHistogram]


class OracleBouncer(AdmissionPolicy):
    """Naive Bouncer: the specification the production policy must match."""

    name = "bouncer-oracle"

    def __init__(self, ctx: HostContext, config: BouncerConfig) -> None:
        super().__init__()
        self._ctx = ctx
        self._config = config
        self._hists: Dict[str, Backend] = {}
        self._general = self._new_histogram()
        self._min_trusted = max(config.min_samples, 1)

    def _new_histogram(self) -> Backend:
        config = self._config
        if config.histogram_mode == HISTOGRAMS_SLIDING_WINDOW:
            return SlidingWindowHistogram(
                self._ctx.clock, window=config.histogram_window,
                step=config.histogram_interval, layout=config.layout)
        return DualBufferHistogram(
            self._ctx.clock, interval=config.histogram_interval,
            min_samples=config.retain_min_samples,
            bootstrap_samples=config.bootstrap_samples,
            layout=config.layout)

    def _histogram_for(self, qtype: str) -> Backend:
        hist = self._hists.get(qtype)
        if hist is None:
            hist = self._new_histogram()
            self._hists[qtype] = hist
        return hist

    # -- the surface BouncerPolicy exposes --------------------------------
    @property
    def config(self) -> BouncerConfig:
        return self._config

    def processing_snapshot(self, qtype: str) -> HistogramSnapshot:
        return self._histogram_for(qtype).snapshot()

    def general_snapshot(self) -> HistogramSnapshot:
        return self._general.snapshot()

    def preload_snapshots(self, types: Mapping[str, HistogramSnapshot],
                          general: Optional[HistogramSnapshot] = None,
                          adopt_epochs: bool = False) -> None:
        if general is not None and not general.is_empty:
            self._general.preload(general, adopt_epoch=adopt_epochs)
        for qtype, snapshot in types.items():
            if not snapshot.is_empty:
                self._histogram_for(qtype).preload(
                    snapshot, adopt_epoch=adopt_epochs)

    def import_state(self, state: dict) -> None:
        general = state.get("general")
        self.preload_snapshots(
            {qtype: HistogramSnapshot.from_dict(payload)
             for qtype, payload in state.get("types", {}).items()},
            None if general is None else HistogramSnapshot.from_dict(general))

    def invalidate_estimates(self) -> None:
        """Nothing is cached, so there is nothing to drop."""

    # -- Eqs. 2-4 ----------------------------------------------------------
    def estimate_wait_mean(self) -> float:
        """Eq. 2, walking the queue's counts in insertion order."""
        occupancy = self._ctx.queue.occupancy()
        if not occupancy:
            return 0.0
        general_mean: Optional[float] = None
        total = 0.0
        for qtype, count in occupancy.items():
            snap = self._histogram_for(qtype).snapshot()
            if snap.count >= self._min_trusted:
                mean = snap.mean()
            else:
                if general_mean is None:
                    general_mean = self._general.snapshot().mean()
                mean = general_mean
            total += count * mean
        return total / self._ctx.parallelism

    def estimate(self, qtype: str) -> BouncerEstimate:
        """Eqs. 3-4 with the Appendix A cold-start fallback."""
        wait = self.estimate_wait_mean()
        own = self._histogram_for(qtype).snapshot()
        cold = own.count < self._min_trusted
        slos = self._config.slos
        if cold:
            snap = self._general.snapshot()
            slo = slos.default
        else:
            snap = own
            slo = slos.for_type(qtype)
        estimate = BouncerEstimate(qtype, wait, slo=slo, cold_start=cold)
        if snap.is_empty:
            for p in slo.percentiles:
                estimate.response[p] = wait
        else:
            for p, value in zip(slo.percentiles,
                                snap.percentiles(slo.percentiles)):
                estimate.response[p] = wait + value
        return estimate

    # -- Algorithm 1 -------------------------------------------------------
    def _decide(self, query: Query) -> AdmissionResult:
        estimate = self.estimate(query.qtype)
        assert estimate.slo is not None
        over = [estimate.response.get(p, 0.0) > target
                for p, target in estimate.slo.items()]
        if self._config.decision_mode == DECISION_ANY:
            reject = any(over)
        else:
            reject = all(over)
        if reject:
            return AdmissionResult.reject(RejectReason.SLO_ESTIMATE,
                                          estimates=estimate.response)
        return AdmissionResult.accept(estimates=estimate.response)

    def on_completed(self, query: Query, wait_time: float,
                     processing_time: float) -> None:
        self._histogram_for(query.qtype).record(processing_time)
        self._general.record(processing_time)
