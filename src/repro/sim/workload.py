"""Workload modelling: query types, mixes, and arrival processes (§5.3).

The paper's simulation study gives each query type "a fixed percentage
among the generated queries (i.e., its proportion in the query mix), and
its processing times follow a lognormal distribution, which approximates
those of real production queries", with Poisson arrivals ("inter-arrival
times ... generated from an exponential distribution to simulate traffic
burstiness").

:class:`QueryTypeSpec` parameterizes a type's lognormal from its published
mean and median — the two statistics Table 1 reports — which pins down
``(mu, sigma)`` uniquely:  ``median = exp(mu)`` and
``mean = exp(mu + sigma^2 / 2)``.  The resulting p90s land within a few
percent of Table 1's, confirming the paper's distributions are lognormal
fits of this form.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..core.types import Query
from ..exceptions import ConfigurationError

#: z-score of the 90th percentile of the standard normal.
_Z90 = 1.2815515655446004

#: CPython's ``random.NV_MAGICCONST`` — the Kinderman-Monahan constant its
#: ``normalvariate`` rejection loop uses.  Recomputed here (same formula)
#: so the chunked generator's inlined loop is bit-identical to the
#: library's.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


class QueryTypeSpec:
    """One query type: its mix share and processing-time distribution.

    All times are seconds.  ``sample`` draws a processing time from the
    type's lognormal using the caller's RNG (so determinism is owned by the
    workload, not the spec).
    """

    __slots__ = ("name", "proportion", "mu", "sigma")

    def __init__(self, name: str, proportion: float, mu: float,
                 sigma: float) -> None:
        if not name:
            raise ConfigurationError("query type name must be non-empty")
        if not 0.0 < proportion <= 1.0:
            raise ConfigurationError(
                f"proportion must be in (0, 1], got {proportion}")
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        self.name = name
        self.proportion = float(proportion)
        self.mu = float(mu)
        self.sigma = float(sigma)

    @classmethod
    def from_mean_median(cls, name: str, proportion: float, mean: float,
                         median: float) -> "QueryTypeSpec":
        """Fit the lognormal from the published mean and median (Table 1)."""
        if median <= 0 or mean <= 0:
            raise ConfigurationError("mean and median must be > 0")
        if mean < median:
            raise ConfigurationError(
                f"a lognormal's mean ({mean}) cannot be below its median "
                f"({median})")
        mu = math.log(median)
        sigma = math.sqrt(2.0 * (math.log(mean) - mu))
        return cls(name, proportion, mu, sigma)

    @property
    def mean(self) -> float:
        """Analytic mean processing time, ``exp(mu + sigma^2/2)``."""
        return math.exp(self.mu + self.sigma ** 2 / 2.0)

    @property
    def median(self) -> float:
        """Analytic median (p50) processing time, ``exp(mu)``."""
        return math.exp(self.mu)

    @property
    def p90(self) -> float:
        """Analytic 90th-percentile processing time."""
        return math.exp(self.mu + _Z90 * self.sigma)

    def percentile(self, p: float) -> float:
        """Analytic percentile of the lognormal (p in (0, 100))."""
        from statistics import NormalDist
        z = NormalDist().inv_cdf(p / 100.0)
        return math.exp(self.mu + z * self.sigma)

    def sample(self, rng: random.Random) -> float:
        """Draw one processing time."""
        if self.sigma == 0.0:
            return math.exp(self.mu)
        return rng.lognormvariate(self.mu, self.sigma)

    def __repr__(self) -> str:
        return (f"QueryTypeSpec({self.name!r}, {self.proportion:.0%}, "
                f"mean={self.mean * 1000:.2f}ms, "
                f"p50={self.median * 1000:.2f}ms)")


class WorkloadMix:
    """A set of query types with proportions summing to 1.

    Provides the derived quantities the paper's experiment design uses:
    the weighted mean processing time and the full-load traffic rate
    ``QPS_full_load = P / pt_wmean``.
    """

    def __init__(self, types: Sequence[QueryTypeSpec]) -> None:
        if not types:
            raise ConfigurationError("a workload mix needs >= 1 query type")
        names = [spec.name for spec in types]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate query type names: {names}")
        total = sum(spec.proportion for spec in types)
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"type proportions must sum to 1, got {total}")
        self.types: Tuple[QueryTypeSpec, ...] = tuple(types)
        self._by_name: Dict[str, QueryTypeSpec] = {
            spec.name: spec for spec in types}
        # Cumulative proportions for O(log k) type sampling.
        self._cumulative: List[float] = []
        running = 0.0
        for spec in types:
            running += spec.proportion
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0  # guard against float drift

    def __iter__(self) -> Iterator[QueryTypeSpec]:
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)

    def spec(self, name: str) -> QueryTypeSpec:
        """The spec for one query type (KeyError if absent)."""
        return self._by_name[name]

    @property
    def type_names(self) -> Tuple[str, ...]:
        """Query type names in mix order."""
        return tuple(spec.name for spec in self.types)

    @property
    def weighted_mean_pt(self) -> float:
        """``pt_wmean``: mix-weighted mean processing time (seconds)."""
        return sum(spec.proportion * spec.mean for spec in self.types)

    def full_load_qps(self, parallelism: int) -> float:
        """``QPS_full_load = P / pt_wmean`` (§5.3)."""
        if parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        return parallelism / self.weighted_mean_pt

    def sample_type(self, rng: random.Random) -> QueryTypeSpec:
        """Draw a query type according to the mix proportions."""
        idx = bisect_right(self._cumulative, rng.random())
        return self.types[min(idx, len(self.types) - 1)]


class ArrivalSchedule:
    """Open-loop Poisson arrival generator over a workload mix.

    Yields queries with pre-sampled service demands (stored on
    ``Query.payload``), so a policy's decisions cannot perturb the workload
    — every policy in a comparison sees the *identical* arrival sequence
    when given the same seed, mirroring "we subject the policies to the
    same incoming traffic" (§5.3).  Each query draws, in order, its
    inter-arrival gap, its type, and its service demand from one RNG.
    """

    def __init__(self, mix: WorkloadMix, rate_qps: float,
                 seed: Optional[int] = None, start: float = 0.0) -> None:
        if not (math.isfinite(rate_qps) and rate_qps > 0):
            raise ConfigurationError(
                f"rate must be finite and > 0, got {rate_qps}")
        self.mix = mix
        self.rate_qps = float(rate_qps)
        self.seed = seed
        self.start = float(start)

    def __iter__(self) -> Iterator[Query]:
        rng = random.Random(self.seed)
        now = self.start
        while True:
            now += rng.expovariate(self.rate_qps)
            spec = self.mix.sample_type(rng)
            yield Query(qtype=spec.name, arrival_time=now,
                        payload=spec.sample(rng))

    def iter_chunks(self, chunk_size: int = 1024) -> Iterator[List[Query]]:
        """Yield the query stream in pre-generated chunks.

        Bit-identical to :meth:`__iter__`: the per-query RNG draw order
        (inter-arrival gap, type pick, lognormal demand with its
        variable-length rejection loop) is preserved exactly — only the
        *uniform source* underneath is block-buffered, with the library
        calls (``expovariate``, ``sample_type``, ``lognormvariate``)
        inlined on top of it.  The generator consumes the same
        ``rng.random()`` stream in the same order, so seeded traces match
        the per-query path byte for byte (``tests/test_event_engine.py``).
        """
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        rng = random.Random(self.seed)
        mix = self.mix
        cumulative = mix._cumulative
        types = mix.types
        last_type = len(types) - 1
        names = [spec.name for spec in types]
        mus = [spec.mu for spec in types]
        sigmas = [spec.sigma for spec in types]
        # Zero-variance types draw no demand uniform at all.
        fixed = [math.exp(spec.mu) if spec.sigma == 0.0 else None
                 for spec in types]
        rate = self.rate_qps
        block = max(4096, chunk_size * 2)

        def draw_block(_random: Callable[[], float] = rng.random
                       ) -> List[float]:
            return [_random() for _ in range(block)]

        log = math.log
        exp = math.exp
        bisect = bisect_right
        nv = _NV_MAGICCONST
        now = self.start
        buf = draw_block()
        pos = 0
        while True:
            chunk: List[Query] = []
            append = chunk.append
            for _ in range(chunk_size):
                if pos == block:
                    buf = draw_block()
                    pos = 0
                # rng.expovariate(rate), inlined.
                now += -log(1.0 - buf[pos]) / rate
                pos += 1
                if pos == block:
                    buf = draw_block()
                    pos = 0
                # mix.sample_type(rng), inlined.
                idx = bisect(cumulative, buf[pos])
                pos += 1
                if idx > last_type:
                    idx = last_type
                demand = fixed[idx]
                if demand is None:
                    # rng.lognormvariate(mu, sigma), inlined: exp of the
                    # Kinderman-Monahan normalvariate rejection loop, in
                    # CPython's exact float-op order.
                    mu = mus[idx]
                    sigma = sigmas[idx]
                    while True:
                        if pos == block:
                            buf = draw_block()
                            pos = 0
                        u1 = buf[pos]
                        pos += 1
                        if pos == block:
                            buf = draw_block()
                            pos = 0
                        u2 = 1.0 - buf[pos]
                        pos += 1
                        z = nv * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -log(u2):
                            break
                    demand = exp(mu + z * sigma)
                append(Query(qtype=names[idx], arrival_time=now,
                             payload=demand))
            yield chunk


def service_time_of(query: Query) -> float:
    """Service demand pre-sampled by an :class:`ArrivalSchedule`."""
    demand = query.payload
    if not isinstance(demand, (int, float)):
        raise ConfigurationError(
            f"query {query.query_id} carries no sampled service time")
    return float(demand)
