"""The optional-numpy gate: everything must work with numpy absent
(``repro.core._compat`` sets ``numpy = None`` on ImportError or when
``REPRO_NO_NUMPY`` is set — CI runs a leg with that env var).

Percentiles never use numpy: the list form ``percentiles()`` must stay
bit-identical to per-target ``percentile()`` calls, for few and many
targets alike.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.core.histogram import LatencyHistogram

MANY_TARGETS = (1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0)
FEW_TARGETS = (50.0, 90.0)


def _random_snapshot(seed, count=500):
    rng = random.Random(seed)
    hist = LatencyHistogram()
    for _ in range(count):
        hist.record(rng.lognormvariate(-5.0, 1.0))
    return hist.snapshot()


class TestPercentileIdentity:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_vectorized_equals_bisect(self, seed):
        snap = _random_snapshot(seed)
        assert snap.percentiles(MANY_TARGETS) == [
            snap.percentile(p) for p in MANY_TARGETS]  # exact equality

    def test_boundary_targets_identical(self):
        # Percentile targets landing exactly on cumulative-count
        # boundaries are where bisect_left tie-breaking matters; pin them.
        hist = LatencyHistogram()
        for value in (0.001, 0.001, 0.01, 0.01, 0.1, 0.1, 0.1, 1.0):
            hist.record(value)
        snap = hist.snapshot()
        targets = (12.5, 25.0, 50.0, 62.5, 87.5, 100.0)
        assert snap.percentiles(targets) == [
            snap.percentile(p) for p in targets]

    def test_few_targets_use_bisect_path(self):
        snap = _random_snapshot(11)
        assert snap.percentiles(FEW_TARGETS) == [
            snap.percentile(p) for p in FEW_TARGETS]


class TestNumpyAbsent:
    def test_env_gate_disables_numpy(self):
        # REPRO_NO_NUMPY forces the pure-python path even when numpy is
        # installed — the CI fallback leg runs the whole battery this way.
        env = dict(os.environ, REPRO_NO_NUMPY="1")
        code = subprocess.run(
            [sys.executable, "-c",
             "from repro.core._compat import have_numpy, numpy\n"
             "assert numpy is None and not have_numpy()"],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        ).returncode
        assert code == 0

    def test_bouncer_decisions_identical_without_numpy(self):
        # Decision identity end to end: a warmed Bouncer decides in a
        # process with numpy disabled and in one with it available; every
        # decision and estimate must match exactly.
        script = (
            "import random\n"
            "from repro.bench.perf import _warmed_bouncer\n"
            "from repro.core.types import Query\n"
            "policy = _warmed_bouncer()\n"
            "rng = random.Random(41)\n"
            "types = ('fast', 'medium_fast', 'medium_slow', 'slow')\n"
            "for _ in range(60):\n"
            "    r = policy.decide(Query(qtype=rng.choice(types)))\n"
            "    print(r.accepted, sorted(r.estimates.items()))\n")
        root = os.path.dirname(os.path.dirname(__file__))
        outputs = []
        for no_numpy in ("1", ""):
            env = dict(os.environ, REPRO_NO_NUMPY=no_numpy,
                       PYTHONPATH=os.path.join(root, "src"))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=root,
                capture_output=True, text=True, check=True).stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 60
