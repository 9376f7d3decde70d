"""Bouncer benchmark: one command, four workloads, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig06_overload --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload again with span hooks around every layer
boundary and reports the per-layer metrics, writing the spans (JSONL) and
a "what took the time" table under ``.bench_run/trace/``.  Either way the
run checks the program's outputs, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict

if __package__ in (None, ""):
    # Run as a script: make the benchmark package importable.
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench.common import (BenchError, Outcome, src_dir,  # noqa: E402
                              stop_helper_processes)

#: End-to-end metric units (every untraced run reports all of them).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_qps": "1/s",
    "slo_attain": "share",
    "cpu_us_per_query": "us",
}


def _workloads() -> Dict[str, Callable[[int, float, bool], Outcome]]:
    from perfbench import gateway_drift, served, sims

    def sim(make: Callable[[], "sims.SimWorkload"]
            ) -> Callable[[int, float, bool], Outcome]:
        def run(seed: int, seconds: float, trace: bool) -> Outcome:
            workload = make()
            if trace:
                return sims.traced(workload, seed)
            return sims.measure(workload, seed)
        return run

    return {
        "fig06_overload": sim(sims.fig06_workload),
        "cluster_fanout": sim(sims.cluster_workload),
        "served_graph": served.run,
        "gateway_drift": gateway_drift.run,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        sys.path.insert(0, src_dir())
        workloads = _workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(sorted(workloads))}")
        outcome = workloads[args.workload](args.seed, args.seconds,
                                           bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_helper_processes()
    from perfbench.layers import PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"metrics not produced: {missing}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                      "unit": unit} for name, unit in units.items()}
    for name in units:
        print(f"{name} = {metrics[name]['value']:.6g} {units[name]}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed),
                      "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
