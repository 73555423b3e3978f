"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 benchmarks/run.py --workload amp2-hybrid --seed 0 --seconds 25 --trace 0

Workloads are defined in ``harness.py`` and listed in ``BENCHMARK.json``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines (environment, one line per run
with its log hash, every metric with its unit) come first; the last stdout
line is the JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Results, and the spans of a traced run, are also written under
``benchmarks/results/``. The exit code is 1 when any run fails its
correctness check.
"""

from __future__ import annotations

import argparse

import env

env.prepare()

import harness  # noqa: E402 - must follow env.prepare()
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    result = harness.measure(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), tracer
    )
    harness.write_result(result, tracer.spans if tracer else None)
    for line in harness.summary_lines(result):
        print(line)
    print(harness.result_line(result), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
