"""Self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 benchmarks/selftest.py

Runs every workload through the harness, untraced and traced, with tiny
loops (``harness.quick``), and checks that:

- ``BENCHMARK.json`` and the metric tables in ``harness.py`` agree;
- every end-to-end and per-layer metric is reported, with its unit, in the
  contract's result line;
- every run passes the correctness gate, and the gate does catch a broken log;
- the layer self times plus the orchestrator's own time add up to the traced
  run time, and the spans file is written.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import copy
import json
import math

import env

env.prepare()

import harness  # noqa: E402 - must follow env.prepare()
from tracer import LAYERS, Tracer  # noqa: E402

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_benchmark_json() -> dict:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    expect(
        {w["name"]: w["why"] for w in spec["workloads"]}
        == {w.name: w.why for w in harness.WORKLOADS.values()},
        "BENCHMARK.json workloads differ from harness.WORKLOADS",
    )
    expect(
        {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
        == harness.END_TO_END,
        "BENCHMARK.json end_to_end differs from harness.END_TO_END",
    )
    expect(
        {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        == harness.PER_LAYER,
        "BENCHMARK.json per_layer differs from harness.PER_LAYER",
    )
    return spec


def check_result(result, spec: dict) -> None:
    name = f"{result.workload} trace={int(result.trace)}"
    expect(result.correct, f"{name}: runs failed: {[r.problems for r in result.runs]}")
    line = json.loads(harness.result_line(result))
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {set(line)}")
    expect(line["attempted"] >= 1 and line["failed"] == 0, f"{name}: counts {line}")
    wanted = spec["per_layer"] if result.trace else spec["end_to_end"]
    expect(
        {m["name"]: m["unit"] for m in wanted}
        == {k: v["unit"] for k, v in line["metrics"].items()},
        f"{name}: metric names or units differ from BENCHMARK.json",
    )
    expect(
        all(math.isfinite(v["value"]) for v in line["metrics"].values()),
        f"{name}: non-finite metric",
    )
    shown = " ".join(harness.summary_lines(result))
    for metric in (*harness.END_TO_END, *harness.OUTCOME):
        expect(result.trace or metric in shown, f"{name}: {metric} not printed")
    if result.trace:
        m = result.metrics
        parts = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        parts += m["orchestrator.self_s"] + m["orchestrator.log_write_s"]
        expect(
            math.isclose(parts, m["trace.run_s"], rel_tol=1e-9),
            f"{name}: layer self times sum to {parts}, traced run_s is {m['trace.run_s']}",
        )


def check_gate() -> None:
    """The correctness gate must reject logs that break each invariant."""
    workload = harness.quick(harness.WORKLOADS["amp2-hybrid"])
    config = workload.config(7)
    lines = harness.run(config).lines
    expect(not harness.check_run(config, lines), "gate rejects a good log")
    broken = copy.deepcopy(lines)
    broken[-1]["best_fom"] += 1.0
    expect(harness.check_run(config, broken), "gate missed a wrong best_fom")
    broken = copy.deepcopy(lines)
    broken[-1]["missed_specs"] += 1
    expect(harness.check_run(config, broken), "gate missed a wrong missed_specs")
    broken = [line for line in lines if line is not lines[1]]
    expect(harness.check_run(config, broken), "gate missed a lost evaluation")
    records = [harness.RunRecord(seed=1, sha256="a"), harness.RunRecord(seed=1, sha256="b")]
    harness._flag_nondeterminism(records)
    expect(bool(records[1].problems), "gate missed a rerun with a different log")


def main() -> int:
    harness.SETUP_PROBES = 1
    spec = check_benchmark_json()
    check_gate()
    for workload in harness.WORKLOADS.values():
        tiny = harness.quick(workload)
        check_result(harness.measure(tiny, 0, 0.0, False), spec)
        tracer = Tracer()
        traced = harness.measure(tiny, 0, 0.0, True, tracer)
        check_result(traced, spec)
        path = harness.write_result(traced, tracer.spans)
        expect(path.with_name(path.stem + "-spans.jsonl").is_file(), "spans file missing")
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
