"""Closed-loop benchmark of analogopt's sizing loop.

One process runs one workload: a fixed list of seeded runs, one at a time,
each followed by ``RunLog.write`` and ``report([log], curves=True)``. The run
seeds derive from the workload seed, and every run uses the seeded
``mock = random`` LLM, so a run is bitwise reproducible: its log hash repeats
exactly, and so do the outcome metrics. Only the timings vary.

Untraced mode repeats the seed list while the time budget allows and reports
the end-to-end metrics. Traced mode runs the first half of the seed list
twice, plain and then with every layer call recorded as a span (see
``tracer.py``), and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import analogopt
from analogopt.acquisition import AcquisitionConfig
from analogopt.config import RunConfig
from analogopt.fom import FOM_PRESETS, count_missed_specs
from analogopt.llm import estimate_tokens
from analogopt.orchestrator import report, run
from analogopt.surrogate import GpFitConfig

from env import RESULTS, ROOT, SOURCE, THREAD_VARS
from tracer import (
    ROOT_REPORT,
    ROOT_RUN,
    ROOT_WRITE,
    Tracer,
    instrument,
    median_or_zero,
    span_metrics,
    write_spans,
)

if not Path(analogopt.__file__).resolve().is_relative_to(SOURCE):
    raise ImportError(f"analogopt imported from {analogopt.__file__}, not from {SOURCE}")

BRANIN_OPTIMUM = -0.397887
SETUP_PROBES = 5
REPORT_REPEATS = 5  # untraced report() calls per run log
# Per-iteration query split (llm, gp) and initialization of each method.
METHOD_QUERIES = {"ado_llm": (1, 4), "gp_bo": (0, 5), "llm_only": (1, 0)}
METHOD_INIT = {"ado_llm": "llm_zero_shot", "gp_bo": "uniform_random",
               "llm_only": "llm_zero_shot"}
# Acquisition shared by both GP workloads: the default [acquisition] section
# scaled down (4096 -> 512 MC draws, 512 -> 128 raw candidates, 10 -> 2
# L-BFGS restarts, 8 -> 2 GP restarts) so that each run is short enough for
# one process to time many seeds.
GP_ACQUISITION = AcquisitionConfig(
    mc_samples=512, raw_candidates=128, restarts=2, maxiter=50
)
GP_FIT = GpFitConfig(restarts=2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    preset: str
    n_iter: int
    runs: int  # distinct run seeds per pass
    n_init: int = 5
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    gp_fit: GpFitConfig = field(default_factory=GpFitConfig)
    target_fom: float | None = None  # None: the target is every spec met

    def config(self, seed: int) -> RunConfig:
        return RunConfig(**self.probe_fields(), seed=seed,
                         acquisition=self.acquisition, gp_fit=self.gp_fit)

    def probe_fields(self) -> dict:
        """The scalar RunConfig fields, as the set-up probe rebuilds them."""
        llm_q, gp_q = METHOD_QUERIES[self.method]
        return {
            "method": self.method,
            "preset": self.preset,
            "n_init": self.n_init,
            "n_iter": self.n_iter,
            "llm_queries_per_step": llm_q,
            "gp_queries_per_step": gp_q,
            "init_strategy": METHOD_INIT[self.method],
            "mock": "random",
        }

    def run_seeds(self, seed: int) -> list[int]:
        rng = random.Random(f"{self.name}/{seed}")
        return [rng.randrange(2**31) for _ in range(self.runs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="amp2-hybrid",
            why="ado_llm on amp2 (d=14): 5 zero-shot + (1 LLM + 4 qEI) x 10; "
                "acquisition and GP fitting dominate, d-dependent work is largest",
            method="ado_llm", preset="amp2", n_iter=10, runs=10,
            acquisition=GP_ACQUISITION, gp_fit=GP_FIT,
        ),
        Workload(
            name="branin-gpbo",
            why="gp_bo on branin (d=2): same GP/qEI stack at small d, "
                "quality checked against the known optimum",
            method="gp_bo", preset="branin", n_iter=10, runs=20,
            acquisition=GP_ACQUISITION, gp_fit=GP_FIT,
            target_fom=BRANIN_OPTIMUM - 1e-3,
        ),
        Workload(
            name="agent-long",
            why="llm_only on amp2, top-5 demos, thousands of iterations: bypasses "
                "the GP stack; stresses top_k, prompts, evaluation and the log layer",
            method="llm_only", preset="amp2", n_iter=4000, runs=1,
        ),
    )
}

# name -> (unit, better); end-to-end entries also carry their bound.
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "report_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "best_fom": ("FOM", "higher", 0.15),
}
# Printed with the end-to-end metrics but not bounded: they are 0 on most
# runs or spread too widely across seeds for a bound of at most 25%.
OUTCOME = {
    "outcome.missed_specs": ("count", "lower"),
    "outcome.evals_to_target": ("evals", "lower"),
    "outcome.failed_runs": ("ratio", "lower"),
}
PER_LAYER = {
    "acquisition.propose_batch.calls": ("count", "lower"),
    "acquisition.propose_batch.busy_s": ("s", "lower"),
    "acquisition.propose_batch.p50_s": ("s", "lower"),
    "acquisition.propose_batch.s_per_slot": ("s", "lower"),
    "acquisition.qei_mc.busy_s": ("s", "lower"),
    "acquisition.qei_value.median": ("FOM", "higher"),
    "acquisition.self_s": ("s", "lower"),
    "surrogate.gp_fit.calls": ("count", "lower"),
    "surrogate.gp_fit.busy_s": ("s", "lower"),
    "surrogate.gp_fit.first_s": ("s", "lower"),
    "surrogate.gp_fit.last_s": ("s", "lower"),
    "surrogate.gp_fit.jitter_ratio": ("ratio", "lower"),
    "surrogate.self_s": ("s", "lower"),
    "llm.propose.calls": ("count", "lower"),
    "llm.propose.busy_s": ("s", "lower"),
    "llm.propose.p50_s": ("s", "lower"),
    "llm.accept_ratio": ("ratio", "higher"),
    "llm.prompt_tokens.median": ("tokens", "lower"),
    "llm.substituted": ("count", "lower"),
    "llm.self_s": ("s", "lower"),
    "sampler.top_k.calls": ("count", "lower"),
    "sampler.top_k.busy_s": ("s", "lower"),
    "sampler.top_k.last_s": ("s", "lower"),
    "sampler.self_s": ("s", "lower"),
    "evaluator.calls": ("count", "lower"),
    "evaluator.busy_s": ("s", "lower"),
    "evaluator.us_per_call": ("us", "lower"),
    "evaluator.ok_ratio": ("ratio", "higher"),
    "evaluator.self_s": ("s", "lower"),
    "fom.replay.calls": ("count", "lower"),
    "fom.replay_s": ("s", "lower"),
    "fom.self_s": ("s", "lower"),
    "config.self_s": ("s", "lower"),
    "orchestrator.self_s": ("s", "lower"),
    "orchestrator.log_write_s": ("s", "lower"),
    "orchestrator.iter_propose_s.p50": ("s", "lower"),
    "orchestrator.report_parse_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.config_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **OUTCOME,
}


@dataclass
class RunRecord:
    seed: int
    run_s: float = float("nan")
    report_s: list[float] = field(default_factory=list)  # one per report() call
    sha256: str = ""
    best_fom: float = float("nan")
    missed_specs: int = -1
    evals_to_target: int = -1
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # log-derived per-layer inputs


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


PROBE = """
import json, sys, time
start = time.perf_counter()
import analogopt
from analogopt.config import RunConfig, build_model, build_task_card
imported = time.perf_counter()
config = RunConfig(**json.loads(sys.argv[1]))
build_task_card(config, build_model(config))
ready = time.perf_counter()
print(json.dumps({"import_s": imported - start, "config_s": ready - imported}))
"""


def setup_probe(workload: Workload) -> dict:
    """Cold process to ready: a fresh interpreter imports and builds the task."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(workload.probe_fields())],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    wall = time.perf_counter() - start
    return {"setup_s": wall, **json.loads(done.stdout.strip().splitlines()[-1])}


def evals_to_target(workload: Workload, evals: list[dict]) -> int:
    """1-based index of the first evaluation that hits the target; budget+1 if none."""
    fom_config = FOM_PRESETS[workload.preset]
    for position, entry in enumerate(evals, 1):
        if workload.target_fom is not None:
            if entry["fom"] >= workload.target_fom:
                return position
        elif count_missed_specs(entry["metrics"], fom_config) == 0:
            return position
    return len(evals) + 1


def check_run(config: RunConfig, lines: list[dict]) -> list[str]:
    """The correctness gate on one run log; returns what failed."""
    evals = [line for line in lines if line.get("type") == "eval"]
    summary = lines[-1]
    problems = []
    if summary.get("type") != "summary":
        return ["last log line is not the summary"]
    if len(evals) != config.total_evaluations or summary["n_evals"] != len(evals):
        problems.append(
            f"{len(evals)} evals logged, summary says {summary['n_evals']}, "
            f"expected {config.total_evaluations}"
        )
    best = max(entry["fom"] for entry in evals)
    if summary["best_fom"] != best:
        problems.append(f"summary best_fom {summary['best_fom']!r} != max eval FOM {best!r}")
    missed = count_missed_specs(summary["best_metrics"], FOM_PRESETS[config.preset])
    if summary["missed_specs"] != missed:
        problems.append(f"summary missed_specs {summary['missed_specs']} != {missed}")
    return problems


def log_facts(lines: list[dict]) -> dict:
    """Per-run inputs of the log-derived per-layer metrics."""
    completions = accepted = substituted = 0
    prompt_tokens: list[int] = []
    qei_values: list[float] = []
    for line in lines:
        kind = line.get("type")
        if kind == "init":
            substituted += line["n_substituted"]
            completions += sum(m["role"] == "assistant" for m in line.get("transcript", ()))
        elif kind == "iteration":
            if "acquisition_value" in line:
                qei_values.append(line["acquisition_value"])
            substituted += line.get("llm_substituted", 0)
            for transcript in line.get("llm_transcripts", ()):
                roles = [m["role"] for m in transcript]
                completions += roles.count("assistant")
                first_reply = roles.index("assistant") if "assistant" in roles else len(roles)
                prompt_tokens.append(
                    sum(estimate_tokens(m["content"]) for m in transcript[:first_reply])
                )
        elif kind == "eval" and line["source"] in ("llm", "llm_init"):
            accepted += 1
    return {
        "completions": completions,
        "accepted": accepted,
        "substituted": substituted,
        "prompt_tokens": prompt_tokens,
        "qei_values": qei_values,
    }


def one_run(workload: Workload, seed: int, tracer: Tracer | None = None) -> RunRecord:
    record = RunRecord(seed=seed)
    config = workload.config(seed)
    path = RESULTS / "logs" / f"{workload.name}-{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    if tracer is not None:
        tracer.run_id = str(seed)
    try:
        # Each timed call starts from a collected heap, as in a fresh CLI process,
        # not in the middle of the previous call's garbage.
        gc.collect()
        start = time.perf_counter()
        with span(ROOT_RUN):
            log = run(config)
        with span(ROOT_WRITE):
            log.write(str(path))
        record.run_s = time.perf_counter() - start
        record.sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
        record.problems = check_run(config, log.lines)
        summary = log.lines[-1]
        record.best_fom = summary["best_fom"]
        record.missed_specs = summary["missed_specs"]
        record.evals_to_target = evals_to_target(
            workload, [line for line in log.lines if line.get("type") == "eval"]
        )
        record.facts = log_facts(log.lines)
        del log, summary
        for _ in range(1 if tracer is not None else REPORT_REPEATS):
            gc.collect()
            start = time.perf_counter()
            with span(ROOT_REPORT):
                report([str(path)], curves=True)
            record.report_s.append(time.perf_counter() - start)
    except Exception:  # noqa: BLE001 - any failure of the program is a failed run
        record.problems.append(traceback.format_exc(limit=3).strip())
    finally:
        path.unlink(missing_ok=True)
    return record


def _flag_nondeterminism(records: list[RunRecord]) -> None:
    """A rerun of a seed must write the same log bytes as its first run."""
    reference: dict[int, str] = {}
    for record in records:
        if record.sha256 and reference.setdefault(record.seed, record.sha256) != record.sha256:
            record.problems.append("log hash differs from an earlier run of this seed")


def outcome_metrics(records: list[RunRecord]) -> dict[str, float]:
    return {
        "outcome.missed_specs": median_or_zero(r.missed_specs for r in records),
        "outcome.evals_to_target": median_or_zero(r.evals_to_target for r in records),
        "outcome.failed_runs": sum(bool(r.problems) for r in records) / len(records),
    }


def fact_metrics(records: list[RunRecord]) -> dict[str, float]:
    facts = [r.facts for r in records if r.facts]
    completions = sum(f["completions"] for f in facts)
    return {
        "acquisition.qei_value.median": median_or_zero(
            v for f in facts for v in f["qei_values"]
        ),
        "llm.accept_ratio": (
            sum(f["accepted"] for f in facts) / completions if completions else 0.0
        ),
        "llm.prompt_tokens.median": median_or_zero(
            t for f in facts for t in f["prompt_tokens"]
        ),
        "llm.substituted": median_or_zero(f["substituted"] for f in facts),
    }


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: bool
    environment: dict
    metrics: dict[str, float]  # the table's metrics plus the outcome metrics
    runs: list[RunRecord]
    setup: list[dict]

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(bool(r.problems) for r in self.runs)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tracer: Tracer | None = None) -> Result:
    """Run one workload invocation; ``tracer`` records the traced runs."""
    seeds = workload.run_seeds(seed)
    setup = [setup_probe(workload) for _ in range(SETUP_PROBES)]
    # Untimed: lets lazy imports and first-call costs settle before timing.
    one_run(quick(workload), seeds[0])
    if not trace:
        deadline = time.perf_counter() + seconds
        records: list[RunRecord] = []
        while True:
            started = time.perf_counter()
            records.extend(one_run(workload, s) for s in seeds)
            if time.perf_counter() + (time.perf_counter() - started) > deadline:
                break
        _flag_nondeterminism(records)
        first_pass = records[: len(seeds)]
        # Means, not medians: CPU speed on a shared host flips between a fast and
        # a slow state for seconds at a time, and a median jumps with whichever
        # state held most of the invocation, while the mean moves in proportion.
        metrics = {
            "run_s": statistics.fmean(r.run_s for r in records),
            "report_s": statistics.fmean(t for r in records for t in r.report_s),
            "setup_s": median_or_zero(p["setup_s"] for p in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "best_fom": median_or_zero(r.best_fom for r in first_pass),
            **outcome_metrics(records),
        }
        return Result(workload.name, seed, seconds, trace, environment(), metrics,
                      records, setup)

    # Each seed runs plain, then traced: the pairs give the tracing overhead.
    tracer = tracer or Tracer()
    plain, traced = [], []
    for s in seeds[: max(1, len(seeds) // 2)]:
        plain.append(one_run(workload, s))
        with instrument(tracer):
            traced.append(one_run(workload, s, tracer))
    records = plain + traced
    _flag_nondeterminism(records)
    metrics = span_metrics(tracer.spans)
    metrics.update(fact_metrics(plain))
    metrics.update(outcome_metrics(records))
    metrics["setup.import_s"] = median_or_zero(p["import_s"] for p in setup)
    metrics["setup.config_s"] = median_or_zero(p["config_s"] for p in setup)
    metrics["trace.overhead_s"] = (
        metrics["trace.run_s"] - statistics.fmean(r.run_s for r in plain)
    )
    return Result(workload.name, seed, seconds, trace, environment(), metrics,
                  records, setup)


def golden_matches(result: Result) -> tuple[int, int]:
    """(matching, known) log hashes against the committed baseline."""
    path = Path(__file__).with_name("baseline.json")
    if not path.is_file():
        return 0, 0
    golden = json.loads(path.read_text()).get("hashes", {}).get(result.workload, {})
    known = [r for r in result.runs if str(r.seed) in golden]
    return sum(golden[str(r.seed)] == r.sha256 for r in known), len(known)


def write_result(result: Result, spans=None) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}"
    if spans is not None:
        write_spans(spans, RESULTS / f"{stem}-spans.jsonl")
    path = RESULTS / f"{stem}.json"
    payload = asdict(result)
    payload.update(correct=result.correct, attempted=result.attempted, failed=result.failed)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def result_line(result: Result) -> str:
    """The last stdout line: the contract's JSON object."""
    table = PER_LAYER if result.trace else END_TO_END
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": spec[0]}
            for name, spec in table.items()
        },
    })


def summary_lines(result: Result) -> list[str]:
    env = result.environment
    lines = [
        f"# workload {result.workload}  seed {result.seed}  "
        f"seconds {result.seconds:g}  trace {int(result.trace)}",
        f"# nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
        f"scipy {env['scipy']}  blas {env['blas']}  "
        f"threads {','.join(f'{k}={v}' for k, v in env['threads'].items())}",
    ]
    for r in result.runs:
        status = "ok" if not r.problems else "FAILED: " + " | ".join(r.problems)
        lines.append(
            f"run seed {r.seed:>10}  run_s {r.run_s:9.4f}  "
            f"report_s {statistics.fmean(r.report_s or [math.nan]):8.4f}  "
            f"best_fom {r.best_fom:9.5f}  missed {r.missed_specs}  "
            f"evals_to_target {r.evals_to_target:>5}  sha256 {r.sha256[:16]}  {status}"
        )
    matching, known = golden_matches(result)
    if known:
        lines.append(f"golden log hashes: {matching}/{known} match benchmarks/baseline.json")
    units = {**{k: v[0] for k, v in END_TO_END.items()},
             **{k: v[0] for k, v in PER_LAYER.items()}}
    for name, value in result.metrics.items():
        lines.append(f"{name:40s} {value:14.6g} {units[name]}")
    return lines


def quick(workload: Workload) -> Workload:
    """A tiny variant of a workload: the untimed warm-up run and the self-test."""
    return replace(
        workload,
        n_iter=min(workload.n_iter, 2),
        runs=2,
        acquisition=AcquisitionConfig(mc_samples=32, raw_candidates=8, restarts=1, maxiter=3),
        gp_fit=GpFitConfig(restarts=1, maxiter=5),
    )
