"""The benchmark's contract with the orchestrator.

``benchmarks/tracer.py`` times each layer by swapping the functions the
orchestrator imported into its own namespace. A refactor that renames,
inlines or stops calling one of them through that global would leave the
benchmark silently reporting zeros; these tests catch it.
``benchmarks/harness.py`` checks and counts the in-memory ``RunLog.lines`` of
each run inside its per-run ``try``, so a change in their shape would show
there only as failed benchmark runs; a test here reads them the same way.
Both modules are loaded from their files and used read-only. The last test
runs ``benchmarks/selftest.py``, which writes only under the git-ignored
``benchmarks/results/``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from analogopt import orchestrator
from analogopt.acquisition import AcquisitionConfig
from analogopt.config import RunConfig
from analogopt.surrogate import GpFitConfig

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACER_PATH = BENCHMARKS / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def harness():
    # harness.py imports its neighbours ``env`` and ``tracer`` by name
    saved_path = list(sys.path)
    added = [name for name in ("env", "tracer") if name not in sys.modules]
    sys.path.insert(0, str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "benchmark_harness", BENCHMARKS / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in [spec.name, *added]:
            sys.modules.pop(name, None)


def test_every_probe_is_an_orchestrator_attribute(tracer):
    missing = [attr for attr in tracer.PROBES if not hasattr(orchestrator, attr)]
    assert missing == []


def test_traced_hybrid_run_records_every_layer_span(tracer):
    config = RunConfig(
        method="ado_llm", preset="branin", n_init=3, n_iter=1, seed=0,
        mock="random",
        acquisition=AcquisitionConfig(
            mc_samples=16, restarts=1, raw_candidates=8, maxiter=2
        ),
        gp_fit=GpFitConfig(restarts=1, maxiter=5),
    )
    with tracer.instrument(tracer.Tracer()) as recorder:
        orchestrator.run(config)
    names = {span.name for span in recorder.spans}
    expected = {
        tracer.PROBES[attr]
        for attr in (
            "build_model", "build_task_card", "propose_init", "propose", "top_k",
            "gp_fit", "propose_batch", "qei_mc", "evaluate", "count_missed_specs",
        )
    }
    assert expected <= names
    # instrument() restores the original functions on exit
    assert not any(
        hasattr(getattr(orchestrator, attr), "__wrapped__") for attr in tracer.PROBES
    )


def test_traced_report_replays_every_eval_line(tracer, tmp_path):
    # the tracer counts fom.replay.calls as compute_fom spans under a report
    config = RunConfig(
        method="llm_only", preset="amp2", n_init=3, n_iter=4, seed=0,
        mock="random", llm_queries_per_step=1, gp_queries_per_step=0,
    )
    path = tmp_path / "run.jsonl"
    orchestrator.run(config).write(str(path))
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    n_evals = sum(line["type"] == "eval" for line in lines)
    assert n_evals == config.total_evaluations
    recorder = tracer.Tracer()
    with tracer.instrument(recorder), recorder.span(tracer.ROOT_REPORT):
        orchestrator.report([str(path)], curves=True)
    replays = [s for s in recorder.spans if s.name == "fom.compute_fom"]
    assert len(replays) == n_evals
    metrics = tracer.span_metrics(recorder.spans)
    assert metrics["fom.replay.calls"] == n_evals
    assert metrics["orchestrator.report_parse_s"] > 0.0


def test_harness_checks_and_counts_the_in_memory_log_lines(harness):
    config = RunConfig(
        method="ado_llm", preset="branin", n_init=3, n_iter=2, seed=0,
        mock="random",
        acquisition=AcquisitionConfig(
            mc_samples=16, restarts=1, raw_candidates=8, maxiter=2
        ),
        gp_fit=GpFitConfig(restarts=1, maxiter=5),
    )
    lines = orchestrator.run(config).lines
    assert harness.check_run(config, lines) == []
    facts = harness.log_facts(lines)
    init = next(line for line in lines if line["type"] == "init")
    transcripts = [t for line in lines for t in line.get("llm_transcripts", ())]
    assert len(transcripts) == config.n_iter
    assert facts["completions"] == sum(
        m["role"] == "assistant" for t in [init["transcript"], *transcripts] for m in t
    )
    assert len(facts["prompt_tokens"]) == len(transcripts)
    assert all(tokens > 0 for tokens in facts["prompt_tokens"])


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(BENCHMARKS / "selftest.py")],
        cwd=BENCHMARKS.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"
