import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analogopt import orchestrator
from analogopt.acquisition import AcquisitionConfig, propose_batch, trust_region
from analogopt.cli import main
from analogopt.config import RunConfig, build_model, load_run_config
from analogopt.core import ConfigError, Region, Source
from analogopt.evaluator import circuit_model, classify_regions, evaluate
from analogopt.fom import FOM_PRESETS, compute_fom, count_missed_specs, failed_metrics
from analogopt.orchestrator import ReportError, report, run
from analogopt.surrogate import GpFitConfig, gp_fit

from conftest import RETRY_SCRIPT, _amp2_reply, expand, expanded_text

FAST_ACQ = AcquisitionConfig(
    mc_samples=128, restarts=2, raw_candidates=64, maxiter=10
)
FAST_FIT = GpFitConfig(restarts=2, maxiter=40)


def fast_config(**kwargs):
    defaults = dict(
        method="ado_llm",
        preset="branin",
        n_init=5,
        n_iter=3,
        llm_queries_per_step=1,
        gp_queries_per_step=4,
        init_strategy="llm_zero_shot",
        mock="random",
        seed=0,
        acquisition=FAST_ACQ,
        gp_fit=FAST_FIT,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


# ------------------------------------------------------------ run contracts

def test_adollm_budget_and_sources():
    from analogopt.config import build_model
    from analogopt.core import design_space_contains

    config = fast_config(n_iter=3)
    log = run(config)
    assert len(log.dataset) == 5 + 5 * 3
    space = build_model(config).space
    assert all(design_space_contains(space, r.point) for r in log.dataset)
    init_sources = [r.source for r in log.dataset if r.iteration == 0]
    assert init_sources == [Source.LLM_INIT] * 5
    for iteration in (1, 2, 3):
        sources = Counter(
            r.source.value for r in log.dataset if r.iteration == iteration
        )
        assert sources == {"llm": 1, "gp_bo": 4}
    # evaluation order within an iteration: llm first, then the gp batch
    per_iter = [r.source.value for r in log.dataset if r.iteration == 1]
    assert per_iter == ["llm", "gp_bo", "gp_bo", "gp_bo", "gp_bo"]


def test_adollm_rerun_is_byte_identical():
    config = fast_config(n_iter=2, seed=11)
    assert run(config).text() == run(config).text()


def test_different_seed_changes_run():
    a = run(fast_config(n_iter=2, seed=1))
    b = run(fast_config(n_iter=2, seed=2))
    assert a.text() != b.text()


def test_gp_bo_budget_and_uniform_init():
    config = fast_config(
        method="gp_bo",
        llm_queries_per_step=0,
        gp_queries_per_step=5,
        init_strategy="uniform_random",
        mock=None,
        n_iter=3,
    )
    log = run(config)
    assert len(log.dataset) == 5 + 5 * 3
    assert all(r.source is Source.RANDOM for r in log.dataset if r.iteration == 0)
    assert all(
        r.source is Source.GP_BO for r in log.dataset if r.iteration >= 1
    )


def test_gp_bo_protocol_arithmetic():
    # the long-protocol budget is config arithmetic, checked without running
    config = fast_config(
        method="gp_bo", llm_queries_per_step=0, gp_queries_per_step=5,
        init_strategy="uniform_random", mock=None, n_iter=20,
    )
    assert config.total_evaluations == 105
    config80 = fast_config(
        method="gp_bo", llm_queries_per_step=0, gp_queries_per_step=5,
        init_strategy="uniform_random", mock=None, n_iter=80,
    )
    assert config80.total_evaluations == 405


def test_gp_bo_with_llm_init_tags_records():
    config = fast_config(
        method="gp_bo",
        llm_queries_per_step=0,
        gp_queries_per_step=5,
        init_strategy="llm_zero_shot",
        n_iter=1,
    )
    log = run(config)
    init_sources = [r.source for r in log.dataset if r.iteration == 0]
    assert init_sources == [Source.LLM_INIT] * 5


def test_llm_only_variants():
    for kind in ("top_k", "uniform", "none"):
        config = fast_config(
            method="llm_only",
            llm_queries_per_step=1,
            gp_queries_per_step=0,
            sampler_kind=kind,
            n_iter=4,
        )
        log = run(config)
        assert len(log.dataset) == 5 + 1 * 4
        assert all(
            r.source is Source.LLM for r in log.dataset if r.iteration >= 1
        ), kind


def test_proposer_exhaustion_substitutes_random(tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text("never a valid point\n", encoding="utf-8")
    config = fast_config(
        method="llm_only",
        llm_queries_per_step=1,
        gp_queries_per_step=0,
        init_strategy="uniform_random",
        mock=str(script),
        n_iter=3,
    )
    log = run(config)
    assert len(log.dataset) == 5 + 3  # budget preserved despite exhaustion
    iter_records = [r for r in log.dataset if r.iteration >= 1]
    assert all(r.source is Source.RANDOM for r in iter_records)
    iter_lines = [l for l in log.lines if l.get("type") == "iteration"]
    assert all(l["llm_substituted"] == 1 for l in iter_lines)


def test_llm_repeating_one_failing_design_completes_and_reruns(tmp_path, monkeypatch):
    # an M1 too narrow for its length fails, so every LLM record has the same
    # point and the same failure FOM
    script = tmp_path / "stuck.json"
    script.write_text(
        json.dumps([_amp2_reply(w1="120 nm", l1="1 um")]), encoding="utf-8"
    )
    config = fast_config(preset="amp2", mock=str(script), n_iter=3)
    fits = []

    def recording_fit(X, y, fit_config, seed):
        fits.append((X, y))
        return gp_fit(X, y, fit_config, seed)

    monkeypatch.setattr(orchestrator, "gp_fit", recording_fit)
    log = run(config)
    assert len(log.dataset) == 5 + 5 * 3
    llm = [r for r in log.dataset if r.source in (Source.LLM_INIT, Source.LLM)]
    assert len(llm) == 5 + 3
    assert {r.point for r in llm} == {llm[0].point}
    assert not any(r.simulation_ok for r in llm)
    X, y = fits[0]
    assert X.shape[0] == 5 and (X == X[0]).all() and (y == y[0]).all()
    assert run(config).text() == log.text()


class _CopyDemonstrationClient:
    """Replies with Demonstration 1's ``parameters:`` line, verbatim, as a
    fenced block; with one fixed valid block when the prompt shows none."""

    def complete(self, messages):
        shown = re.search(r"Demonstration 1 .*\n  parameters: (.*)",
                          messages[1]["content"])
        if shown is None:
            return _amp2_reply()
        return "```\n" + "\n".join(shown.group(1).split(", ")) + "\n```"


def test_llm_copying_a_demonstration_completes_and_reruns(monkeypatch):
    monkeypatch.setattr(orchestrator, "_make_client",
                        lambda *args: _CopyDemonstrationClient())
    config = fast_config(
        preset="amp2", n_iter=6,
        acquisition=AcquisitionConfig(
            mc_samples=64, restarts=2, raw_candidates=32, maxiter=5
        ),
    )
    log = run(config)
    assert len(log.dataset) == 5 + 5 * 6
    init = [r.point for r in log.dataset if r.source is Source.LLM_INIT]
    assert len(init) == 5 and set(init) == {init[0]}
    llm = [r.point for r in log.dataset if r.source is Source.LLM]
    assert len(llm) == 6 and len(set(llm)) < 6  # some copies land twice
    iter_lines = [l for l in log.lines if l.get("type") == "iteration"]
    assert next(l for l in log.lines if l["type"] == "init")["n_substituted"] == 0
    assert all(l["llm_substituted"] == 0 for l in iter_lines)
    assert all(math.isfinite(l["gp"]["log_marginal"]) for l in iter_lines)
    assert run(config).text() == log.text()


def test_iteration_diagnostics_present():
    log = run(fast_config(n_iter=2))
    iter_lines = [l for l in log.lines if l.get("type") == "iteration"]
    assert len(iter_lines) == 2
    for line in iter_lines:
        assert set(line["gp"]) == {
            "lengthscales", "signal_variance", "noise_variance", "log_marginal",
        }
        assert line["acquisition_value"] >= 0.0
        assert line["llm_transcripts"]


# ------------------------------------------------------------ trust region

def _amp2_gp_bo(seed, n_iter):
    return fast_config(
        method="gp_bo", preset="amp2", llm_queries_per_step=0, gp_queries_per_step=5,
        init_strategy="uniform_random", mock=None, n_iter=n_iter, seed=seed,
    )


def test_trust_region_waits_for_an_incumbent_that_meets_every_spec(monkeypatch):
    boxes = []

    def recording_propose_batch(*args):
        boxes.append(args[-1])
        return propose_batch(*args)

    monkeypatch.setattr(orchestrator, "propose_batch", recording_propose_batch)
    log = run(_amp2_gp_bo(seed=2, n_iter=7))
    fom_config = FOM_PRESETS["amp2"]
    first_met = next(r.iteration for r in log.dataset
                     if count_missed_specs(r.metrics, fom_config) == 0)
    assert 0 < first_met < 6  # the run has iterations on both sides of the gate
    for iteration, box in enumerate(boxes, 1):
        if iteration <= first_met:
            assert box is None, iteration
        else:
            lo, hi = box
            assert np.all(0.0 <= lo) and np.all(lo < hi) and np.all(hi <= 1.0)


def _replayed_regions(path, q, d, fom_config):
    """Each iteration's trust-region entry, recomputed from the eval lines alone."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    evals = [
        SimpleNamespace(iteration=l["iteration"], fom=l["fom"], metrics=l["metrics"])
        for l in lines if l["type"] == "eval"
    ]
    return [
        trust_region([r for r in evals if r.iteration < i], fom_config, q, d)
        for i in (l["iteration"] for l in lines if l["type"] == "iteration")
    ]


@pytest.mark.parametrize("config", [
    _amp2_gp_bo(seed=2, n_iter=7),
    _amp2_gp_bo(seed=0, n_iter=7),
    fast_config(preset="amp2", seed=3, n_iter=6),
    fast_config(method="gp_bo", llm_queries_per_step=0, gp_queries_per_step=5,
                init_strategy="uniform_random", mock=None, n_iter=10),
], ids=["amp2-gp_bo-gate", "amp2-gp_bo-halving", "amp2-ado_llm", "branin-gp_bo"])
def test_trust_region_entries_are_rebuilt_from_the_eval_lines(tmp_path, config):
    log = run(config)
    path = tmp_path / "run.jsonl"
    log.write(str(path))
    logged = [l["trust_region"] for l in log.lines if l["type"] == "iteration"]
    assert all(e is None or set(e) == {"length", "successes", "failures"} for e in logged)
    assert any(e is not None for e in logged)
    d = build_model(config).space.dimension
    assert _replayed_regions(
        path, config.batch_size, d, FOM_PRESETS[config.preset]
    ) == logged


def test_failed_acquisition_diagnostic_is_logged_not_fatal(monkeypatch):
    from analogopt import orchestrator
    from analogopt.surrogate import NumericalError

    config = fast_config(n_iter=2)
    healthy = run(config)

    def failing_qei_mc(*args):
        raise NumericalError("covariance not positive definite")

    monkeypatch.setattr(orchestrator, "qei_mc", failing_qei_mc)
    log = run(config)
    assert log.summary["n_evals"] == config.total_evaluations
    iter_lines = [l for l in log.lines if l.get("type") == "iteration"]
    assert len(iter_lines) == 2
    for line in iter_lines:
        assert line["acquisition_value"] is None
        assert line["acquisition_error"] == "covariance not positive definite"
    # the diagnostic draws no randomness, so every evaluation is unchanged
    evals = [l for l in log.lines if l.get("type") == "eval"]
    assert evals == [l for l in healthy.lines if l.get("type") == "eval"]


def test_transcript_replay_reproduces_point():
    from analogopt.config import build_model
    from analogopt.llm import parse_response

    config = fast_config(n_iter=2)
    model = build_model(config)
    log = run(config)
    evals = [l for l in log.lines if l.get("type") == "eval"]
    iter_lines = [l for l in log.lines if l.get("type") == "iteration"]
    for line in iter_lines:
        iteration = line["iteration"]
        llm_eval = next(
            e for e in evals
            if e["iteration"] == iteration and e["source"] == "llm"
        )
        last_assistant = [
            m for m in line["llm_transcripts"][0] if m["role"] == "assistant"
        ][-1]
        point = parse_response(last_assistant["content"], model.space)
        assert list(point.values) == llm_eval["point"]


def test_best_so_far_is_monotone():
    log = run(fast_config(n_iter=3))
    best = -np.inf
    series = []
    for line in log.lines:
        if line.get("type") == "eval":
            best = max(best, line["fom"])
            series.append(best)
    assert series == sorted(series)
    assert log.summary["best_fom"] == pytest.approx(best)


# ------------------------------------------------------------------ config

def test_load_run_config_ini(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        """
[run]
method = gp_bo
preset = comparator
n_iter = 2
seed = 5

[llm]
mock = random

[acquisition]
mc_samples = 99
gp_restarts = 4

[sampler]
kind = uniform
k = 3
""",
        encoding="utf-8",
    )
    config = load_run_config(str(path))
    assert config.method == "gp_bo"
    assert config.preset == "comparator"
    assert config.llm_queries_per_step == 0  # gp_bo default
    assert config.gp_queries_per_step == 5
    assert config.init_strategy == "uniform_random"  # gp_bo default
    assert config.acquisition.mc_samples == 99
    assert config.gp_fit.restarts == 4
    assert config.sampler_kind == "uniform" and config.sampler_k == 3
    assert config.seed == 5
    # overrides win
    assert load_run_config(str(path), seed=9).seed == 9


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(str(tmp_path / "missing.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nmethod = annealing\npreset = amp2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(str(bad))
    unknown = tmp_path / "unknown.ini"
    unknown.write_text(
        "[run]\nmethod = gp_bo\npreset = amp2\nbatchsize = 4\n", encoding="utf-8"
    )
    with pytest.raises(ConfigError):
        load_run_config(str(unknown))
    with pytest.raises(ConfigError):
        RunConfig(method="gp_bo", preset="amp2", llm_queries_per_step=1)
    with pytest.raises(ConfigError):
        RunConfig(method="llm_only", preset="amp2", gp_queries_per_step=2)


# ------------------------------------------------------------------ report

def _write_log(tmp_path, name, config):
    log = run(config)
    path = tmp_path / name
    log.write(str(path))
    return str(path), log


def test_write_matches_text_byte_for_byte(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        "```\nx1 = 20\nx2 = 3\n```",  # x1 outside [-5, 10]: a corrective retry
        "```\nx1 = 2.5\nx2 = 3\n```",
    ]), encoding="utf-8")
    config = fast_config(
        method="llm_only", llm_queries_per_step=1, gp_queries_per_step=0,
        init_strategy="uniform_random", mock=str(script), n_iter=3,
    )
    log = run(config)
    transcripts = [
        t for line in log.lines if line["type"] == "iteration"
        for t in line["llm_transcripts"]
    ]
    assert all([m["role"] for m in t] == ["system", "user", "assistant", "user",
                                          "assistant"] for t in transcripts)
    path = tmp_path / "run.jsonl"
    log.write(str(path))
    assert path.read_bytes() == log.text().encode("utf-8")


def test_header_names_input_files_by_content(tmp_path):
    reply = "```\nx1 = 2.5\nx2 = 3\n```"
    runs = []
    # one script and one principles file, each under two paths
    for folder, script_name, principles_name in (
        ("d1", "script.json", "principles.txt"), ("d2", "s.json", "p.md"),
    ):
        (tmp_path / folder).mkdir()
        script = tmp_path / folder / script_name
        script.write_text(json.dumps([reply]), encoding="utf-8")
        principles = tmp_path / folder / principles_name
        principles.write_text("Keep every device saturated.\n", encoding="utf-8")
        config = fast_config(
            method="llm_only", llm_queries_per_step=1, gp_queries_per_step=0,
            mock=str(script), principles_file=str(principles), n_iter=2,
        )
        runs.append(run(config).text().splitlines())
    assert runs[0] == runs[1]
    echo = json.loads(runs[0][0])["config"]
    assert echo["mock"] == "sha256:" + hashlib.sha256(script.read_bytes()).hexdigest()
    assert echo["principles_file"] == (
        "sha256:" + hashlib.sha256(principles.read_bytes()).hexdigest()
    )
    # an edit in place that leaves the run itself unchanged still shows
    script.write_text(json.dumps([reply, reply]), encoding="utf-8")
    edited = run(config).text().splitlines()
    assert edited[1:] == runs[1][1:]
    assert edited[0] != runs[1][0]
    assert json.loads(edited[0])["config"]["principles_file"] == echo["principles_file"]
    principles.write_text("Keep every device in saturation.\n", encoding="utf-8")
    assert json.loads(run(config).text().splitlines()[0])["config"][
        "principles_file"] != echo["principles_file"]


def test_header_keeps_random_mock_and_unset_principles():
    echo = run(fast_config(n_iter=1)).lines[0]["config"]
    assert echo["mock"] == "random"
    assert echo["principles_file"] is None


def _assert_lines_encode_as_json_dumps(lines):
    for line in lines:
        assert orchestrator._encode_line(line) == json.dumps(line, sort_keys=True) + "\n"


@pytest.mark.parametrize("method, queries, init", [
    ("ado_llm", (1, 4), "llm_zero_shot"),
    ("gp_bo", (0, 5), "uniform_random"),
    ("llm_only", (1, 0), "llm_zero_shot"),
])
def test_encode_line_is_json_dumps_on_every_line_of_each_method(method, queries, init):
    config = fast_config(
        method=method, llm_queries_per_step=queries[0],
        gp_queries_per_step=queries[1], init_strategy=init, n_iter=2,
    )
    _assert_lines_encode_as_json_dumps(run(config).lines)


# Non-ASCII, astral, quoted, escaped and tabbed replies for a branin run; the
# last is out of range, so it draws a corrective retry.
NON_ASCII_REPLIES = [
    f'Design {i} — "µ, Ω, é" \\ 𝜇\t\n```\nx1 = {i % 8 - 4} µm\nx2 = 3\n```'
    for i in range(12)
] + ['x1 = 2.5 kΩ \\ "é"\nx2 = 3\t\U0001F600']


def _non_ascii_config(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(NON_ASCII_REPLIES), encoding="utf-8")
    return fast_config(
        method="llm_only", llm_queries_per_step=1, gp_queries_per_step=0,
        init_strategy="uniform_random", mock=str(script), n_iter=20,
    )


def test_encode_line_is_json_dumps_on_non_ascii_replies_and_retries(tmp_path):
    _assert_lines_encode_as_json_dumps(run(_non_ascii_config(tmp_path)).lines)


def _retry_config(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(RETRY_SCRIPT), encoding="utf-8")
    return fast_config(preset="amp2", n_iter=4, seed=7, mock=str(script))


@pytest.mark.parametrize("make_config", [
    lambda tmp_path: fast_config(method="ado_llm", llm_queries_per_step=2,
                                 gp_queries_per_step=3),
    lambda tmp_path: fast_config(method="gp_bo", llm_queries_per_step=0,
                                 gp_queries_per_step=5, init_strategy="uniform_random"),
    lambda tmp_path: fast_config(method="llm_only", preset="amp2", n_iter=30,
                                 llm_queries_per_step=1, gp_queries_per_step=0),
    _retry_config,
    _non_ascii_config,
], ids=["ado_llm", "gp_bo", "llm_only", "retries", "non_ascii"])
def test_written_log_expands_to_the_in_memory_lines(tmp_path, make_config):
    log = run(make_config(tmp_path))
    path = tmp_path / "run.jsonl"
    log.write(str(path))
    assert expand(path) == [json.loads(json.dumps(line, sort_keys=True))
                            for line in log.lines]
    with open(path, encoding="utf-8") as handle:
        written = [json.loads(line) for line in handle]
    prompts = [json.dumps(line["messages"], sort_keys=True) for line in written
               if line["type"] == "prompt"]
    used = {
        json.dumps(t[:[m["role"] for m in t].index("assistant")], sort_keys=True)
        for line in log.lines for t in line.get("llm_transcripts", ())
    }
    assert sorted(prompts) == sorted(used)  # each distinct prompt written once


def test_encode_line_is_json_dumps_on_none_and_non_finite_values():
    inf, nan = float("inf"), float("nan")
    _assert_lines_encode_as_json_dumps([
        {"type": "iteration", "iteration": 3, "acquisition_value": None,
         "acquisition_error": "prefix factor failed: \"µ\"",
         "gp": {"lengthscales": [inf, -inf, nan, -0.0, 5e-324],
                "log_marginal": nan, "noise_variance": 1e-6,
                "signal_variance": 1.0}},
        {"type": "eval", "index": 0, "fom": -inf, "metrics": {"gain": nan},
         "point": [inf, 0.1], "regions": {}, "simulation_ok": False},
    ])


def test_report_single_and_replay(tmp_path):
    path, log = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=2))
    text = report([path])
    assert "preset: branin" in text
    assert "ado_llm" in text
    assert "5+5x2" in text
    # replay on disk: recompute FOM from the logged metrics
    fom_config = FOM_PRESETS["branin"]
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("type") == "eval":
                assert compute_fom(entry["metrics"], fom_config) == entry["fom"]


def test_report_bolds_best_of_multiple(tmp_path):
    p1, log1 = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=2, seed=1))
    p2, log2 = _write_log(tmp_path, "b.jsonl", fast_config(n_iter=2, seed=2))
    text = report([p1, p2])
    assert text.count("**") == 2  # exactly one bolded cell
    best = max(log1.summary["best_fom"], log2.summary["best_fom"])
    assert f"**{best:.4g}**" in text


def test_report_marks_missed_specs(tmp_path):
    config = fast_config(
        method="gp_bo", preset="amp2", llm_queries_per_step=0,
        gp_queries_per_step=5, init_strategy="uniform_random", mock=None,
        n_iter=1, seed=3,
    )
    path, log = _write_log(tmp_path, "amp2.jsonl", config)
    text = report([path])
    if log.summary["missed_specs"] > 0:
        assert "✗" in text


def test_report_curves(tmp_path):
    path, _ = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=2))
    text = report([path], curves=True)
    assert "convergence" in text and "index,best_fom" in text


def test_report_corrupt_log_names_line(tmp_path):
    path, _ = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=1))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3][:-10]  # truncate mid-JSON
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReportError) as excinfo:
        report([str(broken)])
    assert ":4:" in str(excinfo.value)


def test_report_detects_fom_tampering(tmp_path):
    path, _ = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=1))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[1])
    assert entry["type"] == "eval"
    entry["fom"] = entry["fom"] + 0.5
    lines[1] = json.dumps(entry, sort_keys=True)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReportError) as excinfo:
        report([str(tampered)])
    assert ":2:" in str(excinfo.value)


def test_report_names_the_earliest_bad_line(tmp_path):
    path, _ = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=1))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[1])
    entry["fom"] = entry["fom"] + 0.5
    lines[1] = json.dumps(entry, sort_keys=True)
    lines[3] = lines[3][:-10]  # truncate mid-JSON
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReportError) as excinfo:
        report([str(broken)])
    assert ":2:" in str(excinfo.value)


def _without(line, key):
    return json.dumps({k: v for k, v in json.loads(line).items() if k != key})


def _replace_in(lines, kind, old, new):
    """``lines`` with ``old`` replaced by ``new`` in the first line of type ``kind``."""
    at = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == kind)
    return lines[:at] + [lines[at].replace(old, new, 1)] + lines[at + 1:]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[1:], ":1: first line must be the header"),
    (lambda lines: [], ":1: first line must be the header"),
    (lambda lines: [lines[0].replace('"preset": "branin"', '"preset": "nope"')]
     + lines[1:], ":1: unknown preset 'nope' in header"),
    (lambda lines: lines[:-1], ": missing summary line"),
    (lambda lines: lines[:2] + ["[1, 2]"] + lines[2:],
     ":3: malformed line (AttributeError: 'list' object has no attribute 'get')"),
    (lambda lines: [lines[0], _without(lines[1], "metrics")] + lines[2:],
     ":2: malformed line (KeyError: 'metrics')"),
    (lambda lines: [lines[0], json.dumps({**json.loads(lines[1]), "metrics": {}})]
     + lines[2:],
     ":2: malformed line (StructuralError: metric vector is missing 'objective')"),
    (lambda lines: [_without(lines[0], "config")] + lines[1:],
     ":1: malformed line (KeyError: 'config')"),
    # "\udcff" is written as the lone byte 0xff, which is not UTF-8
    (lambda lines: lines[:3] + [lines[3] + "\udcff"] + lines[4:],
     ":4: not UTF-8: invalid start byte"),
    # "{summary}" is the summary's line number: 15 in a 5 + 5x1 run with one
    # prompt line
    (lambda lines: lines[:-1] + [_without(lines[-1], "best_metrics")],
     ":{summary}: malformed line (KeyError: 'best_metrics')"),
    (lambda lines: lines[:-1] + [_without(lines[-1], "best_fom")],
     ":{summary}: malformed line (KeyError: 'best_fom')"),
    (lambda lines: lines[:-1] + [_without(lines[-1], "missed_specs")],
     ":{summary}: malformed line (KeyError: 'missed_specs')"),
    (lambda lines: lines[:-1] + [lines[-1].replace('"objective"', '"objectiv"')],
     ":{summary}: malformed line (KeyError: 'objective')"),
    (lambda lines: _replace_in(lines, "iteration", '"prompt": 0', '"prompt": 1'),
     ":{iteration}: transcript names undefined prompt 1"),
    (lambda lines: _replace_in(lines, "prompt", '"id": 0', '"id": 1'),
     ":{prompt}: prompt id 1 out of order, expected 0"),
])
def test_report_rejects_malformed_logs(tmp_path, edit, message):
    path, _ = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=1))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    first_of = {}
    for lineno, line in enumerate(lines, 1):
        first_of.setdefault(json.loads(line)["type"], lineno)
    broken = tmp_path / "broken.jsonl"
    text = "".join(line + "\n" for line in edit(lines))
    broken.write_bytes(text.encode("utf-8", "surrogateescape"))
    message = message.format(**first_of)
    with pytest.raises(ReportError, match=re.escape(str(broken) + message)):
        report([str(broken)])
    assert main(["report", str(broken)]) == 2


# (edit of the log's lines, the message after the path as a function of the
# length n of line 2 before the edit). The messages are json.loads's own.
@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:1] + [lines[1] + "x"] + lines[2:],
     lambda n: f":2: invalid JSON: Extra data: line 1 column {n + 1} (char {n})"),
    (lambda lines: lines[:1] + [lines[1] + " \t " + lines[2]] + lines[2:],
     lambda n: f":2: invalid JSON: Extra data: line 1 column {n + 4} (char {n + 3})"),
    (lambda lines: lines[:1] + [lines[1] + "]"] + lines[2:],
     lambda n: f":2: invalid JSON: Extra data: line 1 column {n + 1} (char {n})"),
    (lambda lines: ["\ufeff" + lines[0]] + lines[1:],
     lambda n: ":1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (lambda lines: lines[:1] + ["\ufeff" + lines[1]] + lines[2:],
     lambda n: ":2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (lambda lines: lines[:1] + ["\ufeff"] + lines[1:],
     lambda n: ":2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (lambda lines: lines[:1] + [lines[1][:-1]] + lines[2:],
     lambda n: f":2: invalid JSON: Expecting ',' delimiter: line 1 column {n} "
     f"(char {n - 1})"),
    (lambda lines: lines[:1] + ["nul"] + lines[1:],
     lambda n: ":2: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
], ids=["trailing", "space_then_trailing", "trailing_bracket", "bom_header",
        "bom_eval", "bom_alone", "truncated", "bad_literal"])
def test_report_json_error_messages(tmp_path, edit, message):
    path, _ = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=1))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    with pytest.raises(ReportError) as excinfo:
        report([str(broken)])
    assert str(excinfo.value) == str(broken) + message(len(lines[1]))
    assert main(["report", str(broken)]) == 2


@pytest.mark.parametrize("newline, blank", [
    ("\r\n", ""), ("\n", "\n"), ("\r\n", "  \t\r\n"), ("\n", "\u00a0\u2003 \n"),
], ids=["crlf", "blank_lines", "crlf_blank_lines", "unicode_space_lines"])
def test_report_reads_crlf_and_blank_lines(tmp_path, newline, blank):
    path, _ = _write_log(tmp_path, "a.jsonl", fast_config(n_iter=2))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    other = tmp_path / "other.jsonl"
    other.write_bytes((blank + blank.join(line + newline for line in lines) + blank)
                      .encode("utf-8"))
    assert report([path], curves=True).replace(path, "LOG") == report(
        [str(other)], curves=True
    ).replace(str(other), "LOG")


def reference_curve_lines(evals):
    """The convergence series as report wrote it with one max and one repr
    per eval line."""
    lines, best = [], -float("inf")
    for index, fom in evals:
        best = max(best, fom)
        lines.append(f"{index},{best!r}")
    return lines


FOM_VALUES = st.one_of(
    st.sampled_from([math.nan, -math.inf, math.inf, 0.0, -0.0, 1.0, 1, True, -9.667]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), FOM_VALUES), max_size=40))
def test_curve_lines_match_the_running_max(evals):
    assert orchestrator._curve_lines(evals) == reference_curve_lines(evals)


def test_report_rejects_transcripts_written_before_prompt_lines(tmp_path):
    # such a log holds each transcript in full, as a list of messages
    config = fast_config(n_iter=3, llm_queries_per_step=2, gp_queries_per_step=3)
    path, _ = _write_log(tmp_path, "compact.jsonl", config)
    old = tmp_path / "expanded.jsonl"
    old.write_text(expanded_text(path), encoding="utf-8")
    lineno = next(i for i, line in enumerate(old.read_text("utf-8").splitlines(), 1)
                  if json.loads(line)["type"] == "iteration")
    message = f"{old}:{lineno}: malformed line (TypeError: list indices must be"
    with pytest.raises(ReportError, match=re.escape(message)):
        report([str(old)])
    assert main(["report", str(old)]) == 2


def test_report_memory_is_bounded_by_a_line_not_the_log(tmp_path):
    config = fast_config(
        method="llm_only", preset="amp2", llm_queries_per_step=1,
        gp_queries_per_step=0, n_iter=500,
    )
    path, _ = _write_log(tmp_path, "long.jsonl", config)
    tracemalloc.start()
    try:
        report([path], curves=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path) / 4


# ----------------------------------------------------------- shared values

def _amp2_configs(n_iter):
    """One ``ado_llm`` and one ``llm_only`` config on amp2 with mock random."""
    return [
        fast_config(preset="amp2", n_iter=n_iter),
        fast_config(method="llm_only", preset="amp2", llm_queries_per_step=1,
                    gp_queries_per_step=0, n_iter=5 * n_iter),
    ]


@pytest.mark.parametrize("config", _amp2_configs(4), ids=["ado_llm", "llm_only"])
def test_eval_lines_and_records_share_each_distinct_mapping(config):
    log = run(config)
    records = list(log.dataset)
    evals = [line for line in log.lines if line["type"] == "eval"]
    assert len(evals) == len(records)
    for line, record in zip(evals, records):
        assert line["metrics"] is record.metrics
        assert line["regions"] is record.regions
    reports: dict[tuple, dict] = {}
    for record in records:
        key = tuple(record.regions.items())
        assert reports.setdefault(key, record.regions) is record.regions
    assert len(reports) < len(records)
    failed = [r for r in records if not r.simulation_ok]
    assert failed, "the run has no failed evaluation to check"
    vector = FOM_PRESETS["amp2"].failure_vector
    assert all(r.metrics is vector for r in failed)


def test_mutating_returned_regions_and_failed_metrics_changes_no_record_or_log(
    tmp_path,
):
    model = circuit_model("amp2")
    config = _amp2_configs(4)[1]
    path, log = _write_log(tmp_path, "before.jsonl", config)
    before = Path(path).read_bytes()
    points = [r.point for r in log.dataset]
    snapshot = [(r.point, dict(r.metrics), dict(r.regions), r.simulation_ok, r.fom)
                for r in log.dataset]
    assert not all(ok for *_, ok, _ in snapshot)
    overdrives = [model.solve(p)[1] for p in points]
    overdrives.append(dict.fromkeys(model.devices, 0.0))  # a raising solver's
    for vov in overdrives:
        regions = classify_regions(model, vov)
        regions.update(dict.fromkeys(regions, Region.CUTOFF), M0=Region.TRIODE)
    for fom_config in FOM_PRESETS.values():
        failed = failed_metrics(fom_config)
        failed.update(dict.fromkeys(failed, 0.0), extra=1.0)
    after = [evaluate(model, p, r.source, r.iteration)
             for p, r in zip(points, log.dataset)]
    assert [(r.point, dict(r.metrics), dict(r.regions), r.simulation_ok, r.fom)
            for r in after] == snapshot
    path, _ = _write_log(tmp_path, "after.jsonl", config)
    assert Path(path).read_bytes() == before


def test_long_llm_only_run_holds_under_3300_bytes_per_evaluation():
    config = RunConfig(method="llm_only", preset="amp2", n_iter=500, mock="random",
                       seed=0)
    run(dataclasses.replace(config, n_iter=1))  # templates and caches, untraced
    gc.collect()
    tracemalloc.start()
    try:
        log = run(config)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.dataset) == 505
    assert held / len(log.dataset) <= 3300


# --------------------------------------------------------------------- CLI

def _ini(tmp_path, extra=""):
    path = tmp_path / "exp.ini"
    path.write_text(
        f"""
[run]
method = ado_llm
preset = branin
n_iter = 2
seed = 3

[llm]
mock = random

[acquisition]
mc_samples = 128
restarts = 2
raw_candidates = 64
maxiter = 10
gp_restarts = 2
gp_maxiter = 40
{extra}
""",
        encoding="utf-8",
    )
    return str(path)


def test_cli_run_and_report(tmp_path, capsys):
    ini = _ini(tmp_path)
    out = str(tmp_path / "run.jsonl")
    assert main(["run", "--config", ini, "--out", out]) == 0
    assert "best FOM" in capsys.readouterr().out
    assert main(["report", out, "--curves"]) == 0
    assert "convergence" in capsys.readouterr().out


def test_cli_seed_override_changes_log(tmp_path):
    ini = _ini(tmp_path)
    out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["run", "--config", ini, "--out", out1, "--seed", "21"]) == 0
    assert main(["run", "--config", ini, "--out", out2, "--seed", "22"]) == 0
    assert Path(out1).read_text(encoding="utf-8") != Path(out2).read_text(encoding="utf-8")


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "error" in capsys.readouterr().err


# Mock scripts load_script must reject: file name and content, by case.
BAD_SCRIPTS = {
    "empty_array": ("empty.json", "[]"),
    "json_object": ("object.json", '{"a": 1}'),
    "not_json": ("broken.json", "not json"),
    "empty_reply": ("blank.json", '["ok", ""]'),
    "only_separators": ("separators.txt", "---\n---\n"),
    "not_utf8": ("latin1.txt", b"```\nx1 = 2 \xb5m\nx2 = 3\n```\n"),
}


@pytest.mark.parametrize("name, text", BAD_SCRIPTS.values(), ids=BAD_SCRIPTS.keys())
def test_cli_bad_mock_script_is_a_config_error(tmp_path, capsys, name, text):
    script = tmp_path / name
    script.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    args = ["run", "--config", _ini(tmp_path), "--mock-llm", str(script),
            "--out", str(tmp_path / "x.jsonl")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {script}: ")


@pytest.mark.parametrize("method", ["gp_bo", "llm_only"])
def test_cli_unreadable_mock_script_is_a_config_error(tmp_path, capsys, method):
    # gp_bo never asks the script, but the header records its SHA-256
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nmethod = {method}\npreset = branin\nn_iter = 1\n",
                   encoding="utf-8")
    missing = tmp_path / "missing.json"
    args = ["run", "--config", str(ini), "--mock-llm", str(missing),
            "--out", str(tmp_path / "x.jsonl")]
    assert main(args) == 2
    assert str(missing) in capsys.readouterr().err


def test_cli_non_utf8_principles_file_is_a_config_error(tmp_path, capsys):
    principles = tmp_path / "principles.txt"
    principles.write_bytes(b"Keep every device saturated at 25 \xb0C.\n")
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nmethod = llm_only\npreset = branin\nn_iter = 1\n"
                   f"[llm]\nmock = random\nprinciples_file = {principles}\n",
                   encoding="utf-8")
    args = ["run", "--config", str(ini), "--out", str(tmp_path / "x.jsonl")]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {principles}: not UTF-8: invalid start byte\n"
    )


def test_cli_undersized_context_budget_is_a_config_error(tmp_path, capsys):
    ini = tmp_path / "small.ini"
    ini.write_text(
        "[run]\nmethod = llm_only\npreset = branin\nn_iter = 1\n"
        "[llm]\nmock = random\ncontext_budget = 10\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(ini), "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "context_budget of 10" in capsys.readouterr().err


def test_cli_llm_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    ini = tmp_path / "live.ini"
    ini.write_text(
        "[run]\nmethod = llm_only\npreset = branin\nn_iter = 1\n", encoding="utf-8"
    )
    assert main(["run", "--config", str(ini), "--out", str(tmp_path / "x.jsonl")]) == 3
    assert "LLM error" in capsys.readouterr().err


def test_cli_ablate_init(tmp_path, capsys):
    ini = _ini(tmp_path)
    out = str(tmp_path / "ab.jsonl")
    assert main(["ablate-init", "--config", ini, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "uniform_random" in captured and "llm_zero_shot" in captured
    assert (tmp_path / "ab_uniform_random.jsonl").exists()
    assert (tmp_path / "ab_llm_zero_shot.jsonl").exists()


def test_cli_ablate_icl(tmp_path, capsys):
    ini = _ini(tmp_path)
    out = str(tmp_path / "icl.jsonl")
    assert main(["ablate-icl", "--config", ini, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "sampler=none" in captured
    assert "sampler=uniform" in captured
    assert "sampler=top_k" in captured
    for tag in ("no_icl", "rand_k", "top_k"):
        assert (tmp_path / f"icl_{tag}.jsonl").exists()
