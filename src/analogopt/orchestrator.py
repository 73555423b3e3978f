"""Experiment engine: the hybrid loop, both baselines, run logs, and reports.

Every run follows the same skeleton: initialize ``n_init`` points (LLM
zero-shot or uniform random), then iterate. An iteration evaluates the
proposals of ``_llm_step`` (the LLM, shown demonstrations from the dataset),
then of ``_gp_step`` (a qEI batch from a GP refit on the entire dataset), and
appends them to the shared dataset. All randomness derives from one master
seed fanned out into fixed per-component streams: ``init`` (uniform initial
points); ``sampler`` and ``llm`` in ``_llm_step`` (uniform demonstrations;
stand-ins for failed queries, a stream the random mock also draws from); and
``surrogate`` and ``acquisition`` in ``_gp_step``. A rerun with the same
configuration reproduces the run log byte for byte (scripted or seeded mock).

Run logs are JSONL: one header line, then init / eval / prompt / iteration /
summary lines.
Recomputing the FOM from any logged metric vector reproduces the logged FOM
exactly; the report command verifies this replay invariant. Both ends stream:
``RunLog.write`` encodes one line at a time, and ``report`` parses and
replay-checks each line as it reads it. The writer keeps a per-run prompt table:
each distinct prompt is written once, as a ``prompt`` line, and a transcript on
disk names it by id; the in-memory lines keep full transcripts.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import __version__
from .acquisition import propose_batch, qei_mc, trust_region, trust_region_box
from .config import RunConfig, build_model, build_task_card
from .core import (
    Dataset,
    DesignPoint,
    EvalRecord,
    Source,
    StructuralError,
    dataset_append,
    from_unit_cube,
    to_unit_cube,
    top_k,
    uniform_k,
)
from .evaluator import CircuitModel, evaluate
from .fom import FOM_PRESETS, compute_fom, count_missed_specs, hits_spec
from .llm import (
    HttpLlmClient,
    RandomPointLlmClient,
    ScriptedLlmClient,
    load_script,
    propose,
    propose_init,
)
from .surrogate import NumericalError, gp_fit

_SEED_STREAMS = ("init", "llm", "acquisition", "surrogate", "sampler")


class ReportError(ValueError):
    """A run log could not be parsed or failed the replay check."""


# json.dumps(line, sort_keys=True), without building an encoder per line
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)
# json.loads's decoder; report calls its raw_decode once per line
_raw_decode = json.JSONDecoder().raw_decode


def _encode_line(line: dict) -> str:
    """``json.dumps(line, sort_keys=True)`` plus a newline."""
    return _LINE_ENCODER.encode(line) + "\n"


def _log_text(lines: list[dict]) -> Iterator[str]:
    """The encoded lines, with each distinct prompt (a transcript's messages
    before its first assistant reply) written once, as a ``prompt`` line just
    before the first iteration line that uses it; ids count up from 0."""
    prompt_ids: dict[tuple, int] = {}
    for line in lines:
        if "llm_transcripts" in line:
            entries = []
            for transcript in line["llm_transcripts"]:
                cut = [m["role"] for m in transcript].index("assistant")
                key = tuple((m["role"], m["content"]) for m in transcript[:cut])
                if key not in prompt_ids:
                    prompt_ids[key] = len(prompt_ids)
                    yield _encode_line({"type": "prompt", "id": prompt_ids[key],
                                        "messages": transcript[:cut]})
                entries.append({"prompt": prompt_ids[key],
                                "messages": transcript[cut:]})
            line = {**line, "llm_transcripts": entries}
        yield _encode_line(line)


@dataclass
class RunLog:
    lines: list[dict]
    dataset: Dataset

    def text(self) -> str:
        return "".join(_log_text(self.lines))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(_log_text(self.lines))

    @property
    def summary(self) -> dict:
        return self.lines[-1]


def _preset_checksum(model: CircuitModel) -> str:
    import hashlib  # loads OpenSSL; only a run's header needs it, report does not

    payload = {
        "space": [
            [p.name, p.lower, p.upper, p.scale.value] for p in model.space.parameters
        ],
        "fom": [
            [m.name, m.direction.value, m.spec, m.norm_min, m.norm_max, m.failed,
             m.sign.value, m.bound, m.magnitude]
            for m in model.fom.metrics
        ],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _file_digest(path: str) -> str:
    import hashlib

    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()


def _header_line(config: RunConfig, model: CircuitModel) -> dict:
    echo = dataclasses.asdict(config)
    echo.pop("out", None)  # not experiment-defining; keeps reruns byte-identical
    # Input files are named by content, not path: the same script under two
    # paths gives the same log, and an edit in place changes the header.
    if config.mock not in (None, "random"):
        echo["mock"] = _file_digest(config.mock)
    if config.principles_file:
        echo["principles_file"] = _file_digest(config.principles_file)
    return {
        "type": "header",
        "version": __version__,
        "method": config.method,
        "preset": config.preset,
        "seed": config.seed,
        "preset_checksum": _preset_checksum(model),
        "config": echo,
    }


def _eval_line(index: int, record) -> dict:
    # the record's own values, not copies: a Region encodes as its text and
    # the point's tuple as a JSON list
    return {
        "type": "eval",
        "index": index,
        "iteration": record.iteration,
        "source": record.source.value,
        "point": record.point.values,
        "metrics": record.metrics,
        "regions": record.regions,
        "simulation_ok": record.simulation_ok,
        "fom": record.fom,
    }


def _make_client(config: RunConfig, space, llm_rng):
    if config.mock is None:
        return HttpLlmClient(config.llm)
    if config.mock == "random":
        return RandomPointLlmClient(space, llm_rng)
    return ScriptedLlmClient(load_script(config.mock))


def _uniform_point(space, rng) -> DesignPoint:
    return from_unit_cube(space, rng.uniform(size=space.dimension))


def _llm_step(config: RunConfig, client, card, streams: dict, dataset: Dataset):
    """The iteration's LLM proposals and their part of the iteration line."""
    if config.llm_queries_per_step == 0:
        return [], {}
    demos: list[EvalRecord] = []
    if config.sampler_kind == "top_k":
        demos = top_k(dataset, config.sampler_k)
    elif config.sampler_kind == "uniform":
        records = uniform_k(dataset, config.sampler_k, streams["sampler"])
        demos = sorted(records, key=lambda r: -r.fom)
    proposals: list[tuple[DesignPoint, Source]] = []
    transcripts = []
    for _ in range(config.llm_queries_per_step):
        point, transcript = propose(client, card, demos, config.llm)
        proposals.append(
            (point, Source.LLM) if point is not None
            else (_uniform_point(card.space, streams["llm"]), Source.RANDOM)
        )
        transcripts.append(transcript)
    substituted = sum(source is Source.RANDOM for _, source in proposals)
    return proposals, {"llm_transcripts": transcripts, "llm_substituted": substituted}


def _gp_step(config: RunConfig, model: CircuitModel, streams: dict, dataset: Dataset):
    """The iteration's qEI batch and its part of the iteration line."""
    if config.gp_queries_per_step == 0:
        return [], {}
    space = model.space
    X = np.array([to_unit_cube(space, r.point) for r in dataset])
    y = np.array([r.fom for r in dataset])
    fit_seed = int(streams["surrogate"].integers(2**31 - 1))
    gp = gp_fit(X, y, config.gp_fit, fit_seed)
    best = dataset[dataset.best_index].fom
    # The region is centred on the incumbent only once it meets every spec
    # (SCBO's rule); until then the batch searches the whole cube.
    region = trust_region(dataset, model.fom, config.batch_size, space.dimension)
    box = None
    if region is not None:
        box = trust_region_box(gp, X[dataset.best_index], region["length"])
    acq_seed = int(streams["acquisition"].integers(2**31 - 1))
    batch = propose_batch(
        gp, space, best, config.gp_queries_per_step, config.acquisition,
        streams["acquisition"], acq_seed, box,
    )
    batch_u = np.array([to_unit_cube(space, p) for p in batch])
    part = {
        "trust_region": region,
        "gp": {
            "lengthscales": [float(v) for v in gp.lengthscales],
            "signal_variance": float(gp.signal_variance),
            "noise_variance": float(gp.noise_variance),
            "log_marginal": float(gp.log_marginal),
        },
    }
    # A diagnostic only: the prefix factor, the one factorization in qei_mc
    # that can fail, is logged on failure, not fatal.
    try:
        part["acquisition_value"] = float(
            qei_mc(gp, batch_u, best, config.acquisition, acq_seed)
        )
    except NumericalError as exc:
        part["acquisition_value"] = None
        part["acquisition_error"] = str(exc)
    return [(p, Source.GP_BO) for p in batch], part


def run(config: RunConfig) -> RunLog:
    """Execute one configured run and return its in-memory log."""
    model = build_model(config)
    space = model.space
    card = build_task_card(config, model)
    seeds = np.random.SeedSequence(config.seed).spawn(len(_SEED_STREAMS))
    streams = {name: np.random.default_rng(s) for name, s in zip(_SEED_STREAMS, seeds)}
    needs_llm = (
        config.llm_queries_per_step > 0 or config.init_strategy == "llm_zero_shot"
    )
    client = _make_client(config, space, streams["llm"]) if needs_llm else None

    lines: list[dict] = [_header_line(config, model)]
    dataset = Dataset()

    def evaluate_all(proposals, iteration: int) -> None:
        for point, source in proposals:
            record = evaluate(model, point, source=source, iteration=iteration)
            dataset_append(dataset, record)
            lines.append(_eval_line(len(dataset) - 1, record))

    # Initialization (iteration 0 records); uniform points fill what the LLM
    # did not supply.
    init_line = {"type": "init", "strategy": config.init_strategy, "n_substituted": 0}
    points: list[DesignPoint] = []
    if config.init_strategy == "llm_zero_shot":
        points, init_line["transcript"] = propose_init(
            client, card, config.n_init, config.llm
        )
        init_line["n_substituted"] = config.n_init - len(points)
    evaluate_all(
        [(p, Source.LLM_INIT) for p in points]
        + [(_uniform_point(space, streams["init"]), Source.RANDOM)
           for _ in range(config.n_init - len(points))],
        0,
    )
    lines.append(init_line)

    for iteration in range(1, config.n_iter + 1):
        llm_proposals, llm_part = _llm_step(config, client, card, streams, dataset)
        gp_proposals, gp_part = _gp_step(config, model, streams, dataset)
        lines.append({"type": "iteration", "iteration": iteration} | llm_part | gp_part)
        evaluate_all(llm_proposals + gp_proposals, iteration)

    expected = config.total_evaluations
    if len(dataset) != expected:
        raise RuntimeError(
            f"budget accounting broken: {len(dataset)} records, expected {expected}"
        )
    best_idx = dataset.best_index
    best = dataset[best_idx]
    lines.append(
        {
            "type": "summary",
            "n_evals": len(dataset),
            "best_index": best_idx,
            "best_iteration": best.iteration,
            "best_source": best.source.value,
            "best_fom": float(best.fom),
            "best_point": [float(v) for v in best.point.values],
            "best_metrics": {k: float(v) for k, v in best.metrics.items()},
            "missed_specs": count_missed_specs(best.metrics, model.fom),
        }
    )
    return RunLog(lines=lines, dataset=dataset)


def _scan_log(path: str) -> tuple[str, list[str], float, list[tuple[int, float]]]:
    """One pass over a run log: parse and replay-check each line as it is read.

    Returns the preset, the log's report row (method, protocol, best metrics,
    FOM and missed specs, as text), its best FOM, and ``(index, fom)`` of
    every eval line. The summary must agree with the eval lines it sums up.
    """
    preset = last = fom_config = top = None  # top: the earliest best eval line
    evals: list[tuple[int, float]] = []
    n_prompts = 0
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry, end = _raw_decode(line)
                except json.JSONDecodeError:
                    end = -1
                if end != len(line):
                    # a leading BOM or trailing data: json.loads's own error
                    entry = json.loads(line)
                if preset is None:
                    if entry.get("type") != "header":
                        break
                    preset = entry.get("preset")
                    if preset not in FOM_PRESETS:
                        raise ReportError(
                            f"{path}:1: unknown preset {preset!r} in header"
                        )
                    fom_config = FOM_PRESETS[preset]
                    config = entry["config"]
                    batch = (
                        config["llm_queries_per_step"] + config["gp_queries_per_step"]
                    )
                    protocol = f"{config['n_init']}+{batch}x{config['n_iter']}"
                    lead = [entry["method"], protocol]
                elif (kind := entry.get("type")) == "eval":
                    recomputed = compute_fom(entry["metrics"], fom_config)
                    if recomputed != entry["fom"]:
                        raise ReportError(
                            f"{path}:{lineno}: logged FOM {entry['fom']!r} does not "
                            f"match recomputed {recomputed!r}"
                        )
                    evals.append((entry["index"], entry["fom"]))
                    if top is None or entry["fom"] > top["fom"]:
                        top = entry
                elif kind == "prompt":
                    if entry["id"] != n_prompts:
                        raise ReportError(f"{path}:{lineno}: prompt id {entry['id']!r}"
                                          f" out of order, expected {n_prompts}")
                    n_prompts += 1
                elif kind == "iteration":
                    for t in entry.get("llm_transcripts", ()):
                        if not 0 <= t["prompt"] < n_prompts:
                            raise ReportError(f"{path}:{lineno}: transcript names "
                                              f"undefined prompt {t['prompt']!r}")
                last, last_lineno = entry, lineno
    except OSError as exc:
        raise ReportError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    except (AttributeError, KeyError, StructuralError, TypeError) as exc:
        raise ReportError(
            f"{path}:{lineno}: malformed line ({type(exc).__name__}: {exc})"
        ) from exc
    except UnicodeDecodeError as exc:
        # The text layer decodes ahead of the lines it hands out: find the line.
        with open(path, "rb") as raw:
            for lineno, data in enumerate(raw, 1):
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise ReportError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from exc
    if preset is None:
        raise ReportError(f"{path}:1: first line must be the header")
    if last.get("type") != "summary":
        raise ReportError(f"{path}: missing summary line (incomplete run?)")
    # The summary is read once, here, so that every field the table prints is
    # checked with the line it came from.
    try:
        row = list(lead)
        for metric in fom_config.metrics:
            value = last["best_metrics"][metric.name]
            mark = "" if hits_spec(value, metric) else " ✗"
            row.append(f"{value:.4g}{mark}")
        best_fom = last["best_fom"]
        row += [f"{best_fom:.4g}", str(last["missed_specs"])]
        top = top or dict.fromkeys(("fom", "index", "metrics"))
        claims = [
            ("n_evals", last["n_evals"], len(evals)),
            ("best_fom", best_fom, top["fom"]),
            ("best_index", last["best_index"], top["index"]),
            ("best_metrics", last["best_metrics"], top["metrics"]),
            ("missed_specs", last["missed_specs"],
             count_missed_specs(last["best_metrics"], fom_config)),
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportError(
            f"{path}:{last_lineno}: malformed line ({type(exc).__name__}: {exc})"
        ) from exc
    for name, claimed, replayed in claims:
        if claimed != replayed:
            raise ReportError(f"{path}:{last_lineno}: summary {name} is {claimed!r},"
                              f" the eval lines give {replayed!r}")
    return preset, row, best_fom, evals


def report(log_paths: list[str], curves: bool = False) -> str:
    """Cross-run comparison table plus optional convergence series.

    Verifies the replay invariant of every log first. Metrics that miss
    their specification are cross-marked; the best FOM per preset is bolded.
    """
    loaded = [(path, *_scan_log(path)) for path in log_paths]

    by_preset: dict[str, list] = {}
    for _, preset, row, best_fom, _ in loaded:
        by_preset.setdefault(preset, []).append((row, best_fom))

    out: list[str] = []
    for preset, rows in by_preset.items():
        fom_config = FOM_PRESETS[preset]
        top = max(best_fom for _, best_fom in rows)
        header_cells = (
            ["method", "protocol"]
            + [m.name for m in fom_config.metrics]
            + ["fom", "missed"]
        )
        table = [header_cells]
        for row, best_fom in rows:
            if best_fom == top and len(rows) > 1:
                row = row[:-2] + [f"**{row[-2]}**", row[-1]]
            table.append(row)
        widths = [max(len(row[i]) for row in table) for i in range(len(header_cells))]
        out.append(f"# preset: {preset}")
        for row in table:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        out.append("")

    if curves:
        for path, _, _, _, evals in loaded:
            out.append(f"# convergence: {path}")
            out.append("index,best_fom")
            out += _curve_lines(evals)
            out.append("")
    return "\n".join(out).rstrip() + "\n"


def _curve_lines(evals: list[tuple[int, float]]) -> list[str]:
    """``index,best`` for each eval, best the running ``max`` of the FOMs."""
    lines = []
    best = -float("inf")
    text = repr(best)
    for index, fom in evals:
        if fom > best:  # as max(best, fom): a tie or a NaN keeps best
            best = fom
            text = repr(best)
        lines.append(f"{index},{text}")
    return lines
