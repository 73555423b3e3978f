"""In-memory spans around the calls ``analogopt.orchestrator`` makes into each layer.

``instrument(tracer)`` swaps the layer functions the orchestrator imported
into its own namespace (``gp_fit``, ``propose_batch``, ``evaluate``, ...) for
wrappers that record one span per call, and restores them on exit. Nothing in
the package itself is edited. Spans stay in memory until ``write_spans``.

Small per-record helpers the orchestrator also calls (``to_unit_cube``,
``dataset_append``, ``dataset_best``) are left unwrapped on purpose: they run
hundreds of times per iteration and a span each would distort the timings.
Their cost shows in ``orchestrator.self_s``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from analogopt import orchestrator

# orchestrator attribute -> span name; the prefix before the first '.' is the layer.
PROBES = {
    "build_model": "config.build_model",
    "build_task_card": "config.build_task_card",
    "propose_init": "llm.propose_init",
    "propose": "llm.propose",
    "top_k": "sampler.top_k",
    "uniform_k": "sampler.uniform_k",
    "gp_fit": "surrogate.gp_fit",
    "propose_batch": "acquisition.propose_batch",
    "qei_mc": "acquisition.qei_mc",
    "evaluate": "evaluator.evaluate",
    "compute_fom": "fom.compute_fom",
    "count_missed_specs": "fom.count_missed_specs",
}

# Facts read off a call's arguments and result, stored on its span.
OBSERVERS = {
    "surrogate.gp_fit": lambda args, result: {
        "n": len(args[0]),
        "jitter": float(result.jitter),
    },
    "acquisition.propose_batch": lambda args, result: {"slots": len(result)},
    "evaluator.evaluate": lambda args, result: {"ok": bool(result.simulation_ok)},
}

LAYERS = ("acquisition", "surrogate", "llm", "sampler", "evaluator", "fom", "config")
ROOT_RUN = "orchestrator.run"
ROOT_WRITE = "orchestrator.log_write"
ROOT_REPORT = "orchestrator.report"
# The per-iteration proposal work: everything between two evaluation groups.
ITERATION_PROPOSE = (
    "llm.propose",
    "surrogate.gp_fit",
    "acquisition.propose_batch",
    "acquisition.qei_mc",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``run_id`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                record.attrs.update(observe(args, result))
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route the orchestrator's layer calls through ``tracer`` for the block."""
    originals = {attr: getattr(orchestrator, attr) for attr in PROBES}
    try:
        for attr, name in PROBES.items():
            setattr(orchestrator, attr, tracer.wrap(name, originals[attr]))
        yield tracer
    finally:
        for attr, fn in originals.items():
            setattr(orchestrator, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def write_spans(spans: list[Span], path) -> None:
    epoch = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        for index, s in enumerate(spans):
            line = {
                "id": index,
                "name": s.name,
                "start": s.start - epoch,
                "end": s.end - epoch,
                "parent": s.parent,
                "run_id": s.run_id,
                **s.attrs,
            }
            handle.write(json.dumps(line, sort_keys=True) + "\n")


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _iteration_propose_times(children: list[Span]) -> list[float]:
    """Proposal time of each iteration: the listed spans before its evaluations."""
    times, pending = [], 0.0
    for s in children:
        if s.name in ITERATION_PROPOSE:
            pending += s.duration
        elif s.name == "evaluator.evaluate" and pending > 0.0:
            times.append(pending)
            pending = 0.0
    return times


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of one or more traced runs.

    Counts, busy and self times are per run, averaged over the traced runs,
    so the layer self times, ``orchestrator.self_s`` and
    ``orchestrator.log_write_s`` add up to ``trace.run_s``. ``p50`` values
    are medians over every call of every run.
    """
    own = self_times(spans)
    roots = [_root_of(spans, i) for i in range(len(spans))]
    runs = sorted({s.run_id for s in spans})
    calls: dict[str, list[Span]] = {}
    totals: dict[str, float] = {}
    iteration_times: list[float] = []

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for index, s in enumerate(spans):
        calls.setdefault(s.name, []).append(s)
        root = spans[roots[index]].name
        if s.parent is None:
            add(f"{s.name}.own_s", own[index])
            add(f"{s.name}.wall_s", s.duration)
        elif root == ROOT_RUN:
            add(f"{s.name.split('.', 1)[0]}.self_s", own[index])
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.busy_s", s.duration)
        elif root == ROOT_REPORT and s.name == "fom.compute_fom":
            add("fom.replay.calls", 1)
            add("fom.replay_s", s.duration)
    for run_id in runs:
        children = [
            s for s in spans
            if s.run_id == run_id and s.parent is not None
            and spans[s.parent].name == ROOT_RUN
        ]
        iteration_times.extend(_iteration_propose_times(children))

    def mean(key):
        return totals.get(key, 0.0) / len(runs) if runs else 0.0

    def p50(name):
        return median_or_zero(s.duration for s in calls.get(name, ()))

    def per_run_median(name, pick):
        firsts: dict[str, Span] = {}
        for s in calls.get(name, ()):
            if pick == "last" or s.run_id not in firsts:
                firsts[s.run_id] = s
        return median_or_zero(s.duration for s in firsts.values())

    batches = calls.get("acquisition.propose_batch", [])
    fits = calls.get("surrogate.gp_fit", [])
    evals = calls.get("evaluator.evaluate", [])
    slots = sum(s.attrs["slots"] for s in batches)
    out = {f"{layer}.self_s": mean(f"{layer}.self_s") for layer in LAYERS}
    out.update({
        "acquisition.propose_batch.calls": mean("acquisition.propose_batch.calls"),
        "acquisition.propose_batch.busy_s": mean("acquisition.propose_batch.busy_s"),
        "acquisition.propose_batch.p50_s": p50("acquisition.propose_batch"),
        "acquisition.propose_batch.s_per_slot": (
            sum(s.duration for s in batches) / slots if slots else 0.0
        ),
        "acquisition.qei_mc.busy_s": mean("acquisition.qei_mc.busy_s"),
        "surrogate.gp_fit.calls": mean("surrogate.gp_fit.calls"),
        "surrogate.gp_fit.busy_s": mean("surrogate.gp_fit.busy_s"),
        "surrogate.gp_fit.first_s": per_run_median("surrogate.gp_fit", "first"),
        "surrogate.gp_fit.last_s": per_run_median("surrogate.gp_fit", "last"),
        "surrogate.gp_fit.jitter_ratio": (
            sum(s.attrs["jitter"] > 0 for s in fits) / len(fits) if fits else 0.0
        ),
        "llm.propose.calls": mean("llm.propose.calls"),
        "llm.propose.busy_s": mean("llm.propose.busy_s"),
        "llm.propose.p50_s": p50("llm.propose"),
        "sampler.top_k.calls": mean("sampler.top_k.calls"),
        "sampler.top_k.busy_s": mean("sampler.top_k.busy_s"),
        "sampler.top_k.last_s": per_run_median("sampler.top_k", "last"),
        "evaluator.calls": mean("evaluator.evaluate.calls"),
        "evaluator.busy_s": mean("evaluator.evaluate.busy_s"),
        "evaluator.us_per_call": (
            1e6 * sum(s.duration for s in evals) / len(evals) if evals else 0.0
        ),
        "evaluator.ok_ratio": (
            sum(s.attrs["ok"] for s in evals) / len(evals) if evals else 0.0
        ),
        "fom.replay.calls": mean("fom.replay.calls"),
        "fom.replay_s": mean("fom.replay_s"),
        "orchestrator.self_s": mean(f"{ROOT_RUN}.own_s"),
        "orchestrator.log_write_s": mean(f"{ROOT_WRITE}.wall_s"),
        "orchestrator.iter_propose_s.p50": median_or_zero(iteration_times),
        "orchestrator.report_parse_s": (
            mean(f"{ROOT_REPORT}.wall_s") - mean("fom.replay_s")
        ),
        "trace.run_s": mean(f"{ROOT_RUN}.wall_s") + mean(f"{ROOT_WRITE}.wall_s"),
    })
    return out


def _root_of(spans: list[Span], index: int) -> int:
    while spans[index].parent is not None:
        index = spans[index].parent
    return index
