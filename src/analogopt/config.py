"""Experiment configuration: named presets and the INI config file format.

The config file uses sections [run], [llm], [acquisition] and [sampler].
Presets bundle a circuit model (design space, solver, FOM definition; the
evaluator builds each once, at import) with the task-card text templates.
The process is the evaluator's module constants and a run sets none of
them, so a log's ``preset`` names the circuit it evaluated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .acquisition import AcquisitionConfig
from .core import ConfigError
from .evaluator import CircuitModel, circuit_model
from .fom import FOM_PRESETS
from .llm import LlmConfig, TaskCard, _read_text, _template
from .surrogate import GpFitConfig

# Each method's protocol: (llm_queries_per_step, gp_queries_per_step,
# init_strategy). A RunConfig takes the row's values for the fields it leaves
# unset, and a count the row has at 0 must stay 0, one it has >= 1 stay >= 1.
METHODS = {
    "ado_llm": (1, 4, "llm_zero_shot"),
    "gp_bo": (0, 5, "uniform_random"),
    "llm_only": (1, 0, "llm_zero_shot"),
}
INIT_STRATEGIES = ("llm_zero_shot", "uniform_random")
SAMPLER_KINDS = ("top_k", "uniform", "none")
PRESETS = tuple(FOM_PRESETS)
_PROTOCOL = ("llm_queries_per_step", "gp_queries_per_step", "init_strategy")


@dataclass(frozen=True)
class RunConfig:
    method: str
    preset: str
    n_init: int = 5
    n_iter: int = 20
    llm_queries_per_step: int | None = None
    gp_queries_per_step: int | None = None
    init_strategy: str | None = None
    sampler_kind: str = "top_k"
    sampler_k: int = 5
    seed: int = 0
    out: str | None = None
    mock: str | None = None
    principles_file: str | None = None
    llm: LlmConfig = field(default_factory=LlmConfig)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    gp_fit: GpFitConfig = field(default_factory=GpFitConfig)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected {tuple(METHODS)}"
            )
        row = METHODS[self.method]
        for name, default in zip(_PROTOCOL, row):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; expected {PRESETS}")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ConfigError(f"unknown init_strategy {self.init_strategy!r}")
        if self.sampler_kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler kind {self.sampler_kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_init < 1 or self.n_iter < 0:
            raise ConfigError("n_init must be >= 1 and n_iter >= 0")
        if self.sampler_k < 1:
            raise ConfigError("[sampler] k must be >= 1")
        for name, default in zip(_PROTOCOL[:2], row):
            count = getattr(self, name)
            if count < 0 or (count >= 1) != (default >= 1):
                need = ">= 1" if default else "= 0"
                raise ConfigError(f"{self.method} runs with {name} {need}, got {count}")

    @property
    def batch_size(self) -> int:
        return self.llm_queries_per_step + self.gp_queries_per_step

    @property
    def total_evaluations(self) -> int:
        return self.n_init + self.batch_size * self.n_iter


def build_model(config: RunConfig) -> CircuitModel:
    return circuit_model(config.preset)


def build_task_card(config: RunConfig, model: CircuitModel) -> TaskCard:
    if config.principles_file:
        principles_text = _read_text(config.principles_file)
    else:
        principles_text = _template(f"principles_{config.preset}.txt")
    return TaskCard(
        space=model.space,
        fom=model.fom,
        circuit_text=_template(f"circuit_{config.preset}.txt"),
        principles_text=principles_text,
    )


# The dataclass behind each INI target; "run" is RunConfig itself.
_TARGETS = {
    "llm": LlmConfig,
    "acquisition": AcquisitionConfig,
    "gp_fit": GpFitConfig,
    "run": RunConfig,
}


def _same_name(target: str, skip=()) -> dict:
    """A key named after each field of ``target`` except ``skip``."""
    fields = dataclasses.fields(_TARGETS[target])
    return {f.name: (target, f.name) for f in fields if f.name not in skip}


# section -> INI key -> (target, field). Only the keys that rename a field or
# set one of another target are written out.
INI_KEYS = {
    # [run] sets neither the nested configs nor the fields other sections set.
    "run": _same_name(
        "run", skip=(*_TARGETS, "sampler_kind", "sampler_k", "mock", "principles_file")
    ),
    "llm": {
        **_same_name("llm"),
        "mock": ("run", "mock"),
        "principles_file": ("run", "principles_file"),
    },
    "acquisition": {
        **_same_name("acquisition"),
        "gp_restarts": ("gp_fit", "restarts"),
        "gp_maxiter": ("gp_fit", "maxiter"),
    },
    "sampler": {"kind": ("run", "sampler_kind"), "k": ("run", "sampler_k")},
}


def load_run_config(path: str, **overrides) -> RunConfig:
    """Parse a UTF-8 INI experiment file; keyword overrides win over file
    values. Values are read literally: ``%`` does not interpolate."""
    import configparser  # only an INI file needs it; a Python RunConfig does not

    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path!r}")
        return _from_parser(parser, overrides)
    except (ValueError, KeyError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _check_section(name: str, section) -> None:
    allowed = INI_KEYS[name]
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{name}]: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _convert(cls, name: str, raw):
    """INI text as its field's declared type: int and float fields (optional
    or not) convert, text stays."""
    declared = cls.__dataclass_fields__[name].type.split(" | ")[0]
    kind = {"int": int, "float": float}.get(declared)
    return kind(raw) if kind else raw


def _from_parser(parser: configparser.ConfigParser, overrides: dict) -> RunConfig:
    if "run" not in parser:
        raise ConfigError("config file needs a [run] section")
    unknown = [name for name in parser.sections() if name not in INI_KEYS]
    if unknown:
        raise ConfigError(
            f"unknown section(s): {unknown}; allowed: {sorted(INI_KEYS)}"
        )
    sections = {name: parser[name] for name in INI_KEYS if name in parser}
    for name, section in sections.items():
        _check_section(name, section)
    raw: dict[str, dict] = {target: {} for target in _TARGETS}
    for name, section in sections.items():
        for key, value in section.items():
            target, field_name = INI_KEYS[name][key]
            raw[target][field_name] = value
    raw["run"].update(overrides)
    if not raw["run"].get("method") or not raw["run"].get("preset"):
        raise ConfigError("[run] must set both method and preset")

    # Nested configs first, each validating itself; RunConfig takes them all.
    built = {}
    for target, cls in _TARGETS.items():
        values = {name: _convert(cls, name, v) for name, v in raw[target].items()}
        built[target] = cls(**values, **(built if target == "run" else {}))
    return built["run"]
