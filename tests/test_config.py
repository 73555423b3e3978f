"""The preset table, and the INI loader: every accepted key, and the inputs it
must reject."""

import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from analogopt.acquisition import AcquisitionConfig
from analogopt.config import (
    _TARGETS,
    INI_KEYS,
    METHODS,
    PRESETS,
    RunConfig,
    build_model,
    build_task_card,
    load_run_config,
)
from analogopt.core import ConfigError
from analogopt.fom import FOM_PRESETS
from analogopt.llm import LlmConfig
from analogopt.orchestrator import run
from analogopt.surrogate import GpFitConfig

# Every accepted key, each set to a value that differs from its default.
FULL_INI = """
[run]
method = ado_llm
preset = comparator
n_init = 7
n_iter = 3
llm_queries_per_step = 2
gp_queries_per_step = 3
init_strategy = uniform_random
seed = 11
out = runs/full.jsonl

[llm]
endpoint = http://localhost:8080/v1
model = local-model
temperature = 0.25
max_tokens = 512
context_budget = 9000
retry_limit = 5
api_key_env = LOCAL_KEY
timeout = 12.5
transport_attempts = 4
backoff = 0.5
mock = script.txt
principles_file = principles.txt

[acquisition]
mc_samples = 99
restarts = 3
raw_candidates = 77
maxiter = 21
gp_restarts = 4
gp_maxiter = 33

[sampler]
kind = uniform
k = 3
"""


def _load(tmp_path, text, **overrides):
    path = tmp_path / "exp.ini"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return load_run_config(str(path), **overrides)


def test_every_ini_key_sets_its_field(tmp_path):
    config = _load(tmp_path, FULL_INI)
    assert config.method == "ado_llm"
    assert config.preset == "comparator"
    assert config.n_init == 7
    assert config.n_iter == 3
    assert config.llm_queries_per_step == 2
    assert config.gp_queries_per_step == 3
    assert config.init_strategy == "uniform_random"
    assert config.sampler_kind == "uniform"
    assert config.sampler_k == 3
    assert config.seed == 11
    assert config.out == "runs/full.jsonl"
    assert config.mock == "script.txt"
    assert config.principles_file == "principles.txt"
    assert config.llm == LlmConfig(
        endpoint="http://localhost:8080/v1", model="local-model",
        temperature=0.25, max_tokens=512, context_budget=9000, retry_limit=5,
        api_key_env="LOCAL_KEY", timeout=12.5, transport_attempts=4, backoff=0.5,
    )
    assert config.acquisition == AcquisitionConfig(
        mc_samples=99, restarts=3, raw_candidates=77, maxiter=21,
    )
    assert config.gp_fit == GpFitConfig(restarts=4, maxiter=33)
    # integer and float fields hold the converted type, not the INI string
    assert type(config.n_init) is int and type(config.llm.timeout) is float


def test_every_config_field_has_an_ini_key():
    # A field only Python can set would grow the config unseen.
    keys = [key for section in INI_KEYS.values() for key in section.values()]
    assert len(set(keys)) == len(keys)  # no two keys set one field
    fields = {
        (target, f.name)
        for target, cls in _TARGETS.items()
        for f in dataclasses.fields(cls)
        if f.name not in _TARGETS
    }
    assert set(keys) == fields


def test_keyword_overrides_win_over_the_file(tmp_path):
    config = _load(
        tmp_path, FULL_INI, seed=9, out="other.jsonl", mock="random",
        init_strategy="llm_zero_shot",
    )
    assert (config.seed, config.out, config.mock) == (9, "other.jsonl", "random")
    assert config.init_strategy == "llm_zero_shot"
    # the method's default query split and initialization follow the override
    config = _load(tmp_path, _RUN, method="gp_bo", preset="branin")
    assert (config.method, config.preset) == ("gp_bo", "branin")
    assert (config.llm_queries_per_step, config.gp_queries_per_step) == (0, 5)
    assert config.init_strategy == "uniform_random"


def test_method_sets_the_default_query_split_and_init(tmp_path):
    for method, split, init in (
        ("ado_llm", (1, 4), "llm_zero_shot"),
        ("gp_bo", (0, 5), "uniform_random"),
        ("llm_only", (1, 0), "llm_zero_shot"),
    ):
        config = _load(tmp_path, f"[run]\nmethod = {method}\npreset = amp2\n")
        assert (config.llm_queries_per_step, config.gp_queries_per_step) == split
        assert config.init_strategy == init


@pytest.mark.parametrize("method", METHODS)
def test_a_python_config_takes_the_ini_defaults_of_its_method(tmp_path, method):
    text = f"[run]\nmethod = {method}\npreset = amp2\n"
    assert RunConfig(method=method, preset="amp2") == _load(tmp_path, text)
    short = dict(n_iter=0, mock="random")
    headers = [
        run(config).text().splitlines()[0]
        for config in (
            RunConfig(method=method, preset="amp2", **short),
            _load(tmp_path, text, **short),
        )
    ]
    assert headers[0] == headers[1]


_RUN = "[run]\nmethod = ado_llm\npreset = amp2\n"
_ALLOWED_RUN = (
    "['gp_queries_per_step', 'init_strategy', 'llm_queries_per_step', "
    "'method', 'n_init', 'n_iter', 'out', 'preset', 'seed']"
)
_ALLOWED_LLM = (
    "['api_key_env', 'backoff', 'context_budget', 'endpoint', 'max_tokens', "
    "'mock', 'model', 'principles_file', 'retry_limit', 'temperature', "
    "'timeout', 'transport_attempts']"
)
_ALLOWED_ACQ = (
    "['gp_maxiter', 'gp_restarts', 'maxiter', 'mc_samples', 'raw_candidates', "
    "'restarts']"
)
_ALLOWED_SECTIONS = "['acquisition', 'llm', 'run', 'sampler']"

# (INI text or bytes, the ConfigError message; {path} is the file's path)
MALFORMED = {
    "unknown_run_key": (
        _RUN + "batchsize = 4\n",
        f"unknown key(s) in [run]: ['batchsize']; allowed: {_ALLOWED_RUN}",
    ),
    "unknown_llm_key": (
        _RUN + "[llm]\nseed = 3\n",
        f"unknown key(s) in [llm]: ['seed']; allowed: {_ALLOWED_LLM}",
    ),
    "unknown_acquisition_key": (
        _RUN + "[acquisition]\nbatch_size = 4\nseed = 1\n",
        "unknown key(s) in [acquisition]: ['batch_size', 'seed']; "
        f"allowed: {_ALLOWED_ACQ}",
    ),
    "unknown_sampler_key": (
        _RUN + "[sampler]\nsampler_k = 3\n",
        "unknown key(s) in [sampler]: ['sampler_k']; allowed: ['k', 'kind']",
    ),
    "unknown_section": (
        _RUN + "[acqusition]\nmc_samples = 99\n",
        f"unknown section(s): ['acqusition']; allowed: {_ALLOWED_SECTIONS}",
    ),
    # The process constants belong to the preset and the GP noise floor is a
    # constant: the section and the key that once set them are unknown.
    "non_positive_constant": (
        _RUN + "[evaluator]\nconstants.vdd = 0\n",
        f"unknown section(s): ['evaluator']; allowed: {_ALLOWED_SECTIONS}",
    ),
    "zero_noise_floor": (
        _RUN + "[acquisition]\nnoise_floor = 0\n",
        f"unknown key(s) in [acquisition]: ['noise_floor']; allowed: {_ALLOWED_ACQ}",
    ),
    "fractional_n_iter": (
        _RUN + "n_iter = 2.5\n",
        "{path}: invalid literal for int() with base 10: '2.5'",
    ),
    "non_numeric_temperature": (
        _RUN + "[llm]\ntemperature = hot\n",
        "{path}: could not convert string to float: 'hot'",
    ),
    "missing_method": (
        "[run]\npreset = amp2\n",
        "[run] must set both method and preset",
    ),
    "missing_run_section": (
        "[llm]\nmock = random\n",
        "config file needs a [run] section",
    ),
    "unknown_method": (
        "[run]\nmethod = annealing\npreset = amp2\n",
        "unknown method 'annealing'; expected ('ado_llm', 'gp_bo', 'llm_only')",
    ),
    "unknown_preset": (
        "[run]\nmethod = ado_llm\npreset = opamp\n",
        "unknown preset 'opamp'; expected ('amp2', 'comparator', 'branin')",
    ),
    "unknown_init_strategy": (
        _RUN + "init_strategy = grid\n",
        "unknown init_strategy 'grid'",
    ),
    "unknown_sampler_kind": (
        _RUN + "[sampler]\nkind = best\n",
        "unknown sampler kind 'best'",
    ),
    "zero_n_init": (
        _RUN + "n_init = 0\n",
        "n_init must be >= 1 and n_iter >= 0",
    ),
    "negative_n_iter": (
        _RUN + "n_iter = -1\n",
        "n_init must be >= 1 and n_iter >= 0",
    ),
    "zero_mc_samples": (
        _RUN + "[acquisition]\nmc_samples = 0\n",
        "{path}: mc_samples must be >= 1",
    ),
    "zero_gp_restarts": (
        _RUN + "[acquisition]\ngp_restarts = 0\n",
        "{path}: restarts must be >= 1",
    ),
    "zero_retry_limit": (
        _RUN + "[llm]\nretry_limit = 0\n",
        "{path}: retry_limit must be >= 1",
    ),
    "negative_temperature": (
        _RUN + "[llm]\ntemperature = -1\n",
        "{path}: temperature must be >= 0",
    ),
    "zero_restarts": (
        _RUN + "[acquisition]\nrestarts = 0\n",
        "{path}: restarts must be >= 1",
    ),
    "negative_gp_maxiter": (
        _RUN + "[acquisition]\ngp_maxiter = -1\n",
        "{path}: maxiter must be >= 0",
    ),
    "zero_raw_candidates": (
        _RUN + "[acquisition]\nraw_candidates = 0\n",
        "{path}: raw_candidates must be >= 1",
    ),
    "negative_maxiter": (
        _RUN + "[acquisition]\nmaxiter = -1\n",
        "{path}: maxiter must be >= 0",
    ),
    "gp_bo_with_llm_queries": (
        "[run]\nmethod = gp_bo\npreset = amp2\nllm_queries_per_step = 1\n",
        "gp_bo runs with llm_queries_per_step = 0, got 1",
    ),
    "llm_only_with_gp_queries": (
        "[run]\nmethod = llm_only\npreset = amp2\ngp_queries_per_step = 2\n",
        "llm_only runs with gp_queries_per_step = 0, got 2",
    ),
    "ado_llm_without_gp_queries": (
        _RUN + "gp_queries_per_step = 0\n",
        "ado_llm runs with gp_queries_per_step >= 1, got 0",
    ),
    "negative_llm_queries": (
        "[run]\nmethod = gp_bo\npreset = amp2\nllm_queries_per_step = -1\n",
        "gp_bo runs with llm_queries_per_step = 0, got -1",
    ),
    "zero_sampler_k": (
        _RUN + "[sampler]\nk = 0\n",
        "[sampler] k must be >= 1",
    ),
    "zero_transport_attempts": (
        _RUN + "[llm]\ntransport_attempts = 0\n",
        "{path}: transport_attempts must be >= 1",
    ),
    "negative_backoff": (
        _RUN + "[llm]\nbackoff = -1\n",
        "{path}: backoff must be >= 0",
    ),
    "negative_seed": (
        _RUN + "seed = -3\n",
        "seed must be >= 0, got -3",
    ),
    "zero_timeout": (
        _RUN + "[llm]\ntimeout = 0\n",
        "{path}: timeout must be > 0",
    ),
    "nan_timeout": (
        _RUN + "[llm]\ntimeout = nan\n",
        "{path}: timeout must be > 0",
    ),
    "nan_backoff": (
        _RUN + "[llm]\nbackoff = nan\n",
        "{path}: backoff must be >= 0",
    ),
    "nan_temperature": (
        _RUN + "[llm]\ntemperature = nan\n",
        "{path}: temperature must be >= 0",
    ),
    "zero_max_tokens": (
        _RUN + "[llm]\nmax_tokens = 0\n",
        "{path}: max_tokens and context_budget must be >= 1",
    ),
    "zero_context_budget": (
        _RUN + "[llm]\ncontext_budget = 0\n",
        "{path}: max_tokens and context_budget must be >= 1",
    ),
    "no_section_header": (
        "method = ado_llm\n" + _RUN,
        "{path}: File contains no section headers.\n"
        "file: '{path}', line: 1\n'method = ado_llm\\n'",
    ),
    "repeated_run_section": (
        _RUN + "[run]\nseed = 1\n",
        "{path}: While reading from '{path}' [line  4]: "
        "section 'run' already exists",
    ),
    "repeated_key": (
        _RUN + "seed = 1\nseed = 2\n",
        "{path}: While reading from '{path}' [line  5]: "
        "option 'seed' in section 'run' already exists",
    ),
    "not_utf8": (
        _RUN.encode("utf-8") + b"[llm]\nmodel = gpt\xb5\n",
        "{path}: 'utf-8' codec can't decode byte 0xb5 in position 54: "
        "invalid start byte",
    ),
}


@pytest.mark.parametrize("text, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_ini_raises_config_error(tmp_path, text, message):
    with pytest.raises(ConfigError) as excinfo:
        _load(tmp_path, text)
    assert str(excinfo.value) == message.format(path=tmp_path / "exp.ini")


def test_ini_values_are_read_literally(tmp_path):
    config = _load(tmp_path, _RUN + "[llm]\nmodel = gpt%4\napi_key_env = %(KEY)s\n")
    assert (config.llm.model, config.llm.api_key_env) == ("gpt%4", "%(KEY)s")


def test_zero_maxiter_stays_legal(tmp_path):
    config = _load(tmp_path, _RUN + "[acquisition]\nmaxiter = 0\ngp_maxiter = 0\n")
    assert config.acquisition.maxiter == 0
    assert config.gp_fit.maxiter == 0


def test_readme_ini_block_loads_and_documents_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    config = _load(tmp_path, block)
    assert (config.method, config.preset) == ("ado_llm", "amp2")
    documented = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    documented.read_string(block)
    for section, keys in INI_KEYS.items():
        assert set(documented[section]) == set(keys), section


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_has_a_model_a_fom_and_both_templates(preset):
    config = RunConfig(method="ado_llm", preset=preset)
    model = build_model(config)
    assert model.fom is FOM_PRESETS[preset]
    card = build_task_card(config, model)
    assert card.circuit_text.strip() and card.principles_text.strip()
