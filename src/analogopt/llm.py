"""LLM proposer: chat-completions client, prompt construction, response
parsing with regeneration retries, and deterministic mock clients.

The wire protocol is the standard chat-completions JSON API (fields: model,
messages, temperature, max_tokens). A message is the wire's own
``{"role", "content"}`` dict, from the prompt builders through
:func:`chat_complete` to the run log. Prompt scaffolds and design-principles
text live in plain-text template files under ``templates/`` so domain
experts can edit them without touching code.
"""

from __future__ import annotations

import functools
import json
import logging
import operator
import os
import re
import time
from dataclasses import dataclass
from importlib import resources
from urllib.parse import urlparse

import numpy as np

from .core import ConfigError, DesignPoint, DesignSpace, EvalRecord, from_unit_cube
from .fom import FomConfig

logger = logging.getLogger("analogopt.llm")

_LOCAL_HOSTS = {"localhost", "127.0.0.1", "::1"}


class LlmError(RuntimeError):
    """Base class for proposer-side failures."""


class AuthError(LlmError):
    """The endpoint needs an API key that is missing or rejected."""


class TransportError(LlmError):
    """The endpoint stayed unreachable after transport retries."""


class ProtocolError(LlmError):
    """The endpoint answered with something that is not a chat completion."""


class ParseError(ValueError):
    """A response did not contain a usable design point."""

    def __init__(self, parameter: str, detail: str) -> None:
        super().__init__(detail)
        self.parameter = parameter


class MissingParameter(ParseError):
    def __init__(self, parameter: str) -> None:
        super().__init__(parameter, f"no value found for parameter {parameter!r}")


class NotNumeric(ParseError):
    def __init__(self, parameter: str, raw: str) -> None:
        super().__init__(
            parameter, f"value for {parameter!r} is not a number: {raw!r}"
        )


class OutOfRange(ParseError):
    def __init__(self, parameter: str, value: float, lower: float, upper: float,
                 unit: str) -> None:
        super().__init__(
            parameter,
            f"{parameter} = {value:g} {unit} is outside the allowed range "
            f"[{format_si(lower, unit)}, {format_si(upper, unit)}]".rstrip(),
        )


class PromptBudgetError(ConfigError):
    """A prompt cannot be fit inside the context budget."""


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str = "https://api.openai.com/v1"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.5
    max_tokens: int = 1000
    context_budget: int = 16000  # tokens, estimated as chars / 4
    retry_limit: int = 3
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    transport_attempts: int = 3
    backoff: float = 1.0

    def __post_init__(self) -> None:
        if not self.temperature >= 0:  # NaN fails too
            raise ValueError("temperature must be >= 0")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        if self.transport_attempts < 1:
            raise ValueError("transport_attempts must be >= 1")
        if not self.backoff >= 0:
            raise ValueError("backoff must be >= 0")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.max_tokens < 1 or self.context_budget < 1:
            raise ValueError("max_tokens and context_budget must be >= 1")


@dataclass(frozen=True)
class TaskCard:
    """Everything the proposer knows about the task except the demonstrations.

    A card renders its fixed prompt sections once and keeps them for its own
    lifetime (one run). It also keeps the last iteration prompt it built,
    with the demonstration records and context budget it was built from: a
    call with the same records (the same objects) and budget returns the
    same messages without rendering again.
    """

    space: DesignSpace
    fom: FomConfig
    circuit_text: str
    principles_text: str

    @functools.cached_property
    def _sections(self) -> dict[str, str]:
        """The prompt template fields fixed by the card, by placeholder name."""
        names = ", ".join(self.space.names)
        return {
            "circuit": self.circuit_text.strip(),
            "specs": "\n".join(
                f"- {m.label or m.name}: {m.spec_text()}" for m in self.fom.metrics
            ),
            "principles": self.principles_text.strip(),
            "parameters": "\n".join(
                f"- {p.name}: {format_si(p.lower, p.unit)} to "
                f"{format_si(p.upper, p.unit)}"
                for p in self.space.parameters
            ),
            "format": (
                "Reply with a fenced code block (```) containing one line per "
                "parameter in the form `name = value unit`, for example "
                "`w1 = 2.5 um`. Use exactly these parameter names: "
                f"{names}. Every value must lie inside its allowed range. "
                "Values without a unit are interpreted in SI base units."
            ),
        }

    @functools.cached_property
    def _last_prompt(self) -> list:
        """``[demos, context_budget, messages]`` of the last iteration prompt;
        holding the demo records keeps their ids from being reused."""
        return [(), None, []]


_SI_PREFIXES = (
    ("G", 1e9), ("M", 1e6), ("k", 1e3), ("", 1.0),
    ("m", 1e-3), ("u", 1e-6), ("n", 1e-9), ("p", 1e-12), ("f", 1e-15),
)


def format_si(value: float, unit: str = "") -> str:
    """Engineering-notation rendering, e.g. 2.449e-6 m -> '2.449 um'."""
    if not unit or value == 0 or not np.isfinite(value):
        return f"{value:g}" if not unit else f"{value:g} {unit}"
    mag = abs(value)
    for prefix, factor in _SI_PREFIXES:
        if mag >= factor:
            return f"{value / factor:.4g} {prefix}{unit}"
    prefix, factor = _SI_PREFIXES[-1]
    return f"{value / factor:.4g} {prefix}{unit}"


_UNIT_FACTORS = {
    "": 1.0,
    # length
    "nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0,
    # resistance
    "ohm": 1.0, "ohms": 1.0, "kohm": 1e3, "kohms": 1e3,
    # capacitance
    "ff": 1e-15, "pf": 1e-12, "nf": 1e-9, "uf": 1e-6, "f": 1.0,
    # frequency
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
}

# The value group runs from the first to the last non-space character, or is
# the last space character (other than "\n") when the value is all space: the
# groups of ``(.+?)\s*$``, without a lazy group that retries ``\s*$`` at every
# character of the value.
_LINE_RE = re.compile(
    r"^\s*[-*]?\s*([A-Za-z_][A-Za-z0-9_]*)\s*[=:]\s*(.*\S|[^\S\n])\s*$"
)
_VALUE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S*)$")
_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


def _normalize_unit(raw: str) -> str:
    return (
        raw.strip().rstrip(".,;")
        .replace("µ", "u").replace("μ", "u")  # micro sign / greek mu
        .replace("Ω", "ohm").replace("ω", "ohm")
        .lower()
    )


def parse_blocks(text: str) -> list[str]:
    """All fenced code blocks in a response; the full text if there are none."""
    blocks = [b for b in _FENCE_RE.findall(text) if b.strip()]
    return blocks if blocks else [text]


def parse_response(text: str, space: DesignSpace) -> DesignPoint:
    """Extract one named value per parameter from the instructed block.

    Accepts common unit suffixes (nm, um, kohm, pF, MHz, ...) normalized to
    SI; a bare number is read in SI base units as it is. Parameter names
    match case-insensitively, through the space's cached name map. Succeeds
    only if every parameter is present, numeric, and inside its range; the
    raised error names the offending parameter so the retry message can cite
    it.
    """
    return _parse_block(parse_blocks(text)[-1], space)


def _parse_block(block: str, space: DesignSpace) -> DesignPoint:
    by_name: dict[str, str] = {}
    wanted = space.lower_names
    for line in block.splitlines():
        m = _LINE_RE.match(line)
        if not m:
            continue
        key = m.group(1).lower()
        if key in wanted:
            by_name[wanted[key]] = m.group(2)  # later lines win
    values = []
    for p in space.parameters:
        if p.name not in by_name:
            raise MissingParameter(p.name)
        raw = by_name[p.name].strip().rstrip(".,;")
        vm = _VALUE_RE.match(raw)
        if not vm:
            raise NotNumeric(p.name, raw)
        suffix = vm.group(2)
        unit = _normalize_unit(suffix) if suffix else ""
        if unit not in _UNIT_FACTORS:
            raise NotNumeric(p.name, raw)
        value = float(vm.group(1)) * _UNIT_FACTORS[unit]
        if not p.lower <= value <= p.upper:
            raise OutOfRange(p.name, value, p.lower, p.upper, p.unit)
        values.append(value)
    return DesignPoint(tuple(values))


def estimate_tokens(text: str) -> int:
    """Coarse token estimate (one token per four characters)."""
    return (len(text) + 3) // 4


@functools.cache
def _template(name: str) -> str:
    return resources.files("analogopt.templates").joinpath(name).read_text(
        encoding="utf-8"
    )


def _prompt(
    card: TaskCard, template: str, context_budget: int, **fields
) -> list[dict]:
    """``[system, user]`` from a prompt template, or PromptBudgetError."""
    messages = [
        {"role": "system", "content": _template("system.txt").strip()},
        {"role": "user",
         "content": _template(template).format(**card._sections, **fields)},
    ]
    tokens = sum(estimate_tokens(m["content"]) for m in messages)
    if tokens > context_budget:
        raise PromptBudgetError(
            f"prompt {template} needs {tokens} tokens, over the [llm] "
            f"context_budget of {context_budget}"
        )
    return messages


def build_init_prompt(
    card: TaskCard, n: int, context_budget: int = LlmConfig.context_budget
) -> list[dict]:
    """Zero-shot initialization prompt asking for ``n`` distinct points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _prompt(card, "init_prompt.txt", context_budget, n=n)


def build_iteration_prompt(
    card: TaskCard,
    demos: list[EvalRecord],
    context_budget: int = LlmConfig.context_budget,
) -> list[dict]:
    """Four-step iteration prompt with few-shot demonstrations.

    Demonstrations must be ordered by descending FOM; when the rendered
    prompt would exceed the context budget, the lowest-FOM demonstrations are
    dropped (never below one, and never the format section). An empty demo
    list renders the demonstrations step with a placeholder, which is how the
    no-demonstrations ablation runs. The messages are shared with the card's
    last prompt; the list is fresh on every call.
    """
    last = card._last_prompt
    if context_budget == last[1] and len(demos) == len(last[0]) and all(
        map(operator.is_, demos, last[0])
    ):
        return list(last[2])
    kept = []
    for i, d in enumerate(demos):
        params = ", ".join(
            f"{p.name} = {format_si(v, p.unit)}"
            for p, v in zip(card.space.parameters, d.point.values)
        )
        metrics = ", ".join(
            f"{m.name} = {d.metrics[m.name]:.4g} {m.unit}".rstrip()
            for m in card.fom.metrics
            if m.name in d.metrics
        )
        regions = ", ".join(f"{dev}: {r.value}" for dev, r in d.regions.items())
        lines = [f"Demonstration {i + 1} (FOM = {d.fom:.4g}):",
                 f"  parameters: {params}", f"  metrics: {metrics}"]
        if regions:
            lines.append(f"  operating regions: {regions}")
        kept.append("\n".join(lines))
    while True:
        text = "\n\n".join(kept) or "(no demonstrations are available for this task)"
        try:
            messages = _prompt(card, "iteration_prompt.txt", context_budget, demos=text)
        except PromptBudgetError:
            if len(kept) <= 1:
                raise
            kept.pop()
        else:
            last[:] = (tuple(demos), context_budget, messages)
            return list(messages)


def chat_complete(config: LlmConfig, messages: list[dict]) -> str:
    """One chat completion over the standard JSON wire protocol.

    Transient transport failures (connection errors, timeouts, 429, 5xx) are
    retried with exponential backoff up to ``config.transport_attempts``.
    Auth failures and malformed responses surface immediately as distinct
    errors.
    """
    parsed = urlparse(config.endpoint)
    remote = parsed.hostname not in _LOCAL_HOSTS
    api_key = os.environ.get(config.api_key_env, "")
    if remote and not api_key:
        raise AuthError(
            f"endpoint {config.endpoint} requires an API key; "
            f"set the {config.api_key_env} environment variable"
        )
    url = config.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    payload = {
        "model": config.model,
        "messages": messages,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }

    # Imported here so that runs with a mock client never load the HTTP stack.
    import requests

    for attempt in range(1, config.transport_attempts + 1):
        try:
            response = requests.post(
                url, json=payload, headers=headers, timeout=config.timeout
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = exc
        else:
            status = response.status_code
            if status in (401, 403):
                raise AuthError(f"endpoint rejected the API key ({status})")
            if status != 429 and status < 500:
                break
            last_error = ProtocolError(f"HTTP {status}")
        logger.info("chat attempt %d/%d failed: %s",
                    attempt, config.transport_attempts, last_error)
        if attempt < config.transport_attempts:
            time.sleep(config.backoff * 2 ** (attempt - 1))
    else:
        raise TransportError(
            f"chat completion failed after {config.transport_attempts} attempts: "
            f"{last_error}"
        )
    if status != 200:
        raise ProtocolError(f"unexpected HTTP {status}: {response.text[:200]}")
    try:
        content = response.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed chat completion response: {exc}") from exc
    if not isinstance(content, str) or not content:
        raise ProtocolError("chat completion returned empty content")
    logger.info("chat completed after %d attempt(s)", attempt)
    return content


class HttpLlmClient:
    """Stateless client wrapper around :func:`chat_complete`."""

    def __init__(self, config: LlmConfig) -> None:
        self.config = config

    def complete(self, messages: list[dict]) -> str:
        return chat_complete(self.config, messages)


class ScriptedLlmClient:
    """Deterministic mock that replays canned responses in order.

    The script cycles when exhausted so that long runs stay deterministic
    with short scripts.
    """

    def __init__(self, responses: list[str]) -> None:
        if not responses:
            raise ValueError("script needs at least one response")
        self.responses = list(responses)
        self.calls = 0

    def complete(self, messages: list[dict]) -> str:
        response = self.responses[self.calls % len(self.responses)]
        self.calls += 1
        return response


class RandomPointLlmClient:
    """Mock that emits one uniformly sampled in-range point per call.

    Values are rendered with full precision and no unit suffix, so parsing
    round-trips exactly; the stream is deterministic given the generator.
    """

    def __init__(self, space: DesignSpace, rng: np.random.Generator) -> None:
        self.space = space
        self.rng = rng
        self.calls = 0

    def complete(self, messages: list[dict]) -> str:
        self.calls += 1
        point = from_unit_cube(self.space, self.rng.uniform(size=self.space.dimension))
        lines = "\n".join(
            f"{name} = {value!r}"
            for name, value in zip(self.space.names, point.values)
        )
        return f"Proposed design point:\n```\n{lines}\n```"


def _read_text(path: str) -> str:
    """A UTF-8 text file's contents; other bytes are a ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason}") from exc


def load_script(path: str) -> list[str]:
    """Load a mock script: a JSON array of strings, or text split on `---` lines."""
    text = _read_text(path)
    if path.endswith(".json"):
        try:
            script = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
            raise ConfigError(f"{path}: expected a JSON array of strings")
        if "" in script:
            raise ConfigError(f"{path}: response {script.index('')} is empty")
    else:
        parts = re.split(r"(?m)^---\s*$", text)
        script = [p.strip() for p in parts if p.strip()]
    if not script:
        raise ConfigError(f"{path}: script contains no responses")
    return script


def _corrective_message(error: ParseError, card: TaskCard) -> dict:
    return {
        "role": "user",
        "content": f"Your previous response was not usable: {error}. "
        "Reply again with a single fenced code block containing one "
        "`name = value unit` line for every parameter, all inside the "
        "allowed ranges:\n" + card._sections["parameters"],
    }


def _ask(
    client, transcript: list[dict], card: TaskCard, retry_limit: int
) -> tuple[DesignPoint | None, ParseError | None]:
    """Complete and parse, up to ``retry_limit`` times, growing ``transcript``.

    Each reply is appended; each unusable one is followed by a corrective
    message naming the violation. Returns the accepted point (None when every
    attempt failed) and the last parse error seen (None when there was none).
    """
    error = None
    for _ in range(retry_limit):
        text = client.complete(list(transcript))
        transcript.append({"role": "assistant", "content": text})
        try:
            return parse_response(text, card.space), error
        except ParseError as exc:
            error = exc
        logger.info("proposal rejected: %s", error)
        transcript.append(_corrective_message(error, card))
    return None, error


def propose(
    client,
    card: TaskCard,
    demos: list[EvalRecord],
    config: LlmConfig,
) -> tuple[DesignPoint | None, list[dict]]:
    """One accepted design point plus the full conversation transcript.

    Each unusable response appends a corrective message naming the violation
    and retries, up to ``config.retry_limit`` completions in total. The point
    is None when every completion was unusable.
    """
    transcript = build_iteration_prompt(card, demos, config.context_budget)
    point, _ = _ask(client, transcript, card, config.retry_limit)
    return point, transcript


def propose_init(
    client,
    card: TaskCard,
    n: int,
    config: LlmConfig,
) -> tuple[list[DesignPoint], list[dict]]:
    """Zero-shot initialization: ``n`` points from one completion.

    The first completion is parsed block by block; missing or unusable
    members are re-requested individually, each with the configured retry
    budget. When a member cannot be obtained, the points parsed so far are
    returned: fewer than ``n``.
    """
    transcript = build_init_prompt(card, n, config.context_budget)
    text = client.complete(list(transcript))
    transcript.append({"role": "assistant", "content": text})
    points: list[DesignPoint] = []
    last_error: ParseError | None = None
    for block in parse_blocks(text):
        if len(points) == n:
            break
        try:
            points.append(_parse_block(block, card.space))
        except ParseError as error:
            last_error = error

    while len(points) < n:
        detail = f" ({last_error})" if last_error else ""
        transcript.append({
            "role": "user",
            "content": f"You have provided {len(points)} of {n} valid design "
            f"points so far{detail}. Provide exactly one more distinct design "
            "point in a single fenced code block, one `name = value unit` line "
            "per parameter, all inside the allowed ranges:\n"
            + card._sections["parameters"],
        })
        point, error = _ask(client, transcript, card, config.retry_limit)
        last_error = error or last_error
        if point is None:
            break
        points.append(point)
    return points, transcript
