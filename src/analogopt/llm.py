"""LLM proposer: chat-completions client, prompt construction, response
parsing with regeneration retries, and deterministic mock clients.

The wire protocol is the standard chat-completions JSON API (fields: model,
messages, temperature, max_tokens). Prompt scaffolds and design-principles
text live in plain-text template files under ``templates/`` so domain
experts can edit them without touching code.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from importlib import resources
from urllib.parse import urlparse

import numpy as np
import requests

from .core import DesignPoint, DesignSpace, Region
from .fom import FomConfig
from .surrogate import from_unit_cube

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
        self.value = value


class ProposerExhausted(LlmError):
    """Every regeneration attempt produced an unusable response."""

    def __init__(self, transcript, partial=()):
        super().__init__("proposer retries exhausted")
        self.transcript = list(transcript)
        self.partial = list(partial)


class PromptBudgetError(ValueError):
    """A prompt cannot be fit inside the context budget."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown role {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


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
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")


@dataclass(frozen=True)
class TaskCard:
    """Everything the proposer knows about the task except the demonstrations.

    A card renders its fixed prompt sections once, and each demonstration
    body once, and keeps both for its own lifetime (one run).
    """

    name: str
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

    def spec_lines(self) -> str:
        return self._sections["specs"]

    def parameter_lines(self) -> str:
        return self._sections["parameters"]

    def format_lines(self) -> str:
        return self._sections["format"]

    @functools.cached_property
    def _demo_bodies(self) -> dict:
        return {}

    def _demo_body(self, demo: Demonstration) -> str:
        """A demonstration's parameter, metric and region lines, rendered once."""
        key = (
            demo.point, demo.fom,
            tuple(demo.metrics.items()), tuple(demo.regions.items()),
        )
        body = self._demo_bodies.get(key)
        if body is None:
            body = self._demo_bodies[key] = _render_demo_body(demo, self)
        return body


@dataclass(frozen=True)
class Demonstration:
    """An evaluated record rendered verbatim as a few-shot example."""

    point: DesignPoint
    metrics: dict[str, float]
    regions: dict[str, Region]
    fom: float

    @classmethod
    def from_record(cls, record) -> "Demonstration":
        return cls(
            point=record.point,
            metrics=dict(record.metrics),
            regions=dict(record.regions),
            fom=record.fom,
        )


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

_LINE_RE = re.compile(r"^\s*[-*]?\s*([A-Za-z_][A-Za-z0-9_]*)\s*[=:]\s*(.+?)\s*$")
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
    SI. Succeeds only if every parameter is present, numeric, and inside its
    range; the raised error names the offending parameter so the retry
    message can cite it.
    """
    return _parse_block(parse_blocks(text)[-1], space)


def _parse_block(block: str, space: DesignSpace) -> DesignPoint:
    by_name: dict[str, str] = {}
    wanted = {p.name.lower(): p.name for p in space.parameters}
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
        unit = _normalize_unit(vm.group(2))
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


def _render_demo_body(demo: Demonstration, card: TaskCard) -> str:
    params = ", ".join(
        f"{p.name} = {format_si(v, p.unit)}"
        for p, v in zip(card.space.parameters, demo.point.values)
    )
    metrics = ", ".join(
        f"{m.name} = {demo.metrics[m.name]:.4g} {m.unit}".rstrip()
        for m in card.fom.metrics
        if m.name in demo.metrics
    )
    regions = ", ".join(f"{d}: {r.value}" for d, r in demo.regions.items())
    lines = [f"  parameters: {params}", f"  metrics: {metrics}"]
    if regions:
        lines.append(f"  operating regions: {regions}")
    return "\n".join(lines)


def _render_demo(index: int, demo: Demonstration, card: TaskCard) -> str:
    # Only this header depends on the demonstration's rank.
    return f"Demonstration {index} (FOM = {demo.fom:.4g}):\n" + card._demo_body(demo)


def _messages_tokens(messages: list[ChatMessage]) -> int:
    return sum(estimate_tokens(m.content) for m in messages)


def build_init_prompt(
    card: TaskCard, n: int, context_budget: int = 16000
) -> list[ChatMessage]:
    """Zero-shot initialization prompt asking for ``n`` distinct points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    body = _template("init_prompt.txt").format(**card._sections, n=n)
    messages = [
        ChatMessage("system", _template("system.txt").strip()),
        ChatMessage("user", body),
    ]
    if _messages_tokens(messages) > context_budget:
        raise PromptBudgetError(
            f"initialization prompt exceeds the {context_budget}-token budget"
        )
    return messages


def build_iteration_prompt(
    card: TaskCard,
    demos: list[Demonstration],
    context_budget: int = 16000,
) -> list[ChatMessage]:
    """Four-step iteration prompt with few-shot demonstrations.

    Demonstrations must be ordered by descending FOM; when the rendered
    prompt would exceed the context budget, the lowest-FOM demonstrations are
    dropped (never below one, and never the format section). An empty demo
    list renders the demonstrations step with a placeholder, which is how the
    no-demonstrations ablation runs.
    """
    template = _template("iteration_prompt.txt")
    system = ChatMessage("system", _template("system.txt").strip())
    kept = list(demos)

    def render(current: list[Demonstration]) -> list[ChatMessage]:
        if current:
            demo_text = "\n\n".join(
                _render_demo(i + 1, d, card) for i, d in enumerate(current)
            )
        else:
            demo_text = "(no demonstrations are available for this task)"
        body = template.format(**card._sections, demos=demo_text)
        return [system, ChatMessage("user", body)]

    messages = render(kept)
    while _messages_tokens(messages) > context_budget and len(kept) > 1:
        kept = kept[:-1]
        messages = render(kept)
    if _messages_tokens(messages) > context_budget:
        raise PromptBudgetError(
            f"iteration prompt exceeds the {context_budget}-token budget"
        )
    return messages


def chat_complete(config: LlmConfig, messages: list[ChatMessage]) -> str:
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
        "messages": [{"role": m.role, "content": m.content} for m in messages],
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }

    last_error: Exception | None = None
    for attempt in range(1, config.transport_attempts + 1):
        try:
            response = requests.post(
                url, json=payload, headers=headers, timeout=config.timeout
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = exc
            logger.info("chat attempt %d/%d failed: %s",
                        attempt, config.transport_attempts, exc)
            if attempt < config.transport_attempts:
                time.sleep(config.backoff * 2 ** (attempt - 1))
            continue
        if response.status_code in (401, 403):
            raise AuthError(f"endpoint rejected the API key ({response.status_code})")
        if response.status_code == 429 or response.status_code >= 500:
            last_error = ProtocolError(f"HTTP {response.status_code}")
            logger.info("chat attempt %d/%d got HTTP %d",
                        attempt, config.transport_attempts, response.status_code)
            if attempt < config.transport_attempts:
                time.sleep(config.backoff * 2 ** (attempt - 1))
            continue
        if response.status_code != 200:
            raise ProtocolError(
                f"unexpected HTTP {response.status_code}: {response.text[:200]}"
            )
        try:
            data = response.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat completion response: {exc}") from exc
        if not isinstance(content, str) or not content:
            raise ProtocolError("chat completion returned empty content")
        logger.info("chat completed after %d attempt(s)", attempt)
        return content
    raise TransportError(
        f"chat completion failed after {config.transport_attempts} attempts: "
        f"{last_error}"
    )


class HttpLlmClient:
    """Stateless client wrapper around :func:`chat_complete`."""

    def __init__(self, config: LlmConfig) -> None:
        self.config = config

    def complete(self, messages: list[ChatMessage]) -> str:
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

    def complete(self, messages: list[ChatMessage]) -> str:
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

    def complete(self, messages: list[ChatMessage]) -> str:
        self.calls += 1
        point = from_unit_cube(self.space, self.rng.uniform(size=self.space.dimension))
        lines = "\n".join(
            f"{name} = {value!r}"
            for name, value in zip(self.space.names, point.values)
        )
        return f"Proposed design point:\n```\n{lines}\n```"


def load_script(path: str) -> list[str]:
    """Load a mock script: a JSON array of strings, or text split on `---` lines."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".json"):
        data = json.loads(text)
        if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
            raise ValueError(f"{path}: expected a JSON array of strings")
        return data
    parts = re.split(r"(?m)^---\s*$", text)
    responses = [p.strip() for p in parts if p.strip()]
    if not responses:
        raise ValueError(f"{path}: script contains no responses")
    return responses


def _corrective_message(error: ParseError, card: TaskCard) -> ChatMessage:
    return ChatMessage(
        "user",
        f"Your previous response was not usable: {error}. "
        "Reply again with a single fenced code block containing one "
        "`name = value unit` line for every parameter, all inside the "
        "allowed ranges:\n" + card.parameter_lines(),
    )


def propose(
    client,
    card: TaskCard,
    demos: list[Demonstration],
    space: DesignSpace,
    config: LlmConfig,
) -> tuple[DesignPoint, list[ChatMessage]]:
    """One accepted design point plus the full conversation transcript.

    Each unusable response appends a corrective message naming the violation
    and retries, up to ``config.retry_limit`` completions in total.
    """
    messages = build_iteration_prompt(card, demos, config.context_budget)
    transcript = list(messages)
    for _ in range(config.retry_limit):
        text = client.complete(messages)
        transcript.append(ChatMessage("assistant", text))
        try:
            point = parse_response(text, space)
        except ParseError as error:
            logger.info("proposal rejected: %s", error)
            corrective = _corrective_message(error, card)
            messages = transcript + [corrective]
            transcript = list(messages)
            continue
        return point, transcript
    raise ProposerExhausted(transcript)


def propose_init(
    client,
    card: TaskCard,
    n: int,
    space: DesignSpace,
    config: LlmConfig,
) -> tuple[list[DesignPoint], list[ChatMessage]]:
    """Zero-shot initialization: ``n`` points from one completion.

    The first completion is parsed block by block; missing or unusable
    members are re-requested individually, each with the configured retry
    budget. Raises :class:`ProposerExhausted` (carrying any parsed points)
    when a member cannot be obtained.
    """
    messages = build_init_prompt(card, n, config.context_budget)
    transcript = list(messages)
    text = client.complete(messages)
    transcript.append(ChatMessage("assistant", text))
    points: list[DesignPoint] = []
    last_error: ParseError | None = None
    for block in parse_blocks(text):
        if len(points) == n:
            break
        try:
            points.append(_parse_block(block, space))
        except ParseError as error:
            last_error = error

    while len(points) < n:
        detail = f" ({last_error})" if last_error else ""
        request = ChatMessage(
            "user",
            f"You have provided {len(points)} of {n} valid design points so "
            f"far{detail}. Provide exactly one more distinct design point in "
            "a single fenced code block, one `name = value unit` line per "
            "parameter, all inside the allowed ranges:\n"
            + card.parameter_lines(),
        )
        transcript.append(request)
        accepted = False
        for _ in range(config.retry_limit):
            text = client.complete(transcript)
            transcript.append(ChatMessage("assistant", text))
            try:
                points.append(parse_response(text, space))
                accepted = True
                break
            except ParseError as error:
                last_error = error
                transcript.append(_corrective_message(error, card))
        if not accepted:
            raise ProposerExhausted(transcript, partial=points)
    return points, transcript
