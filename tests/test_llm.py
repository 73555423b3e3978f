import re
import socket
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analogopt import llm
from analogopt.config import RunConfig, build_model, build_task_card
from analogopt.core import DesignPoint, design_space_contains
from analogopt.evaluator import evaluate
from analogopt.llm import (
    AuthError,
    LlmConfig,
    MissingParameter,
    NotNumeric,
    OutOfRange,
    PromptBudgetError,
    ProtocolError,
    RandomPointLlmClient,
    ScriptedLlmClient,
    TransportError,
    build_init_prompt,
    build_iteration_prompt,
    chat_complete,
    estimate_tokens,
    format_si,
    load_script,
    parse_response,
    propose,
    propose_init,
)

from conftest import chat_body


@pytest.fixture(scope="module")
def amp2():
    config = RunConfig(method="ado_llm", preset="amp2", mock="random")
    model = build_model(config)
    return model, build_task_card(config, model)


GOOD_BLOCK = """Reasoning about trade-offs first.
```
w1 = 2.5 um
l1 = 500 nm
w3 = 1 um
l3 = 0.2 um
w5 = 3 um
l5 = 0.3 um
w6 = 10um
l6 = 200 nm
w7 = 5 um
l7 = 0.5 um
wb = 1 um
lb = 0.4 um
rz = 4.7 kohm
cc = 3 pF
```"""


# An in-range amp2 design, used to build demonstration records.
DEMO_POINT = DesignPoint((
    20e-6, 0.5e-6, 10e-6, 0.5e-6, 2e-6, 0.5e-6, 20e-6, 0.5e-6,
    3e-6, 0.5e-6, 2e-6, 0.8e-6, 2000.0, 10e-12,
))


@pytest.fixture
def demos(amp2):
    model, _ = amp2
    record = evaluate(model, DEMO_POINT)
    return [replace(record, fom=record.fom - i) for i in range(8)]  # descending


# ------------------------------------------------------------------ parser

def test_parse_well_formed_block(amp2):
    model, _ = amp2
    point = parse_response(GOOD_BLOCK, model.space)
    values = dict(zip(model.space.names, point.values))
    assert values["w1"] == pytest.approx(2.5e-6)
    assert values["l1"] == pytest.approx(500e-9)
    assert values["rz"] == pytest.approx(4700.0)
    assert values["cc"] == pytest.approx(3e-12)
    assert design_space_contains(model.space, point)


def test_parse_unicode_units_and_case(amp2):
    model, _ = amp2
    text = GOOD_BLOCK.replace("w1 = 2.5 um", "W1 = 2.5 µm").replace(
        "rz = 4.7 kohm", "rz: 4.7 kΩ"
    )
    values = dict(zip(model.space.names, parse_response(text, model.space).values))
    assert values["w1"] == pytest.approx(2.5e-6)
    assert values["rz"] == pytest.approx(4700.0)


def test_parse_bare_si_values(amp2):
    model, _ = amp2
    text = GOOD_BLOCK.replace("w1 = 2.5 um", "w1 = 2.5e-6")
    w1 = model.space.names.index("w1")
    assert parse_response(text, model.space).values[w1] == pytest.approx(2.5e-6)


def test_parse_last_fenced_block_wins(amp2):
    model, _ = amp2
    text = GOOD_BLOCK + "\n" + GOOD_BLOCK.replace("w1 = 2.5 um", "w1 = 3 um")
    w1 = model.space.names.index("w1")
    assert parse_response(text, model.space).values[w1] == pytest.approx(3e-6)


def test_parse_out_of_range_names_parameter_and_bounds(amp2):
    model, _ = amp2
    text = GOOD_BLOCK.replace("w1 = 2.5 um", "w1 = 60nm")
    with pytest.raises(OutOfRange) as excinfo:
        parse_response(text, model.space)
    assert excinfo.value.parameter == "w1"
    message = str(excinfo.value)
    assert "120 nm" in message and "50 um" in message


def test_parse_missing_parameter(amp2):
    model, _ = amp2
    text = GOOD_BLOCK.replace("cc = 3 pF", "")
    with pytest.raises(MissingParameter) as excinfo:
        parse_response(text, model.space)
    assert excinfo.value.parameter == "cc"


def test_parse_not_numeric(amp2):
    model, _ = amp2
    text = GOOD_BLOCK.replace("cc = 3 pF", "cc = large pF")
    with pytest.raises(NotNumeric) as excinfo:
        parse_response(text, model.space)
    assert excinfo.value.parameter == "cc"
    with pytest.raises(NotNumeric):
        parse_response(
            GOOD_BLOCK.replace("cc = 3 pF", "cc = 3 lightyears"), model.space
        )


# The lazy pattern _LINE_RE replaced, kept as the reference.
_LAZY_LINE_RE = re.compile(r"^\s*[-*]?\s*([A-Za-z_][A-Za-z0-9_]*)\s*[=:]\s*(.+?)\s*$")
# Every character str.splitlines breaks on, and other space characters.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACE = st.text(" \t\xa0" + _BREAKS, max_size=3)
_LINES = st.one_of(
    st.builds(
        "".join,
        st.tuples(
            _SPACE,
            st.sampled_from(["", "-", "*", "- ", "* "]),
            st.one_of(st.sampled_from(["w1", "L1", "rz", "x_2", "cc"]),
                      st.text("aZ_9", max_size=4)),
            _SPACE,
            st.sampled_from(["=", ":", "", "=="]),
            _SPACE,
            st.text("0123456789.e-+ umkΩµ,;:=*" + _BREAKS + "\t\xa0", max_size=10),
            st.sampled_from(["", ".", ",", ";", " .,;", "  "]),
            _SPACE,
        ),
    ),
    st.text("x1=: -*.,;5u" + _BREAKS, max_size=12),
)


def _with_edge_examples(test):
    """Every space or break character as the whole value, alone or after a
    space, and inside or after a value."""
    for c in " \t\xa0" + _BREAKS:
        for line in (f"w1 ={c}", f"w1 = {c}", f"- w1:{c} ", f"w1 = 5{c}",
                     f"* w1: 5{c}um.,;", f"w1 = {c}5 um;{c}"):
            test = example(line=line)(test)
    return test


@_with_edge_examples
@settings(max_examples=500, deadline=None)
@given(line=_LINES)
def test_line_pattern_matches_the_lazy_pattern(line):
    old, new = _LAZY_LINE_RE.match(line), llm._LINE_RE.match(line)
    assert (new is None) == (old is None)
    if old is not None:
        assert new.groups() == old.groups()


def test_format_si_round_trip():
    assert format_si(2.449e-6, "m") == "2.449 um"
    assert format_si(4.7e3, "ohm") == "4.7 kohm"
    assert format_si(10e-12, "F") == "10 pF"
    assert format_si(0.0, "m") == "0 m"
    assert format_si(2e-18, "F") == "0.002 fF"  # below the smallest prefix


# ----------------------------------------------------------------- prompts

def test_init_prompt_names_all_parameters(amp2):
    model, card = amp2
    messages = build_init_prompt(card, 5)
    assert [m["role"] for m in messages] == ["system", "user"]
    body = messages[1]["content"]
    for name in model.space.names:
        assert re.search(rf"\b{name}\b", body)
    assert "5 distinct design points" in body
    assert "gain >= 60 dB" in body  # literal spec threshold from the card
    assert "Demonstration" not in body


def test_init_prompt_within_budget(amp2):
    _, card = amp2
    messages = build_init_prompt(card, 5)
    assert sum(estimate_tokens(m["content"]) for m in messages) <= 16000


def test_iteration_prompt_sections_in_order(amp2):
    model, card = amp2
    demos = [evaluate(model, DEMO_POINT)]
    messages = build_iteration_prompt(card, demos)
    body = messages[-1]["content"]
    positions = [body.index(f"Step ({s})") for s in "abcd"]
    assert positions == sorted(positions)
    assert "exactly one new design point" in body


def test_iteration_prompt_renders_demos_with_units_and_regions(amp2):
    model, card = amp2
    demos = [evaluate(model, DEMO_POINT, iteration=i) for i in range(5)]
    body = build_iteration_prompt(card, demos)[-1]["content"]
    assert body.count("Demonstration") == 5
    assert "MHz" in body and "dB" in body and "uW" in body
    assert "M1: saturation" in body
    assert "FOM =" in body


def test_iteration_prompt_accepts_empty_demos(amp2):
    _, card = amp2
    body = build_iteration_prompt(card, [])[-1]["content"]
    assert "no demonstrations" in body
    positions = [body.index(f"Step ({s})") for s in "abcd"]
    assert positions == sorted(positions)


def test_iteration_prompt_drops_lowest_fom_demos_to_fit(amp2, demos):
    _, card = amp2
    budget = 1400  # enough for the scaffold plus a few demos only
    for _ in range(2):  # the second call returns the card's last prompt
        messages = build_iteration_prompt(card, demos, context_budget=budget)
        body = messages[-1]["content"]
        kept = body.count("Demonstration")
        assert 1 <= kept < 8
        assert sum(estimate_tokens(m["content"]) for m in messages) <= budget
        # the highest-FOM demo always survives
        assert f"FOM = {demos[0].fom:.4g}" in body
        # the format section is intact
        assert "fenced code block" in body
    # a budget that not even one demonstration fits is refused on every call
    for _ in range(2):
        with pytest.raises(PromptBudgetError):
            build_iteration_prompt(card, demos, context_budget=100)


def test_iteration_prompt_reuses_messages_for_the_same_demos(amp2, demos):
    _, card = amp2
    first = build_iteration_prompt(card, demos[:5])
    second = build_iteration_prompt(card, list(demos[:5]))
    assert second == first
    assert all(a is b for a, b in zip(first, second))
    assert second[-1]["content"] is first[-1]["content"]


def test_iteration_prompt_returns_a_fresh_list(amp2, demos):
    _, card = amp2
    first = build_iteration_prompt(card, demos[:5])
    first.append({"role": "assistant", "content": "a reply"})
    second = build_iteration_prompt(card, demos[:5])
    assert second is not first
    assert [m["role"] for m in second] == ["system", "user"]


def test_iteration_prompt_renders_afresh_for_other_demos_or_budget(amp2, demos):
    _, card = amp2
    shown = build_iteration_prompt(card, demos[:5])
    # equal records that are other objects count as other demonstrations
    copies = [replace(d) for d in demos[:5]]
    for other, budget in (
        (demos[1:6], 16000), (demos[:4], 16000), (demos[:5], 1400), (copies, 16000),
    ):
        messages = build_iteration_prompt(card, other, budget)
        assert messages[-1]["content"] is not shown[-1]["content"]
        assert messages == build_iteration_prompt(replace(card), other, budget)
        shown = messages


# ----------------------------------------------------------------- propose

def test_propose_retries_then_accepts(amp2):
    model, card = amp2
    client = ScriptedLlmClient(["not a design", GOOD_BLOCK])
    config = LlmConfig(retry_limit=3)
    point, transcript = propose(client, card, [], config)
    assert client.calls == 2
    assert design_space_contains(model.space, point)
    roles = [m["role"] for m in transcript]
    assert roles.count("assistant") == 2
    # corrective message names the missing parameter
    corrective = [m for m in transcript if m["role"] == "user"][1]
    assert "w1" in corrective["content"]


def test_propose_single_call_when_valid(amp2):
    model, card = amp2
    client = ScriptedLlmClient([GOOD_BLOCK])
    point, _ = propose(client, card, [], LlmConfig(retry_limit=3))
    assert client.calls == 1


def test_propose_exhausts_after_retry_limit(amp2):
    model, card = amp2
    client = ScriptedLlmClient(["bad"])
    point, transcript = propose(client, card, [], LlmConfig(retry_limit=3))
    assert point is None
    assert client.calls == 3
    assert [m["role"] for m in transcript].count("assistant") == 3


def test_propose_transcript_replays_to_same_point(amp2):
    model, card = amp2
    client = ScriptedLlmClient(["oops", GOOD_BLOCK])
    point, transcript = propose(client, card, [], LlmConfig())
    last_assistant = [m for m in transcript if m["role"] == "assistant"][-1]
    assert parse_response(last_assistant["content"], model.space).values == point.values


def test_propose_init_re_requests_missing_points(amp2):
    model, card = amp2
    client = RandomPointLlmClient(model.space, np.random.default_rng(0))
    points, transcript = propose_init(client, card, 5, LlmConfig())
    assert len(points) == 5
    assert client.calls == 5  # one per point: the mock emits one block per call
    assert all(design_space_contains(model.space, p) for p in points)


def test_propose_init_exhaustion_carries_partial(amp2):
    model, card = amp2

    class OneGoodThenBad:
        def __init__(self):
            self.calls = 0

        def complete(self, messages):
            self.calls += 1
            return GOOD_BLOCK if self.calls == 1 else "no point here"

    client = OneGoodThenBad()
    points, transcript = propose_init(client, card, 3, LlmConfig(retry_limit=2))
    assert len(points) == 1
    assert client.calls == 3
    assert [m["role"] for m in transcript].count("assistant") == 3


def test_propose_init_keeps_the_first_n_blocks_of_one_completion(amp2):
    _, card = amp2
    blocks = [GOOD_BLOCK.replace("w1 = 2.5 um", f"w1 = {w} um") for w in range(1, 6)]

    class FiveBlocks:
        def __init__(self):
            self.calls = 0

        def complete(self, messages):
            self.calls += 1
            return "\n\n".join(blocks)

    client = FiveBlocks()
    points, transcript = propose_init(client, card, 3, LlmConfig())
    assert points == [parse_response(block, card.space) for block in blocks[:3]]
    assert client.calls == 1
    assert [m["role"] for m in transcript] == ["system", "user", "assistant"]


# Every kind of reply a proposer has to survive, by name.
REPLIES = {
    "valid": GOOD_BLOCK,
    "out of range": GOOD_BLOCK.replace("w1 = 2.5 um", "w1 = 60nm"),
    "missing": GOOD_BLOCK.replace("cc = 3 pF", ""),
    "junk": "I cannot help with that.",
    "empty": "",
}


def _assert_logged_completions(transcript, client):
    roles = [m["role"] for m in transcript]
    assert roles[:2] == ["system", "user"]
    assert roles.count("assistant") == client.calls
    assert all(roles[i - 1] == "user" for i, r in enumerate(roles) if r == "assistant")


@settings(max_examples=100, deadline=None)
@given(
    replies=st.lists(st.sampled_from(sorted(REPLIES)), min_size=1, max_size=8),
    n=st.integers(1, 3),
    retry_limit=st.integers(1, 3),
)
def test_proposers_return_points_within_their_retry_budget(
    amp2, replies, n, retry_limit
):
    # The scripted client cycles; a proposer returns what it could parse and
    # never raises, whatever the replies.
    model, card = amp2
    config = LlmConfig(retry_limit=retry_limit)
    client = ScriptedLlmClient([REPLIES[r] for r in replies])
    point, transcript = propose(client, card, [], config)
    assert client.calls <= retry_limit
    sent = [replies[i % len(replies)] for i in range(client.calls)]
    assert (point is not None) == (sent[-1] == "valid")
    assert "valid" not in sent[:-1]
    if point is not None:
        assert design_space_contains(model.space, point)
    _assert_logged_completions(transcript, client)

    client = ScriptedLlmClient([REPLIES[r] for r in replies])
    points, transcript = propose_init(client, card, n, config)
    assert len(points) <= n
    assert all(design_space_contains(model.space, p) for p in points)
    assert client.calls <= 1 + n * retry_limit
    _assert_logged_completions(transcript, client)


def test_init_prompt_needs_a_point(amp2):
    _, card = amp2
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        build_init_prompt(card, 0)


def test_scripted_client_needs_a_response():
    with pytest.raises(ValueError, match="^script needs at least one response$"):
        ScriptedLlmClient([])


def test_scripted_client_cycles():
    client = ScriptedLlmClient(["a", "b"])
    out = [client.complete([{"role": "user", "content": "x"}]) for _ in range(5)]
    assert out == ["a", "b", "a", "b", "a"]


def test_load_script_formats(tmp_path):
    json_path = tmp_path / "script.json"
    json_path.write_text('["first", "second"]', encoding="utf-8")
    assert load_script(str(json_path)) == ["first", "second"]
    txt_path = tmp_path / "script.txt"
    txt_path.write_text("first response\n---\nsecond response\n", encoding="utf-8")
    assert load_script(str(txt_path)) == ["first response", "second response"]
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_script(str(bad))
    bad.write_text('["first", ""]', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.json: response 1 is empty"):
        load_script(str(bad))


# ------------------------------------------------------------- wire client

HI = [{"role": "user", "content": "hi"}]

def test_chat_complete_returns_stub_content(stub_server):
    server = stub_server([(200, chat_body("canned reply"))])
    config = LlmConfig(endpoint=server.endpoint, backoff=0.0)
    assert chat_complete(config, HI) == "canned reply"
    assert server.hits == 1


def test_chat_complete_retries_transient_failures(stub_server):
    server = stub_server([
        (500, "{}"),
        (429, "{}"),
        (200, chat_body("after retries")),
    ])
    config = LlmConfig(endpoint=server.endpoint, backoff=0.0, transport_attempts=3)
    assert chat_complete(config, HI) == "after retries"
    assert server.hits == 3


def test_chat_complete_transport_error_after_exhaustion(stub_server):
    server = stub_server([(500, "{}")])
    config = LlmConfig(endpoint=server.endpoint, backoff=0.0, transport_attempts=3)
    with pytest.raises(TransportError):
        chat_complete(config, HI)
    assert server.hits == 3


def test_chat_complete_backs_off_between_attempts_only(stub_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr("analogopt.llm.time.sleep", sleeps.append)
    server = stub_server([(500, "{}"), (429, "{}"), (200, chat_body("late"))])
    config = LlmConfig(endpoint=server.endpoint, backoff=0.5, transport_attempts=3)
    assert chat_complete(config, HI) == "late"
    assert sleeps == [0.5, 1.0]
    # connection errors share the schedule, and nothing sleeps after the last
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps.clear()
    config = replace(config, endpoint=f"http://127.0.0.1:{port}/v1")
    with pytest.raises(TransportError, match="after 3 attempts"):
        chat_complete(config, HI)
    assert sleeps == [0.5, 1.0]


def test_chat_complete_requires_key_for_remote(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    config = LlmConfig(endpoint="https://api.example.com/v1")
    with pytest.raises(AuthError):
        chat_complete(config, HI)


def test_chat_complete_auth_rejection(stub_server, monkeypatch):
    server = stub_server([(401, "{}")])
    config = LlmConfig(endpoint=server.endpoint)
    with pytest.raises(AuthError):
        chat_complete(config, HI)


def test_chat_complete_malformed_response(stub_server):
    server = stub_server([(200, '{"nope": true}')])
    config = LlmConfig(endpoint=server.endpoint)
    with pytest.raises(ProtocolError):
        chat_complete(config, HI)


def test_chat_complete_sends_the_api_key_as_a_bearer_token(stub_server, monkeypatch):
    server = stub_server([(200, chat_body("ok"))])
    config = LlmConfig(endpoint=server.endpoint, api_key_env="ANALOGOPT_TEST_KEY")
    monkeypatch.setenv("ANALOGOPT_TEST_KEY", "sk-test")
    assert chat_complete(config, HI) == "ok"
    monkeypatch.delenv("ANALOGOPT_TEST_KEY")
    assert chat_complete(config, HI) == "ok"
    assert server.headers[0]["Authorization"] == "Bearer sk-test"
    assert "Authorization" not in server.headers[1]


def test_chat_complete_does_not_retry_another_status(stub_server):
    server = stub_server([(404, '{"error": "no such model"}')])
    config = LlmConfig(endpoint=server.endpoint, backoff=0.0, transport_attempts=3)
    with pytest.raises(ProtocolError) as excinfo:
        chat_complete(config, HI)
    assert str(excinfo.value) == 'unexpected HTTP 404: {"error": "no such model"}'
    assert server.hits == 1


def test_chat_complete_rejects_empty_content(stub_server):
    server = stub_server([(200, chat_body(""))])
    config = LlmConfig(endpoint=server.endpoint)
    with pytest.raises(ProtocolError, match="^chat completion returned empty content$"):
        chat_complete(config, HI)

