"""Golden run logs: one short seeded run per method must stay byte-identical.

A pure refactor or a bitwise-identical speed-up leaves every hash below
unchanged. A change that moves the numbers on purpose regenerates them and
says so in CHANGES.md. The hashes were recorded with numpy 2.4 / scipy 1.17
on scipy-openblas 0.3.31 (x86-64), and are the same at 1, 2 and 4 BLAS
threads; another BLAS or libm may round differently.
"""

import hashlib
import json

import pytest

from analogopt.acquisition import AcquisitionConfig
from analogopt.config import RunConfig
from analogopt.orchestrator import run
from analogopt.surrogate import GpFitConfig

TINY_ACQ = AcquisitionConfig(mc_samples=64, restarts=2, raw_candidates=32, maxiter=5)
TINY_FIT = GpFitConfig(restarts=2, maxiter=20)

GOLDEN = [
    (
        dict(method="ado_llm", preset="amp2", n_iter=4,
             llm_queries_per_step=1, gp_queries_per_step=4),
        "436d0e9326a2f3655609c8dbaf43bf2a27ff7e418f5ffec1ccfbf6f8f11eb262",
    ),
    (
        dict(method="gp_bo", preset="branin", n_iter=4, llm_queries_per_step=0,
             gp_queries_per_step=5, init_strategy="uniform_random"),
        "5b27a45a00a383ecadf3f65fe174592ef82272d51bfbd64d6adbf49598c81e46",
    ),
    (
        # many all-failed designs share one FOM, so top_k's tie order matters
        dict(method="llm_only", preset="amp2", n_iter=60,
             llm_queries_per_step=1, gp_queries_per_step=0),
        "178e41931420da1a6ee1351f501d105ab53ef48426bd99fbf4f4b4e3dd0741a9",
    ),
]


@pytest.mark.parametrize(
    "fields, sha256", GOLDEN, ids=[fields["method"] for fields, _ in GOLDEN]
)
def test_golden_log_hash(fields, sha256):
    config = RunConfig(
        **fields, n_init=5, seed=7, mock="random",
        acquisition=TINY_ACQ, gp_fit=TINY_FIT,
    )
    text = run(config).text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


def _amp2_reply(w1="2.5 um", cc="3 pF", rz="4.7 kohm", drop=None):
    lines = [
        f"w1 = {w1}", "l1 = 500 nm", "w3 = 1 um", "l3 = 0.2 um", "w5 = 3 um",
        "l5 = 0.3 um", "w6 = 10 um", "l6 = 200 nm", "w7 = 5 um", "l7 = 0.5 um",
        "wb = 1 um", "lb = 0.4 um", f"rz = {rz}", f"cc = {cc}",
    ]
    body = "\n".join(line for line in lines if not line.startswith(f"{drop} "))
    return f"```\n{body}\n```"


# Cycled by the scripted client: 8 replies fill the five initial points, the
# first iteration's proposal exhausts its three attempts, and the cycle then
# restarts inside the later iterations' proposals.
RETRY_SCRIPT = [
    # two blocks and junk: the first block parses, the second does not
    "Here is a first candidate.\n" + _amp2_reply()
    + "\nand a second one:\n```\nTODO: pick sizes\n```\nThat is all.",
    _amp2_reply(w1="4 um", drop="cc"),  # missing parameter
    _amp2_reply(w1="6 um", cc="2.2 pF"),
    _amp2_reply(w1="8 um", rz="large kohm"),  # not numeric
    _amp2_reply(w1="8 um", cc="1.5 pF"),
    _amp2_reply(w1="60 nm"),  # out of range
    _amp2_reply(w1="12 um", cc="4 pF"),
    _amp2_reply(w1="1.5 um", cc="0.8 pF"),
    "I cannot help with that.",
    _amp2_reply(w1="many um"),
    _amp2_reply(cc="1 nF"),
    _amp2_reply(w1="20 um", cc="5 pF", rz="800 ohm"),
]


def test_golden_scripted_retry_log_hash(tmp_path, monkeypatch):
    # a relative script path keeps the header's config echo independent of
    # where the test runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "script.json").write_text(json.dumps(RETRY_SCRIPT), encoding="utf-8")
    config = RunConfig(
        method="ado_llm", preset="amp2", n_init=5, n_iter=4, seed=7,
        mock="script.json", acquisition=TINY_ACQ, gp_fit=TINY_FIT,
    )
    log = run(config)
    init = next(line for line in log.lines if line["type"] == "init")
    assert init["n_substituted"] == 0
    assert sum("valid design points so far" in m["content"]
               for m in init["transcript"]) == 4
    substituted = [line["llm_substituted"] for line in log.lines
                   if line["type"] == "iteration"]
    assert substituted == [1, 0, 0, 0]
    assert hashlib.sha256(log.text().encode("utf-8")).hexdigest() == (
        "07338c6ceda5cd982f28350c573f520d51db01647ed44fb28e7bc3de322eb70a"
    )
