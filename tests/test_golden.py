"""Golden run logs: short seeded runs that must stay byte-identical.

There is one run per method, plus one per loop path the method runs leave
out: the uniform and the empty demonstration samplers, and a GP batch drawn
inside the trust region's box.

A pure refactor or a bitwise-identical speed-up leaves every hash below
unchanged. A change that moves the numbers on purpose regenerates them and
says so in CHANGES.md. The hashes were recorded with numpy 2.4 / scipy 1.17
on scipy-openblas 0.3.31 (x86-64), and are the same at 1, 2 and 4 BLAS
threads; another BLAS or libm may round differently.

Each run has two hashes. The first is of its expanded text: every
transcript's prompt put back in place and each line re-encoded as
``json.dumps(line, sort_keys=True)``, which is how logs were written before
prompt lines. The second is of the log as written, with its prompt lines. A
run without LLM queries has no prompt lines, so its two hashes are equal.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from analogopt.acquisition import AcquisitionConfig
from analogopt.config import RunConfig
from analogopt.orchestrator import run
from analogopt.surrogate import GpFitConfig

from conftest import RETRY_SCRIPT, expanded_text

TINY_ACQ = AcquisitionConfig(mc_samples=64, restarts=2, raw_candidates=32, maxiter=5)
TINY_FIT = GpFitConfig(restarts=2, maxiter=20)

# id -> (run fields, expanded-text hash, written-bytes hash)
GOLDEN = {
    "ado_llm": (
        dict(method="ado_llm", preset="amp2", n_iter=4,
             llm_queries_per_step=1, gp_queries_per_step=4),
        "9daf1e32b7ac933665721e0b834b10ff9ad94ee46407a1daea2ca55c3b4ee8fd",
        "b02768933730740b32fabb0c7a7100360a0cc81c6afe09c9826adabb4ac4957f",
    ),
    "gp_bo": (
        dict(method="gp_bo", preset="branin", n_iter=4, llm_queries_per_step=0,
             gp_queries_per_step=5, init_strategy="uniform_random"),
        "828d55f7d5b4eca533c7ee9bb07a0f9cffd11f78f7c53532409279644b45924e",
        "828d55f7d5b4eca533c7ee9bb07a0f9cffd11f78f7c53532409279644b45924e",
    ),
    "llm_only": (
        # many all-failed designs share one FOM, so top_k's tie order matters
        dict(method="llm_only", preset="amp2", n_iter=60,
             llm_queries_per_step=1, gp_queries_per_step=0),
        "91e568f2292400bd2d8e7f6dff319eb31ec58e2248467cb0796571b51025de1b",
        "23cf0296ff6c6e7d65f21699d2881a745f66da3db6c5f3058989d63b483b8780",
    ),
    "llm_only-uniform": (
        # the only golden run that draws from the sampler stream
        dict(method="llm_only", preset="amp2", n_iter=60, llm_queries_per_step=1,
             gp_queries_per_step=0, sampler_kind="uniform"),
        "ad4f48d75fe5caf5ba42d65918a89a15b32e4594c16ab4b4df3562d083e54f92",
        "8ffbfb4706a5144e4cd145e36dfaa361159d088f0560c67805274d7575b8572c",
    ),
    "llm_only-none": (
        dict(method="llm_only", preset="amp2", n_iter=60, llm_queries_per_step=1,
             gp_queries_per_step=0, sampler_kind="none"),
        "d7b070e44fca65e446aee41e7afcbeb3e8e12680c1e5fb29afc7fa3dae368640",
        "6e054482f4334995144f406f5556f3c4cd7951274be7c22a115fbd2fce0510cf",
    ),
    "gp_bo-trust_region": (
        # five whole-cube batches, then three inside the trust region's box
        dict(method="gp_bo", preset="amp2", n_iter=8, llm_queries_per_step=0,
             gp_queries_per_step=5, init_strategy="uniform_random"),
        "a1e381ec3b65b4bd17ad0a0d690522ae2df933f27b0e71d4c1ce10d2a96dfc72",
        "a1e381ec3b65b4bd17ad0a0d690522ae2df933f27b0e71d4c1ce10d2a96dfc72",
    ),
}


def _hashes(log, path):
    """SHA-256 of the expanded text and of the written bytes of a run log."""
    log.write(str(path))
    return tuple(
        hashlib.sha256(data).hexdigest()
        for data in (expanded_text(path).encode("utf-8"), path.read_bytes())
    )


@pytest.mark.parametrize("fields, expanded, written", GOLDEN.values(), ids=GOLDEN.keys())
def test_golden_log_hash(tmp_path, fields, expanded, written):
    config = RunConfig(
        **fields, n_init=5, seed=7, mock="random",
        acquisition=TINY_ACQ, gp_fit=TINY_FIT,
    )
    assert _hashes(run(config), tmp_path / "run.jsonl") == (expanded, written)


GP_GOLDEN = {name: entry for name, entry in GOLDEN.items()
             if entry[0]["method"] != "llm_only"}


@pytest.mark.parametrize("name", GP_GOLDEN)
def test_golden_log_hash_at_two_blas_threads(tmp_path, name):
    # conftest pins one BLAS thread for the session; a fresh interpreter at
    # two threads must write the same log through the GP's solves and products.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
    )
    path = tmp_path / "run.jsonl"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from analogopt.config import RunConfig\n"
         "from analogopt.orchestrator import run\n"
         "from test_golden import GP_GOLDEN, TINY_ACQ, TINY_FIT\n"
         "fields = GP_GOLDEN[sys.argv[1]][0]\n"
         "run(RunConfig(**fields, n_init=5, seed=7, mock='random',\n"
         "              acquisition=TINY_ACQ, gp_fit=TINY_FIT)).write(sys.argv[2])\n",
         name, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GP_GOLDEN[name][2]


def test_golden_scripted_retry_log_hash(tmp_path):
    # the header names the script by its SHA-256, so the log does not depend
    # on where the test runs
    script = tmp_path / "script.json"
    script.write_text(json.dumps(RETRY_SCRIPT), encoding="utf-8")
    config = RunConfig(
        method="ado_llm", preset="amp2", n_init=5, n_iter=4, seed=7,
        mock=str(script), acquisition=TINY_ACQ, gp_fit=TINY_FIT,
    )
    log = run(config)
    init = next(line for line in log.lines if line["type"] == "init")
    assert init["n_substituted"] == 0
    assert sum("valid design points so far" in m["content"]
               for m in init["transcript"]) == 4
    substituted = [line["llm_substituted"] for line in log.lines
                   if line["type"] == "iteration"]
    assert substituted == [1, 0, 0, 0]
    assert _hashes(log, tmp_path / "run.jsonl") == (
        "419d98e287337603fce3d6aafd834df7fe6bd99de73aba97c69445e579ed6050",
        "f14605947ef683bfb333f7c63da774318c6fec24d9d117bbc054d0e73a8ef5ff",
    )
