"""Golden run logs: one short seeded run per method must stay byte-identical.

A pure refactor or a bitwise-identical speed-up leaves every hash below
unchanged. A change that moves the numbers on purpose regenerates them and
says so in CHANGES.md. The hashes were recorded with numpy 2.4 / scipy 1.17
on scipy-openblas 0.3.31 (x86-64), and are the same at 1, 2 and 4 BLAS
threads; another BLAS or libm may round differently.
"""

import hashlib

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
