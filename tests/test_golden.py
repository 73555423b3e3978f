"""Golden run logs: one short seeded run per method must stay byte-identical.

A pure refactor or a bitwise-identical speed-up leaves every hash below
unchanged. A change that moves the numbers on purpose regenerates them and
says so in CHANGES.md. The hashes were recorded with numpy 2.4 / scipy 1.17
on scipy-openblas 0.3.31 (x86-64); another BLAS or libm may round differently.
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
        "29b720e063f62a0e8794ff618a477b8613bcd1ffe1416ccfa5cc59c34ec6a2b7",
    ),
    (
        dict(method="gp_bo", preset="branin", n_iter=4, llm_queries_per_step=0,
             gp_queries_per_step=5, init_strategy="uniform_random"),
        "674cbcaa22f38ed5b028e5ad69cdc1455cf2e403289e689f53feb78567eac0d7",
    ),
    (
        # many all-failed designs share one FOM, so top_k's tie order matters
        dict(method="llm_only", preset="amp2", n_iter=60,
             llm_queries_per_step=1, gp_queries_per_step=0),
        "ccec2da817d89c8751371898e9619b7c512242d23cd053d8e1afb924b02d31c6",
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
