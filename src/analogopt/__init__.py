"""Hybrid analog design optimization: a Gaussian-process Bayesian-optimization
proposer interleaved with an LLM proposer over a shared evaluation dataset,
driving pluggable analytic circuit models through a spec-gated figure of
merit.

The package re-exports the library API its README documents; every other
name is imported from its submodule."""

__version__ = "0.1.0"

from .fom import compute_fom, count_missed_specs
from .surrogate import gp_fit, gp_predict
from .acquisition import ei, propose_batch, qei_mc
from .evaluator import circuit_model, evaluate
from .core import top_k, uniform_k
from .config import RunConfig
from .orchestrator import report, run
