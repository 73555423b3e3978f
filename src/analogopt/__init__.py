"""Hybrid analog design optimization: a Gaussian-process Bayesian-optimization
proposer interleaved with an LLM proposer over a shared evaluation dataset,
driving pluggable analytic circuit models through a spec-gated figure of
merit."""

__version__ = "0.1.0"

from .core import (
    Dataset,
    DesignPoint,
    DesignSpace,
    EvalRecord,
    Parameter,
    Region,
    Scale,
    Source,
    dataset_append,
    design_space_contains,
)
from .fom import (
    AMP2_FOM,
    COMPARATOR_FOM,
    FomConfig,
    MetricSpec,
    compute_fom,
    count_missed_specs,
    hits_spec,
)
from .surrogate import (
    GpFitConfig,
    GpModel,
    from_unit_cube,
    gp_fit,
    gp_predict,
    log_marginal_likelihood,
    rbf_kernel,
    to_unit_cube,
)
from .acquisition import AcquisitionConfig, ei, propose_batch, qei_mc
from .evaluator import (
    CircuitModel,
    circuit_model,
    classify_regions,
    evaluate,
)
from .llm import (
    LlmConfig,
    TaskCard,
    build_init_prompt,
    build_iteration_prompt,
    chat_complete,
    parse_response,
    propose,
)
from .sampler import top_k, uniform_k
from .config import RunConfig, load_run_config
from .orchestrator import RunLog, report, run
