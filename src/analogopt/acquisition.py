"""Expected-improvement acquisition: closed-form EI, Monte-Carlo qEI, and
greedy batch construction by multi-start L-BFGS.

qEI uses common random numbers: the base normal draws are a fixed function of
the configured seed, drawn block-wise per batch slot so that the draws for
the first q slots coincide for every batch size >= q; a batch draws them once
and slot j reads the first j + 1 columns. The batch is built greedily: each
slot maximizes the qEI of (already chosen + candidate), which only needs a
rank-one border on the fixed prefix Cholesky factor. A per-slot scorer
computes the prefix posterior, that factor and the per-draw prefix maximum
once; each of its calls then adds only the candidate columns, vectorized over
many candidates at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import expit, logit
from scipy.stats import norm

from .core import DesignPoint, DesignSpace
from .surrogate import (
    GpModel,
    NumericalError,
    _chol_with_jitter,
    _rbf_from_scaled,
    _scaled,
    from_unit_cube,
    gp_predict,
    gp_predict_diag,
)

_SIGMA_FLOOR = 1e-12
_LOGIT_EPS = 1e-9
_FD_STEP = 1e-3


@dataclass(frozen=True)
class AcquisitionConfig:
    batch_size: int = 4
    mc_samples: int = 4096
    restarts: int = 10
    raw_candidates: int = 512
    maxiter: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def ei(model: GpModel, x: np.ndarray, best: float) -> float:
    """Closed-form expected improvement over ``best`` at a single point."""
    mean, var = gp_predict_diag(model, np.atleast_2d(x))
    mu = float(mean[0])
    sigma = math.sqrt(max(float(var[0]), 0.0))
    if sigma < _SIGMA_FLOOR:
        return max(mu - best, 0.0)
    z = (mu - best) / sigma
    return max(float((mu - best) * norm.cdf(z) + sigma * norm.pdf(z)), 0.0)


def _base_draws(seed: int, q: int, mc_samples: int) -> np.ndarray:
    # Drawn as q consecutive blocks so column j is the same for every q > j.
    return np.random.default_rng(seed).standard_normal((q, mc_samples)).T


def qei_mc(
    model: GpModel,
    batch: np.ndarray,
    best: float,
    config: AcquisitionConfig,
) -> float:
    """Monte-Carlo estimate of E[max(0, max_j f(x_j) - best)] for the batch."""
    X = np.atleast_2d(np.asarray(batch, dtype=float))
    q = X.shape[0]
    mean, cov = gp_predict(model, X)
    L, _ = _chol_with_jitter(cov)
    Z = _base_draws(config.seed, q, config.mc_samples)
    samples = mean[None, :] + Z @ L.T
    improvement = np.max(samples, axis=1) - best
    return float(np.mean(np.clip(improvement, 0.0, None)))


def _slot_scorer(model, prefix, Z, best):
    """qEI of (prefix + candidate) for every candidate row, common draws ``Z``.

    ``Z`` holds the base draws for the prefix slots plus the candidate slot.
    The joint sample for each candidate is the prefix sample plus one
    bordered coordinate, so everything that depends only on the prefix (its
    posterior, Cholesky factor and per-draw maximum) is computed here once
    and shared by every call of the returned ``score(cands)``.
    """
    std2 = model.target_std**2
    sv = model.signal_variance
    train = _scaled(model.train_inputs, model.lengthscales)
    k = prefix.shape[0]
    if k == 0:
        best_prefix = np.full(Z.shape[0], -np.inf)
    else:
        pre = _scaled(prefix, model.lengthscales)
        Ks_P = _rbf_from_scaled(train, pre, sv)
        V_P = solve_triangular(model.chol, Ks_P, lower=True)
        mean_P = model.target_mean + model.target_std * (Ks_P.T @ model.alpha)
        cov_PP = std2 * (_rbf_from_scaled(pre, pre, sv) - V_P.T @ V_P)
        cov_PP = 0.5 * (cov_PP + cov_PP.T)
        L_A, _ = _chol_with_jitter(cov_PP)
        prefix_samples = mean_P[None, :] + Z[:, :k] @ L_A.T
        best_prefix = np.max(prefix_samples, axis=1)

    def score(cands: np.ndarray) -> np.ndarray:
        cand = _scaled(cands, model.lengthscales)
        Ks_C = _rbf_from_scaled(train, cand, sv)
        V_C = solve_triangular(model.chol, Ks_C, lower=True)
        mean_C = model.target_mean + model.target_std * (Ks_C.T @ model.alpha)
        var_C = std2 * np.maximum(sv - np.sum(V_C**2, axis=0), 0.0)
        if k == 0:
            sigma = np.sqrt(var_C)
            f_last = mean_C[None, :] + Z[:, 0][:, None] * sigma[None, :]
        else:
            cov_PC = std2 * (_rbf_from_scaled(pre, cand, sv) - V_P.T @ V_C)
            W = solve_triangular(L_A, cov_PC, lower=True)
            border = np.sqrt(np.clip(var_C - np.sum(W**2, axis=0), 0.0, None))
            f_last = (
                mean_C[None, :]
                + Z[:, :k] @ W
                + Z[:, k][:, None] * border[None, :]
            )
        values = np.maximum(best_prefix[:, None], f_last) - best
        return np.mean(np.clip(values, 0.0, None), axis=0)

    return score


def _logit(x):
    return logit(np.clip(x, _LOGIT_EPS, 1.0 - _LOGIT_EPS))


def propose_batch(
    model: GpModel,
    space: DesignSpace,
    best: float,
    config: AcquisitionConfig,
    rng: np.random.Generator,
) -> list[DesignPoint]:
    """Greedy sequential batch maximizing Monte-Carlo qEI.

    The base draws are made once per batch; slot ``j`` uses their first
    ``j + 1`` columns. Each slot builds one scorer over its fixed prefix,
    scores ``raw_candidates`` uniform points with it, refines the top
    ``restarts`` of them with L-BFGS through a logistic reparameterization of
    the unit cube (central finite differences on the fixed-draw objective,
    all 1 + 2d stencil points scored in one call), and keeps the best raw
    candidate as a fallback if every start fails.
    """
    d = space.dimension
    Z = _base_draws(config.seed, config.batch_size, config.mc_samples)
    # Row 0 is the centre, rows 1 + 2j / 2 + 2j step coordinate j up / down.
    stencil = np.zeros((1 + 2 * d, d))
    stencil[1 + 2 * np.arange(d), np.arange(d)] = _FD_STEP
    stencil[2 + 2 * np.arange(d), np.arange(d)] = -_FD_STEP
    chosen: list[np.ndarray] = []
    for slot in range(config.batch_size):
        prefix = np.array(chosen) if chosen else np.empty((0, d))
        cands = rng.uniform(size=(config.raw_candidates, d))
        score = _slot_scorer(model, prefix, Z[:, : slot + 1], best)
        scores = score(cands)
        order = np.argsort(-scores, kind="stable")
        slot_x = cands[order[0]]
        slot_val = scores[order[0]]

        def fun_and_grad(z):
            vals = score(expit(z + stencil))
            grad = (vals[1::2] - vals[2::2]) / (2.0 * _FD_STEP)
            return -vals[0], -grad

        for start_idx in order[: config.restarts]:
            z0 = _logit(cands[start_idx])
            try:
                result = minimize(
                    fun_and_grad,
                    z0,
                    jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": config.maxiter},
                )
                if not np.all(np.isfinite(result.x)):
                    continue
                x_opt = np.clip(expit(result.x), 0.0, 1.0)
                val = score(x_opt[None, :])[0]
            except (NumericalError, FloatingPointError, np.linalg.LinAlgError):
                continue
            if val > slot_val:
                slot_val = val
                slot_x = x_opt
        chosen.append(slot_x)
    return [from_unit_cube(space, u) for u in chosen]
