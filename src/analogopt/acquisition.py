"""Expected-improvement acquisition: closed-form EI, Monte-Carlo qEI, and
greedy batch construction by L-BFGS on the pathwise qEI gradient.

qEI uses common random numbers: the base normal draws are a fixed function of
the configured seed, drawn block-wise per batch slot so that the draws for
the first q slots coincide for every batch size >= q; a batch draws them once
and slot j reads the first j + 1 columns. The batch is built greedily: each
slot maximizes the qEI of (already chosen + candidate), which only needs a
rank-one border on the fixed prefix Cholesky factor. A per-slot scorer
computes the prefix posterior, that factor and the per-draw prefix maximum
once; each of its calls then adds only the candidate columns, vectorized over
many candidates at once.

On the fixed draws the estimate is piecewise smooth in the candidate, so the
scorer also returns its exact pathwise (reparameterization) gradient (Wilson,
Hutter & Deisenroth, NeurIPS 2018). All restarts of a slot are optimized as
one problem, a single L-BFGS run over the stacked starting points, as
BoTorch's ``gen_candidates_scipy`` does (Balandat et al., NeurIPS 2020).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs
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


def _solve_lower(L, B):
    """``L^-1 B`` for lower-triangular ``L`` (LAPACK ``trtrs``, the routine
    behind ``solve_triangular``, without its per-call validation)."""
    x, info = dtrtrs(L, B, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular triangular factor (trtrs info {info})")
    return x


def _slot_scorer(model, prefix, Z, best):
    """qEI of (prefix + candidate) for every candidate row, common draws ``Z``.

    ``Z`` holds the base draws for the prefix slots plus the candidate slot.
    The joint sample for each candidate is the prefix sample plus one
    bordered coordinate, so everything that depends only on the prefix (its
    posterior, Cholesky factor and per-draw maximum) is computed here once
    and shared by every call of the returned ``score(cands)``.

    ``score(cands, grad=True)`` returns ``(values, gradients)``; row r of the
    (R, d) gradient is the pathwise derivative of value r with respect to
    candidate r: the draw mean of ``1[f_last > max(prefix max, best)]``
    times the derivative of the bordered sample ``f_last``, built from
    closed-form RBF derivatives of the candidate's mean, variance and prefix
    covariance.
    """
    std2 = model.target_std**2
    sv = model.signal_variance
    inv_l2 = model.lengthscales**-2.0
    n, k = model.train_inputs.shape[0], prefix.shape[0]
    chol = np.asfortranarray(model.chol)
    # Training inputs and prefix points share one kernel block per call.
    points = np.vstack([model.train_inputs, prefix])
    scaled = _scaled(points, model.lengthscales)
    if k == 0:
        best_prefix = np.full(Z.shape[0], -np.inf)
    else:
        pre = (scaled[0][n:], scaled[1][n:])
        K_P = _rbf_from_scaled(scaled, pre, sv)
        V_P = _solve_lower(chol, K_P[:n])
        mean_P = model.target_mean + model.target_std * (K_P[:n].T @ model.alpha)
        cov_PP = std2 * (K_P[n:] - V_P.T @ V_P)
        cov_PP = 0.5 * (cov_PP + cov_PP.T)
        L_A, _ = _chol_with_jitter(cov_PP)
        L_A = np.asfortranarray(L_A)
        prefix_samples = mean_P[None, :] + Z[:, :k] @ L_A.T
        best_prefix = np.max(prefix_samples, axis=1)
    # Folding ``best`` into the per-draw threshold makes max(threshold, f) - best
    # the clipped improvement, never negative.
    threshold = np.maximum(best_prefix, best)[:, None]
    # Draw weights of the pathwise gradient: the k + 1 slot columns and a
    # ones column (the active fraction), pre-divided by the draw count.
    weights = np.hstack([Z, np.ones((Z.shape[0], 1))]) / Z.shape[0]

    def score(cands: np.ndarray, grad: bool = False):
        R, d = cands.shape
        cols = _rbf_from_scaled(scaled, _scaled(cands, model.lengthscales), sv)
        if grad:
            # dk(p, x)/dx_a = k(p, x) (p_a - x_a) / l_a^2, stacked behind the
            # values as column R + r*d + a: one solve per factor covers all.
            dK = cols[:, :, None] * (points[:, None, :] - cands) * inv_l2
            cols = np.hstack([cols, dK.reshape(n + k, R * d)])
        V = _solve_lower(chol, cols[:n])
        V_C = V[:, :R]
        mean_C = model.target_mean + model.target_std * (cols[:n, :R].T @ model.alpha)
        var_C = std2 * np.maximum(sv - np.sum(V_C**2, axis=0), 0.0)
        # Rows of L_A^-1 cov(prefix, candidate), then with grad their derivatives.
        sol = _solve_lower(L_A, std2 * (cols[n:] - V_P.T @ V)) if k else cols[n:]
        W = sol[:, :R]
        border = np.sqrt(np.clip(var_C - np.sum(W**2, axis=0), 0.0, None))
        factor = np.vstack([W, border])
        f_last = mean_C + Z @ factor
        values = np.mean(np.maximum(threshold, f_last) - best, axis=0)
        if not grad:
            return values
        dmean = model.target_std * (model.alpha @ cols[:n, R:]).reshape(R, d)
        dvar = -2.0 * std2 * np.einsum("nr,nra->ra", V_C, V[:, R:].reshape(n, R, d))
        dW = sol[:, R:].reshape(k, R, d)
        dvar_border = dvar - 2.0 * np.einsum("jr,jra->ra", W, dW)
        dborder = np.divide(
            dvar_border, 2.0 * border[:, None],
            out=np.zeros_like(dvar_border), where=border[:, None] > 0.0,
        )
        # Only draws whose bordered sample sets the clipped maximum move it.
        G = (f_last > threshold).astype(float).T @ weights
        dfactor = np.concatenate([dW, dborder[None]])
        gradients = G[:, -1:] * dmean + np.einsum("rj,jra->ra", G[:, :-1], dfactor)
        return values, gradients

    return score


def propose_batch(
    model: GpModel,
    space: DesignSpace,
    best: float,
    config: AcquisitionConfig,
    rng: np.random.Generator,
) -> list[DesignPoint]:
    """Greedy sequential batch maximizing Monte-Carlo qEI.

    The base draws are made once per batch; slot ``j`` uses their first
    ``j + 1`` columns. Each slot builds one scorer over its fixed prefix and
    scores ``raw_candidates`` uniform points with it. The top ``restarts`` of
    them start one joint L-BFGS run on the sum of their qEI values, through a
    logistic reparameterization of the unit cube, using the scorer's exact
    pathwise gradient on the fixed draws; ``maxiter`` caps that joint run.
    The best raw candidate is the fallback: an optimum replaces it only when
    its re-scored value is finite and higher, and a failed run keeps it.
    """
    d = space.dimension
    Z = _base_draws(config.seed, config.batch_size, config.mc_samples)
    chosen: list[np.ndarray] = []
    for slot in range(config.batch_size):
        prefix = np.array(chosen) if chosen else np.empty((0, d))
        cands = rng.uniform(size=(config.raw_candidates, d))
        score = _slot_scorer(model, prefix, Z[:, : slot + 1], best)
        scores = score(cands)
        order = np.argsort(-scores, kind="stable")
        slot_x = cands[order[0]]
        slot_val = scores[order[0]]
        starts = cands[order[: config.restarts]]

        def neg_total_and_grad(z):
            x = expit(z.reshape(starts.shape))
            values, grad = score(x, grad=True)
            return -np.sum(values), -(grad * x * (1.0 - x)).ravel()

        z0 = logit(np.clip(starts, _LOGIT_EPS, 1.0 - _LOGIT_EPS)).ravel()
        try:
            result = minimize(
                neg_total_and_grad,
                z0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": config.maxiter},
            )
            if np.all(np.isfinite(result.x)):
                optima = expit(result.x.reshape(starts.shape))
                for x_opt, val in zip(optima, score(optima)):
                    if np.isfinite(val) and val > slot_val:
                        slot_val = val
                        slot_x = x_opt
        except (NumericalError, FloatingPointError, np.linalg.LinAlgError):
            pass
        chosen.append(slot_x)
    return [from_unit_cube(space, u) for u in chosen]
