"""Expected-improvement acquisition: closed-form EI, Monte-Carlo qEI, and
greedy batch construction by L-BFGS on the pathwise qEI gradient.

qEI uses common random numbers: the base normal draws are a fixed function of
the call's seed, drawn block-wise per batch slot so that the draws for
the first q slots coincide for every batch size >= q; a batch draws them once
and slot j reads the first j + 1 columns. The batch is built greedily: each
slot maximizes the qEI of (already chosen + candidate), which only needs a
rank-one border on the fixed prefix Cholesky factor. A slot's scorer keeps
the sample apart from the objective, as BoTorch does: :func:`_joint_sample`
computes the prefix posterior and factor once, and each call adds only the
candidate columns, vectorized over many candidates; :func:`_improvement`
maps the draws to the clipped improvement and its per-draw derivative u'.
:func:`qei_mc` is that scorer's last slot: the qEI of a batch is the score
of its last point behind the rest as prefix.

On the fixed draws the estimate is piecewise smooth in the candidate, so the
scorer also returns its exact pathwise (reparameterization) gradient (Wilson,
Hutter & Deisenroth, NeurIPS 2018). All restarts of a slot are optimized as
one problem, a single L-BFGS run over the stacked starting points, as
BoTorch's ``gen_candidates_scipy`` does (Balandat et al., NeurIPS 2020). That
run goes through the L-BFGS-B driver the GP fit uses,
:func:`analogopt.surrogate._lbfgsb`, unbounded in logit space.

A batch can be confined to a box in the unit cube, a trust region as in
TuRBO-1 (Eriksson et al., NeurIPS 2019): its sides follow the GP's
lengthscales, and its size adapts to the run's successes and failures
(:func:`trust_region`, :func:`trust_region_box`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DesignPoint, DesignSpace, from_unit_cube
from .fom import FomConfig, count_missed_specs
from .surrogate import (
    GpModel,
    NumericalError,
    _chol_with_jitter,
    _kernel_rows,
    _lbfgsb,
    _rbf_cross,
    _scipy_extension,
    _solve_lower,
    gp_predict,
)

# scipy.special's own ufuncs, without that package's __init__.
_special = _scipy_extension("special", "_special_ufuncs")
expit, logit, ndtr = _special.expit, _special.logit, _special.ndtr

_SIGMA_FLOOR = 1e-12
_LOGIT_EPS = 1e-9

# Trust-region side length in the unit cube (start, cap, restart threshold),
# the success streak that doubles it, and the relative rise that succeeds.
# TuRBO restarts below 0.5**7; at a budget of ~20 batches a box that small
# holds points the GP cannot tell apart, and a converged region spends its
# batches there (branin), so the region restarts at its third halving.
TR_LENGTH_INIT = 0.8
TR_LENGTH_MAX = 1.6
TR_LENGTH_MIN = 0.5**3
TR_SUCCESS_STREAK = 3
TR_RISE = 1e-3


@dataclass(frozen=True)
class AcquisitionConfig:
    """qEI settings.

    ``maxiter`` caps the joint L-BFGS-B run of each batch slot. The count is
    taken before the cap is checked, so 0 acts as 1: one iteration.
    """

    mc_samples: int = 4096
    restarts: int = 10
    raw_candidates: int = 512
    maxiter: int = 50

    def __post_init__(self) -> None:
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.raw_candidates < 1:
            raise ValueError("raw_candidates must be >= 1")
        if self.maxiter < 0:
            raise ValueError("maxiter must be >= 0")


def ei(model: GpModel, x: np.ndarray, best: float) -> float:
    """Closed-form expected improvement over ``best`` at a single point."""
    mean, cov = gp_predict(model, np.atleast_2d(x))
    mu = float(mean[0])
    sigma = math.sqrt(max(float(cov[0, 0]), 0.0))
    if sigma < _SIGMA_FLOOR:
        return max(mu - best, 0.0)
    z = (mu - best) / sigma
    # Bit-identical to scipy.stats.norm.cdf / .pdf at loc 0, scale 1, without
    # importing scipy.stats; ``z * z``, not ``z**2``, which rounds differently.
    pdf = np.exp(-(z * z) / 2.0) / np.sqrt(2.0 * np.pi)
    return max(float((mu - best) * ndtr(z) + sigma * pdf), 0.0)


def _base_draws(seed: int, q: int, mc_samples: int) -> np.ndarray:
    # Drawn as q consecutive blocks so column j is the same for every q > j.
    return np.random.default_rng(seed).standard_normal((q, mc_samples)).T


def qei_mc(
    model: GpModel,
    batch: np.ndarray,
    best: float,
    config: AcquisitionConfig,
    seed: int,
) -> float:
    """Monte-Carlo estimate of E[max(0, max_j f(x_j) - best)] for the batch,
    on the base draws of ``seed``."""
    X = np.atleast_2d(np.asarray(batch, dtype=float))
    Z = _base_draws(seed, X.shape[0], config.mc_samples)
    return float(_slot_scorer(model, X[:-1], Z, best)(X[-1:])[0])


def _joint_sample(model, prefix, Z):
    """Joint posterior sample of ``prefix`` and one candidate on the base
    draws ``Z`` (a column per prefix point, then the candidate's), as
    ``(prefix_draws, sample)``. The candidate borders the prefix's factor by
    one row, so the prefix posterior and factor are computed here once, off
    the kernel block training inputs and prefix share with each candidate.

    ``sample(cands)`` returns the (draws, R) candidate coordinate ``f_last``;
    with ``grad``, also ``(dmean, dfactor)``, closed-form RBF derivatives
    with df_last[s, r]/dcands[r, a] = dmean[r, a] + Z[s] @ dfactor[:, r, a].
    """
    std2 = model.target_std**2
    sv = model.signal_variance
    inv_l2 = model.lengthscales**-2.0
    n, k = model.train_inputs.shape[0], prefix.shape[0]
    chol = np.asfortranarray(model.chol)
    points = np.vstack([model.train_inputs, prefix])
    rows = _kernel_rows(points, model.lengthscales)
    prefix_draws = Z[:, :0]
    if k:
        K_P = _rbf_cross(rows, prefix, model.lengthscales, sv)
        V_P = _solve_lower(chol, K_P[:n])
        mean_P = model.target_mean + model.target_std * (K_P[:n].T @ model.alpha)
        cov_PP = std2 * (K_P[n:] - V_P.T @ V_P)
        L_A = np.asfortranarray(_chol_with_jitter(0.5 * (cov_PP + cov_PP.T))[0])
        prefix_draws = mean_P[None, :] + Z[:, :k] @ L_A.T

    def sample(cands: np.ndarray, grad: bool = False):
        R, d = cands.shape
        cols = _rbf_cross(rows, cands, model.lengthscales, sv)
        if grad:
            # The right-hand side of both solves: the kernel values, then
            # dk(p, x)/dx_a = k(p, x) (p_a - x_a) / l_a^2 as column R + r*d + a.
            # dK is built contiguous and joined after: ufuncs writing into a
            # strided view of a preallocated right-hand side run twice as long.
            dK = points[:, None, :] - cands
            dK *= cols[:, :, None]
            dK *= inv_l2
            cols = np.concatenate((cols, dK.reshape(n + k, R * d)), axis=1)
        V = _solve_lower(chol, cols[:n])
        V_C = V[:, :R]
        mean_C = model.target_mean + model.target_std * (cols[:n, :R].T @ model.alpha)
        var_C = std2 * np.maximum(sv - (V_C**2).sum(axis=0), 0.0)
        # Rows of L_A^-1 cov(prefix, candidate), then with grad their derivatives.
        sol = _solve_lower(L_A, std2 * (cols[n:] - V_P.T @ V)) if k else cols[n:]
        W = sol[:, :R]
        # The candidate's conditional sd borders the factor. concatenate lays
        # the factor out after sol's strides (Fortran order from two prefix
        # rows on), which sets the transposition of the gemm with Z.
        border = var_C - (W**2).sum(axis=0)
        np.maximum(border, 0.0, out=border)
        np.sqrt(border, out=border)
        factor = np.concatenate((W, border[None]))
        f_last = Z @ factor
        f_last += mean_C
        if not grad:
            return f_last
        dmean = model.target_std * (model.alpha @ cols[:n, R:]).reshape(R, d)
        dvar = -2.0 * std2 * np.einsum("nr,nra->ra", V_C, V[:, R:].reshape(n, R, d))
        dW = sol[:, R:].reshape(k, R, d)
        dvar_border = dvar - 2.0 * np.einsum("jr,jra->ra", W, dW)
        dborder = np.divide(
            dvar_border, 2.0 * border[:, None],
            out=np.zeros((R, d)), where=border[:, None] > 0.0,
        )
        # Laid out as concatenate lays out dW's strides, which fixes the order
        # in which the chain rule's einsum adds its terms.
        return f_last, (dmean, np.concatenate([dW, dborder[None]]))

    return prefix_draws, sample


def _improvement(f_last, threshold, best, grad=False):
    """Draw mean of the clipped improvement ``max(threshold, f_last) - best``
    per column of ``f_last``, written over it (a raw scoring's temporaries
    are 0.5 MB, and fresh ones re-fault their pages every call). With
    ``grad`` also ``u'``, its per-draw derivative in ``f_last``: the draws
    with ``f_last > threshold``, as booleans.
    """
    active = f_last > threshold if grad else None
    np.maximum(threshold, f_last, out=f_last)
    f_last -= best
    values = np.add.reduce(f_last, axis=0) / f_last.shape[0]
    return (values, active) if grad else values


def _slot_scorer(model, prefix, Z, best):
    """qEI of (prefix + candidate) for every candidate row, common draws ``Z``.

    ``score(cands, grad=True)`` returns ``(values, gradients)``: row r of the
    (R, d) gradient is the pathwise derivative of value r in candidate r, by
    the chain rule ``G = u'.T @ [Z, 1] / draws`` over the sample's pieces.
    """
    k = prefix.shape[0]
    # A repeated prefix point takes its first copy's sample: the estimate is
    # unchanged, and the prefix covariance stays factorable without jitter.
    first = [i for i in range(k) if not (prefix[:i] == prefix[i]).all(axis=1).any()]
    if len(first) < k:
        prefix, Z = prefix[first], Z[:, [*first, k]]
    prefix_draws, sample = _joint_sample(model, prefix, Z)
    # Folding best into each draw's prefix maximum keeps the improvement >= 0.
    threshold = np.maximum(prefix_draws.max(axis=1, initial=-np.inf), best)[:, None]
    # The chain rule's draw weights: the slot columns and a ones column (the
    # active fraction), pre-divided by the draw count.
    weights = np.hstack([Z, np.ones((Z.shape[0], 1))]) / Z.shape[0]

    def score(cands: np.ndarray, grad: bool = False):
        if not grad:
            return _improvement(sample(cands), threshold, best)
        f_last, (dmean, dfactor) = sample(cands, grad=True)
        values, du = _improvement(f_last, threshold, best, grad=True)
        G = du.astype(float).T @ weights
        return values, G[:, -1:] * dmean + np.einsum("rj,jra->ra", G[:, :-1], dfactor)

    return score


def trust_region(records, fom: FomConfig, q: int, d: int) -> dict | None:
    """Trust-region state ``{"length", "successes", "failures"}`` for the
    iteration after ``records``, a run's evaluations in order; ``None`` while
    the incumbent, the best record so far (ties to the earliest), misses a
    spec (SCBO's rule).

    The region was in use in each iteration whose incumbent met every spec.
    Such an iteration succeeds when it raises the best FOM by more than
    ``TR_RISE * |best before|``. ``TR_SUCCESS_STREAK`` successes in a row
    double the length, up to ``TR_LENGTH_MAX``; ⌈max(4/q, d/q)⌉ failures in
    a row halve it, q the points an iteration evaluates and d the dimension;
    below ``TR_LENGTH_MIN`` it restarts at ``TR_LENGTH_INIT``. Only the
    records' iterations, FOMs and metrics enter, so a run log's eval lines
    rebuild it.
    """
    fail_streak = math.ceil(max(4, d) / q)
    length, successes, failures = TR_LENGTH_INIT, 0, 0
    incumbent = None
    for iteration, group in itertools.groupby(records, key=lambda r: r.iteration):
        before = incumbent
        for record in group:
            if incumbent is None or record.fom > incumbent.fom:
                incumbent = record
        if iteration == 0 or count_missed_specs(before.metrics, fom) > 0:
            continue
        if incumbent.fom > before.fom + TR_RISE * abs(before.fom):
            successes, failures = successes + 1, 0
        else:
            successes, failures = 0, failures + 1
        if successes == TR_SUCCESS_STREAK:
            length, successes = min(2.0 * length, TR_LENGTH_MAX), 0
        elif failures == fail_streak:
            length, failures = length / 2.0, 0
        if length < TR_LENGTH_MIN:
            length = TR_LENGTH_INIT
    if count_missed_specs(incumbent.metrics, fom) > 0:
        return None
    return {"length": length, "successes": successes, "failures": failures}


def trust_region_box(
    model: GpModel, center: np.ndarray, length: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of the box around ``center`` with half-side
    ``length * w_i / 2``, w the model's lengthscales over their geometric
    mean, clipped to the unit cube."""
    w = model.lengthscales / np.exp(np.mean(np.log(model.lengthscales)))
    half = length * w / 2.0
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def propose_batch(
    model: GpModel,
    space: DesignSpace,
    best: float,
    batch_size: int,
    config: AcquisitionConfig,
    rng: np.random.Generator,
    seed: int,
    box: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[DesignPoint]:
    """Greedy sequential batch of ``batch_size`` points maximizing Monte-Carlo qEI.

    The base draws of ``seed`` are made once per batch; slot ``j`` uses their first
    ``j + 1`` columns. Each slot builds one scorer over its fixed prefix and
    scores ``raw_candidates`` uniform points with it. The top ``restarts`` of
    them start one joint L-BFGS run on the sum of their qEI values, through a
    logistic reparameterization of the unit cube, using the scorer's exact
    pathwise gradient on the fixed draws; ``maxiter`` caps that joint run.
    The best raw candidate is the fallback: an optimum replaces it only when
    its re-scored value is finite and higher, and a failed run keeps it.

    ``box``, a ``(lo, hi)`` pair in the unit cube, confines the batch: raw
    candidates are ``lo + span * u`` and the logistic map becomes
    ``lo + span * expit(z)``. No box is the unit cube, on the same bits.
    """
    d = space.dimension
    lo, hi = box if box is not None else (np.zeros(d), np.ones(d))
    span = hi - lo

    def in_box(u):
        # lo + span * u can round an ulp past hi
        return np.minimum(lo + span * u, hi)

    Z = _base_draws(seed, batch_size, config.mc_samples)
    chosen: list[np.ndarray] = []
    for slot in range(batch_size):
        prefix = np.array(chosen) if chosen else np.empty((0, d))
        cands = in_box(rng.uniform(size=(config.raw_candidates, d)))
        score = _slot_scorer(model, prefix, Z[:, : slot + 1], best)
        scores = score(cands)
        order = np.argsort(-scores, kind="stable")
        slot_x = cands[order[0]]
        slot_val = scores[order[0]]
        starts = cands[order[: config.restarts]]

        def neg_total_and_grad(z):
            s = expit(z.reshape(starts.shape))
            values, grad = score(in_box(s), grad=True)
            grad *= span
            grad *= s
            grad *= 1.0 - s
            return -values.sum(), -grad.ravel()

        z0 = logit(np.clip((starts - lo) / span, _LOGIT_EPS, 1.0 - _LOGIT_EPS)).ravel()
        try:
            z = _lbfgsb(neg_total_and_grad, z0, None, None, config.maxiter)
            if np.all(np.isfinite(z)):
                optima = in_box(expit(z.reshape(starts.shape)))
                for x_opt, val in zip(optima, score(optima)):
                    if np.isfinite(val) and val > slot_val:
                        slot_val = val
                        slot_x = x_opt
        except (NumericalError, FloatingPointError, np.linalg.LinAlgError):
            pass
        chosen.append(slot_x)
    return [from_unit_cube(space, u) for u in chosen]
