"""Expected-improvement acquisition: closed-form EI, Monte-Carlo qEI, and
greedy batch construction by L-BFGS on the pathwise qEI gradient.

qEI uses common random numbers: the base normal draws are a fixed function of
the call's seed, drawn block-wise per batch slot so that the draws for
the first q slots coincide for every batch size >= q; a batch draws them once
and slot j reads the first j + 1 columns. The batch is built greedily: each
slot maximizes the qEI of (already chosen + candidate), which only needs a
rank-one border on the fixed prefix Cholesky factor. The model owns the
posterior and the acquisition the draws and the utility, as in BoTorch: a
slot's scorer takes the joint sample from
:func:`analogopt.surrogate._joint_sample`, and :func:`_improvement` maps it
to the clipped improvement and its per-draw derivative u'. :func:`qei_mc` is
that scorer's last slot: the qEI of a batch is the score of its last point
behind the rest as prefix.

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
from .surrogate import GpModel, NumericalError, gp_predict
from .surrogate import _joint_sample, _kernels, _lbfgsb

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
    return max(float((mu - best) * _kernels().ndtr(z) + sigma * pdf), 0.0)


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
    kernels = _kernels()
    expit, logit = kernels.expit, kernels.logit
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
