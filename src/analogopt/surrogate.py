"""Gaussian-process regression with an anisotropic RBF kernel.

Inputs live on the unit cube (see :func:`to_unit_cube`); targets are
standardized to zero mean and unit variance before fitting. Hyperparameters
(per-dimension lengthscales, signal variance, noise variance) are chosen by
maximizing the log marginal likelihood with multi-restart L-BFGS-B in log
space, using the analytic gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .core import DesignPoint, DesignSpace, RangeError, Scale

LENGTHSCALE_BOUNDS = (1e-3, 1e3)
SIGNAL_BOUNDS = (1e-9, 1e6)
NOISE_CEILING = 1e3
JITTER_START = 1e-10
JITTER_MAX = 1e-4


class NumericalError(RuntimeError):
    """A kernel matrix stayed non-positive-definite past the jitter ceiling."""


@dataclass(frozen=True)
class GpFitConfig:
    restarts: int = 8
    noise_floor: float = 1e-6
    maxiter: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class GpModel:
    """A fitted GP: training data, hyperparameters, and the Cholesky factor.

    ``train_targets`` are standardized; ``target_mean``/``target_std``
    restore the original units. ``chol`` is the lower-triangular factor of
    K + noise_variance * I (plus ``jitter`` if escalation was needed), and
    ``alpha`` solves (K + noise * I) alpha = train_targets.
    """

    train_inputs: np.ndarray
    train_targets: np.ndarray
    lengthscales: np.ndarray
    signal_variance: float
    noise_variance: float
    chol: np.ndarray
    alpha: np.ndarray
    target_mean: float
    target_std: float
    log_marginal: float
    jitter: float = 0.0


def to_unit_cube(space: DesignSpace, point: DesignPoint) -> np.ndarray:
    """Map a design point onto [0, 1]^d (log map for logarithmic parameters)."""
    if len(point) != space.dimension:
        raise ValueError(
            f"point has {len(point)} values, space has dimension {space.dimension}"
        )
    out = np.empty(space.dimension)
    for i, (p, v) in enumerate(zip(space.parameters, point.values)):
        if not p.lower <= v <= p.upper:
            raise RangeError(
                f"{p.name} = {v!r} outside range [{p.lower!r}, {p.upper!r}]"
            )
        if p.scale is Scale.LOG:
            out[i] = (math.log(v) - math.log(p.lower)) / (
                math.log(p.upper) - math.log(p.lower)
            )
        else:
            out[i] = (v - p.lower) / (p.upper - p.lower)
    return out


def from_unit_cube(space: DesignSpace, u: np.ndarray) -> DesignPoint:
    """Inverse of :func:`to_unit_cube`; coordinates are clipped to [0, 1]."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    if u.shape != (space.dimension,):
        raise ValueError(f"expected shape ({space.dimension},), got {u.shape}")
    values = []
    for p, t in zip(space.parameters, u):
        if p.scale is Scale.LOG:
            v = math.exp(
                math.log(p.lower) + t * (math.log(p.upper) - math.log(p.lower))
            )
        else:
            v = p.lower + t * (p.upper - p.lower)
        # exp/log round-off can land an ulp outside the box at the endpoints
        values.append(min(max(v, p.lower), p.upper))
    return DesignPoint(tuple(values))


def rbf_kernel(
    a: np.ndarray,
    b: np.ndarray,
    lengthscales: np.ndarray | float,
    signal_variance: float,
) -> float:
    """k(a, b) = signal_variance * exp(-0.5 * sum(((a_i - b_i) / l_i)^2))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = (a - b) / lengthscales
    return float(signal_variance * np.exp(-0.5 * np.dot(d, d)))


def _scaled(x, lengthscales):
    """Inputs divided by the lengthscales, with their squared row norms."""
    s = x / lengthscales
    return s, np.sum(s**2, axis=1)


def _rbf_from_scaled(a, b, signal_variance):
    """RBF matrix between two :func:`_scaled` input sets."""
    (s1, sq1), (s2, sq2) = a, b
    sq = sq1[:, None] + sq2[None, :] - 2.0 * s1 @ s2.T
    return signal_variance * np.exp(-0.5 * np.maximum(sq, 0.0))


def _rbf_matrix(x1, x2, lengthscales, signal_variance):
    return _rbf_from_scaled(
        _scaled(x1, lengthscales), _scaled(x2, lengthscales), signal_variance
    )


def _chol_with_jitter(matrix):
    """Lower Cholesky factor, escalating diagonal jitter x10 up to JITTER_MAX."""
    try:
        return cholesky(matrix, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_START
    eye = np.eye(matrix.shape[0])
    while jitter <= JITTER_MAX:
        try:
            return cholesky(matrix + jitter * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"kernel matrix not positive definite after jitter {JITTER_MAX:g}"
    )


def log_marginal_likelihood(
    X: np.ndarray,
    y: np.ndarray,
    lengthscales: np.ndarray | float,
    signal_variance: float,
    noise_variance: float,
) -> float:
    """Exact Gaussian log marginal likelihood of ``y`` under the RBF kernel."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lml, _ = _lml_and_grad(
        X,
        np.asarray(y, dtype=float),
        np.asarray(lengthscales, dtype=float) * np.ones(X.shape[1]),
        signal_variance,
        noise_variance,
        *_fit_invariants(X),
    )
    return lml


def lml_gradient(
    X: np.ndarray,
    y: np.ndarray,
    lengthscales: np.ndarray | float,
    signal_variance: float,
    noise_variance: float,
) -> np.ndarray:
    """Gradient of the LML w.r.t. (log lengthscales, log signal, log noise)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, grad = _lml_and_grad(
        X,
        np.asarray(y, dtype=float),
        np.asarray(lengthscales, dtype=float) * np.ones(X.shape[1]),
        signal_variance,
        noise_variance,
        *_fit_invariants(X),
    )
    return grad


def _fit_invariants(X):
    """The parts of the LML that depend on X alone, fixed for a whole fit.

    Returns X centred per dimension (the lengthscale gradient depends on
    pairwise differences only, and centring keeps its matmul form from
    cancelling) and the n x n identity.
    """
    return X - np.mean(X, axis=0), np.eye(X.shape[0])


def _lml_and_grad(X, y, lengthscales, signal_variance, noise_variance, centered, eye):
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    n = X.shape[0]
    K = _rbf_matrix(X, X, lengthscales, signal_variance)
    L, _ = _chol_with_jitter(K + noise_variance * eye)
    alpha = cho_solve((L, True), y)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j),
    # theta in log space: dK/dlog l_i = K . D_i, dK/dlog sv = K,
    # d(K + nv I)/dlog nv = nv I.
    Kinv = cho_solve((L, True), eye)
    W = np.outer(alpha, alpha) - Kinv
    M = W * K
    r = np.sum(M, axis=1)
    grad = np.empty(X.shape[1] + 2)
    # 0.5 sum_jk M_jk (x_ji - x_ki)^2 = r @ x_i^2 - x_i @ M @ x_i, M symmetric.
    grad[:-2] = (
        r @ centered**2 - np.sum(centered * (M @ centered), axis=0)
    ) / lengthscales**2
    grad[-2] = 0.5 * float(np.sum(r))
    grad[-1] = 0.5 * noise_variance * float(np.trace(W))
    return lml, grad


def _standardize(y):
    mean = float(np.mean(y))
    std = float(np.std(y))
    if std < 1e-12:
        std = 1.0  # constant targets: keep the map well-defined
    return (y - mean) / std, mean, std


def gp_fit(X: np.ndarray, y: np.ndarray, config: GpFitConfig | None = None) -> GpModel:
    """Fit hyperparameters by multi-restart maximum marginal likelihood.

    Restart 0 starts from fixed defaults; the rest are log-uniform draws from
    a seeded stream, so the result is deterministic given ``config.seed``.
    Ties between restarts keep the lowest restart index.
    """
    config = config or GpFitConfig()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError(f"invalid shapes: X {X.shape}, y {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    y_std, mean, std = _standardize(y)
    d = X.shape[1]

    lo = np.log(
        np.concatenate(
            [
                np.full(d, LENGTHSCALE_BOUNDS[0]),
                [SIGNAL_BOUNDS[0]],
                [config.noise_floor],
            ]
        )
    )
    hi = np.log(
        np.concatenate(
            [np.full(d, LENGTHSCALE_BOUNDS[1]), [SIGNAL_BOUNDS[1]], [NOISE_CEILING]]
        )
    )
    bounds = list(zip(lo, hi))
    centered, eye = _fit_invariants(X)

    def objective(theta):
        ls = np.exp(theta[:d])
        sv = math.exp(theta[d])
        nv = math.exp(theta[d + 1])
        try:
            lml, grad = _lml_and_grad(X, y_std, ls, sv, nv, centered, eye)
        except NumericalError:
            return 1e25, np.zeros_like(theta)
        return -lml, -grad

    rng = np.random.default_rng(config.seed)
    starts = [
        np.concatenate([np.full(d, math.log(0.5)), [0.0], [math.log(1e-3)]])
    ]
    for _ in range(config.restarts - 1):
        ls0 = rng.uniform(math.log(0.05), math.log(2.0), size=d)
        sv0 = rng.uniform(math.log(0.2), math.log(5.0))
        nv0 = rng.uniform(math.log(max(config.noise_floor, 1e-6)), math.log(1e-2))
        starts.append(np.concatenate([ls0, [sv0], [nv0]]))

    best_theta = None
    best_lml = -np.inf
    for theta0 in starts:
        theta0 = np.clip(theta0, lo, hi)
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": config.maxiter},
        )
        candidate = result.x if np.all(np.isfinite(result.x)) else theta0
        try:
            lml, _ = _lml_and_grad(
                X,
                y_std,
                np.exp(candidate[:d]),
                math.exp(candidate[d]),
                math.exp(candidate[d + 1]),
                centered,
                eye,
            )
        except NumericalError:
            continue
        if lml > best_lml:
            best_lml = lml
            best_theta = candidate
    if best_theta is None:
        raise NumericalError("all hyperparameter restarts failed")

    ls = np.exp(best_theta[:d])
    sv = math.exp(best_theta[d])
    nv = math.exp(best_theta[d + 1])
    K = _rbf_matrix(X, X, ls, sv)
    L, jitter = _chol_with_jitter(K + nv * eye)
    alpha = cho_solve((L, True), y_std)
    return GpModel(
        train_inputs=X,
        train_targets=y_std,
        lengthscales=ls,
        signal_variance=sv,
        noise_variance=nv,
        chol=L,
        alpha=alpha,
        target_mean=mean,
        target_std=std,
        log_marginal=best_lml,
        jitter=jitter,
    )


def gp_predict(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and full covariance at the query points, in target units.

    The covariance is the latent (noise-free) posterior covariance,
    symmetrized to guard against round-off.
    """
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    Ks = _rbf_matrix(model.train_inputs, Q, model.lengthscales, model.signal_variance)
    Kqq = _rbf_matrix(Q, Q, model.lengthscales, model.signal_variance)
    mean_std = Ks.T @ model.alpha
    V = solve_triangular(model.chol, Ks, lower=True)
    cov_std = Kqq - V.T @ V
    cov_std = 0.5 * (cov_std + cov_std.T)
    mean = model.target_mean + model.target_std * mean_std
    cov = (model.target_std**2) * cov_std
    return mean, cov


def gp_predict_diag(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and marginal variance (cheaper than the full covariance)."""
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    Ks = _rbf_matrix(model.train_inputs, Q, model.lengthscales, model.signal_variance)
    mean_std = Ks.T @ model.alpha
    V = solve_triangular(model.chol, Ks, lower=True)
    var_std = np.maximum(model.signal_variance - np.sum(V**2, axis=0), 0.0)
    mean = model.target_mean + model.target_std * mean_std
    var = (model.target_std**2) * var_std
    return mean, var
