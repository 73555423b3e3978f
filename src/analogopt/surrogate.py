"""Gaussian-process regression with an anisotropic RBF kernel.

Inputs live on the unit cube (see :func:`to_unit_cube`); targets are
standardized to zero mean and unit variance before fitting. Hyperparameters
(per-dimension lengthscales, signal variance, noise variance) are chosen by
maximizing the log marginal likelihood with multi-restart L-BFGS-B in log
space, using the analytic gradient (Rasmussen & Williams, *GPML*, Alg. 2.1
and eq. 5.9).

What a fit needs from the inputs is computed once per fit: the pairwise
squared differences, as one (n*n, d) table. Each objective call builds the
kernel from it with one matrix-vector product and takes the lengthscale
gradient with another. The factorization, the solves and the inverse call
LAPACK (``potrf``, ``potrs``, ``trtri``, ``trtrs``) directly: at the
n <= 105 of a run, scipy's per-call argument handling costs as much as the
arithmetic. Past the fit there is one cross kernel, :func:`rbf_kernel`, and
one posterior helper, which :func:`gp_predict` and the qEI scorer share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs
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
        if not 0.0 < self.noise_floor < NOISE_CEILING:
            raise ValueError(f"noise_floor must be in (0, {NOISE_CEILING:g})")
        if self.maxiter < 0:
            raise ValueError("maxiter must be >= 0")


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
    A: np.ndarray,
    B: np.ndarray,
    lengthscales: np.ndarray | float,
    signal_variance: float,
) -> np.ndarray:
    """k(a, b) = signal_variance * exp(-0.5 |s_a - s_b|^2), s = x / l, for the
    rows of A and B, as |s_a|^2 + |s_b|^2 - 2 s_a.s_b clipped at 0."""
    a = A / lengthscales
    b = B / lengthscales
    sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
    return signal_variance * np.exp(-0.5 * np.maximum(sq, 0.0))


def _chol_with_jitter(matrix):
    """Lower Cholesky factor, escalating diagonal jitter x10 up to JITTER_MAX.

    Calls LAPACK ``potrf`` directly (the routine behind
    ``scipy.linalg.cholesky``, without its per-call wrapper); the factor is
    Fortran-ordered with zeros above the diagonal. Non-finite input raises
    ``ValueError``, as ``cholesky`` does: ``potrf`` itself can miss a NaN.
    """
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must contain only finite values")
    L, info = dpotrf(matrix, lower=1)
    if info == 0:
        return L, 0.0
    jitter = JITTER_START
    eye = np.eye(matrix.shape[0])
    while jitter <= JITTER_MAX:
        L, info = dpotrf(matrix + jitter * eye, lower=1)
        if info == 0:
            return L, jitter
        jitter *= 10.0
    raise NumericalError(
        f"kernel matrix not positive definite after jitter {JITTER_MAX:g}"
    )


def _solve_lower(L, B):
    """``L^-1 B`` for lower-triangular ``L`` (LAPACK ``trtrs``, the routine
    behind ``solve_triangular``, without its per-call validation)."""
    x, info = dtrtrs(L, B, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular triangular factor (trtrs info {info})")
    return x


def log_marginal_likelihood(
    X: np.ndarray,
    y: np.ndarray,
    lengthscales: np.ndarray | float,
    signal_variance: float,
    noise_variance: float,
) -> tuple[float, np.ndarray]:
    """Exact Gaussian log marginal likelihood of ``y`` under the RBF kernel,
    and its gradient w.r.t. (log lengthscales, log signal, log noise)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    return _lml_and_grad(
        y,
        np.asarray(lengthscales, dtype=float) * np.ones(X.shape[1]),
        signal_variance,
        noise_variance,
        *_fit_invariants(X),
    )


def _fit_invariants(X):
    """The parts of the LML that depend on X alone, fixed for a whole fit.

    Returns the pairwise squared differences as one (n*n, d) table, row
    i*n + j holding (x_i - x_j)**2, and the n x n identity. The table is
    Fortran-ordered, so both products with it run down contiguous columns.
    """
    cols = np.ascontiguousarray(X.T)
    diff = cols[:, :, None] - cols[:, None, :]
    np.square(diff, out=diff)
    return diff.reshape(X.shape[1], -1).T, np.eye(X.shape[0])


def _train_kernel(sqdiff, inv_l2, signal_variance, n):
    """K over the training inputs from the :func:`_fit_invariants` table.

    Summing squared differences directly has none of the cancellation of
    the |a|^2 + |b|^2 - 2 a.b form, and the diagonal is exactly
    ``signal_variance``.
    """
    K = sqdiff @ (-0.5 * inv_l2)
    np.exp(K, out=K)
    K *= signal_variance
    return K.reshape(n, n)


def _lml_and_grad(y, lengthscales, signal_variance, noise_variance, sqdiff, eye):
    n = y.shape[0]
    inv_l2 = lengthscales**-2.0
    K = _train_kernel(sqdiff, inv_l2, signal_variance, n)
    L, _ = _chol_with_jitter(K + noise_variance * eye)
    alpha = dpotrs(L, y, lower=1)[0]
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(L.diagonal())))
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # d lml / d theta_j = 0.5 sum((alpha alpha^T - K^-1) . dK/dtheta_j),
    # theta in log space: dK/dlog l_i = K . D_i (D_i the scaled squared
    # differences), dK/dlog sv = K, d(K + nv I)/dlog nv = nv I.
    # K^-1 = L^-T L^-1: trtri inverts the factor (potrf left it a positive
    # diagonal, so trtri cannot find it singular) and one transposed
    # triangular solve applies L^-T. With OpenBLAS at 1, 2 and 4 threads
    # (n <= 120) both give the same bits; potri (via lauum) and syrk do not.
    L_inv = dtrtri(L, lower=1)[0]
    W = np.outer(alpha, alpha)
    W -= dtrtrs(L, L_inv, lower=1, trans=1)[0]
    M = W * K
    grad = np.empty(lengthscales.shape[0] + 2)
    grad[:-2] = 0.5 * (M.ravel() @ sqdiff) * inv_l2
    grad[-2] = 0.5 * float(np.sum(M))
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
    sqdiff, eye = _fit_invariants(X)

    def objective(theta):
        ls = np.exp(theta[:d])
        sv = math.exp(theta[d])
        nv = math.exp(theta[d + 1])
        try:
            lml, grad = _lml_and_grad(y_std, ls, sv, nv, sqdiff, eye)
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
        # Not redundant: an ABNORMAL L-BFGS-B exit can leave result.fun != f(result.x)
        # (18 of 400 branin gp_bo restarts; -result.fun moved 10 of 20 run logs).
        try:
            lml, _ = _lml_and_grad(
                y_std,
                np.exp(candidate[:d]),
                math.exp(candidate[d]),
                math.exp(candidate[d + 1]),
                sqdiff,
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
    K = _train_kernel(sqdiff, ls**-2.0, sv, X.shape[0])
    L, jitter = _chol_with_jitter(K + nv * eye)
    alpha = dpotrs(L, y_std, lower=1)[0]
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


def _posterior(model, Q):
    """Mean and symmetrized covariance at the rows of ``Q`` in target units,
    and ``V = L^-1 k(train, Q)``; train and query rows share one kernel block."""
    n = model.train_inputs.shape[0]
    K = rbf_kernel(
        np.vstack([model.train_inputs, Q]), Q, model.lengthscales,
        model.signal_variance,
    )
    V = _solve_lower(model.chol, K[:n])
    mean = model.target_mean + model.target_std * (K[:n].T @ model.alpha)
    cov = model.target_std**2 * (K[n:] - V.T @ V)
    return mean, 0.5 * (cov + cov.T), V


def gp_predict(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and full covariance at the query points, in target units.

    The covariance is the latent (noise-free) posterior covariance,
    symmetrized to guard against round-off.
    """
    mean, cov, _ = _posterior(model, np.atleast_2d(np.asarray(queries, dtype=float)))
    return mean, cov
