"""Gaussian-process regression with an anisotropic RBF kernel.

Inputs live on the unit cube (see :func:`analogopt.core.to_unit_cube`);
targets are standardized to zero mean and unit variance before fitting.
Hyperparameters (per-dimension lengthscales, signal variance, noise
variance) are chosen by maximizing the log marginal likelihood with
multi-restart L-BFGS-B in log space, using the analytic gradient (Rasmussen
& Williams, *GPML*, Alg. 2.1 and eq. 5.9). The box is fixed:
``LENGTHSCALE_BOUNDS``, ``SIGNAL_BOUNDS``, and ``NOISE_FLOOR`` to
``NOISE_CEILING`` for the noise variance.

What a fit needs from the inputs is computed once per fit: the pairwise
squared differences, as one (n*n, d) table. Each objective call builds the
kernel from it with one matrix-vector product, adds the noise to the
diagonal of a copy (the bits of ``K + noise * I``, with no identity
matrix), and takes the lengthscale gradient with another product. The
factorization, the solves and the inverse call LAPACK (``potrf``,
``potrs``, ``trtri``, ``trtrs``) directly: at the n <= 105 of a run,
scipy's per-call argument handling costs as much as the arithmetic, and
so does numpy's, which is why the hot path works in place wherever that
keeps every operand, order and memory layout. One routine, :func:`_factor`,
builds K, its Cholesky factor, alpha and the LML; the objective adds the
gradient to it and holds no state. A fit factors each restart's final x
once more, whether or not the driver evaluated it last, and the model is
the best restart's factorization, with no refit. Past the fit there is one
cross kernel, :func:`rbf_kernel`; :func:`gp_predict` and the qEI sample of
:mod:`analogopt.acquisition` each read their posterior off one kernel block
of training and query rows.

Both L-BFGS-B problems of a run, this fit and the stacked qEI restarts of
:mod:`analogopt.acquisition`, go through one driver, :func:`_lbfgsb`. It is
the loop of ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` around
the ``setulb`` kernel (Zhu, Byrd, Lu & Nocedal, ACM TOMS 1997, Alg. 778),
with the same defaults and stops, so it returns the same bits after the same
objective calls. It exists for two costs: ``minimize`` wraps each objective
call in ~40 us of Python bookkeeping, on ~3,000 calls per 55-evaluation
``ado_llm`` run, and ``import scipy.optimize`` adds 0.25-0.4 s to every cold
start.

Every compiled scipy routine a run calls comes through one loader,
:func:`_scipy_extension`, which loads an extension module from its file in
scipy's package directory without running that package's ``__init__`` or
scipy's own: the directory is located, not imported, and the version is read
from scipy's metadata only to name it in an error.
``setulb`` from ``optimize/_lbfgsb``, the four LAPACK calls from
``linalg/_flapack``, and ``expit``, ``logit`` and ``ndtr`` (used by
:mod:`analogopt.acquisition`) from ``special/_special_ufuncs``. These are the
objects ``scipy.optimize``, ``scipy.linalg.lapack`` and ``scipy.special``
re-export, so every result is the same bits. The package ``__init__`` files
are what a cold start would otherwise pay for: ``scipy.linalg`` alone pulls
in ``numpy.f2py`` and ``numpy.testing`` through scipy's array-API layer
(~0.3 s under ``python -X importtime``), ``scipy.special`` another ~0.08 s,
and ``scipy`` itself 11-17 ms.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LENGTHSCALE_BOUNDS = (1e-3, 1e3)
SIGNAL_BOUNDS = (1e-9, 1e6)
NOISE_FLOOR = 1e-6
NOISE_CEILING = 1e3
JITTER_START = 1e-10
JITTER_MAX = 1e-4


class NumericalError(RuntimeError):
    """A kernel matrix stayed non-positive-definite past the jitter ceiling."""


# L-BFGS-B settings: the defaults of scipy's ``minimize(method="L-BFGS-B")``.
LBFGSB_MAXCOR = 10
LBFGSB_FTOL = 2.2204460492503131e-09
LBFGSB_GTOL = 1e-5
LBFGSB_MAXLS = 20
LBFGSB_MAXFUN = 15000
# setulb's task codes (task[0]) and the stop reasons (task[1]) the driver sets.
_TASK_NEW_X, _TASK_FG, _TASK_STOP = 1, 3, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504
_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)


# scipy's package directory, located without running its __init__.
_SCIPY_SPEC = importlib.util.find_spec("scipy")
if _SCIPY_SPEC is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_SCIPY_DIR = Path(_SCIPY_SPEC.submodule_search_locations[0])


def _scipy_extension(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, loaded from its file
    without running ``scipy.<package>``'s ``__init__``. Loading enters it in
    ``sys.modules``; the entry is taken out again, so that scipy's own import
    binds the module to its package. These extensions initialize once per
    process and a second load copies the first one's namespace, so scipy and
    this loader hold the same objects whichever loads first."""
    fullname = f"scipy.{package}.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(
        fullname, [str(_SCIPY_DIR / package)]
    )
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no {package}/{name} extension")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(fullname, None)
    return module


def _load_setulb():
    """scipy's L-BFGS-B kernel, from its ``optimize/_lbfgsb`` extension.

    The driver passes arguments by position, so a kernel whose signature
    differs from the one it was written against is refused.
    """
    setulb = _scipy_extension("optimize", "_lbfgsb").setulb
    if setulb.__doc__ != _SETULB_SIGNATURE:
        from importlib.metadata import version

        raise ImportError(
            f"scipy {version('scipy')}: L-BFGS-B kernel signature "
            f"{setulb.__doc__!r}, expected {_SETULB_SIGNATURE!r}"
        )
    return setulb


_setulb = _load_setulb()
_flapack = _scipy_extension("linalg", "_flapack")
dpotrf, dpotrs, dtrtri, dtrtrs = (
    _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtri, _flapack.dtrtrs
)


def _lbfgsb(fun, x0, lower, upper, maxiter):
    """Minimize ``fun`` by L-BFGS-B from ``x0``; return the final x.

    ``fun(x)`` returns ``(f, gradient)`` and must not write into ``x``.
    ``lower`` and ``upper`` are finite box bounds, or both None. This is the
    loop of ``scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
    bounds=..., options={"maxiter": maxiter})`` with its default settings:
    the same x0 clipping, the same evaluations (the kernel's first request
    for f and g is at x0, where ``minimize`` evaluates before its loop), the
    same reuse of the last (f, g) when the kernel asks again at the same x,
    and the same ``maxiter``/``maxfun`` stops. An iteration is counted
    before the cap is checked, so ``maxiter`` 0 and 1 both run one
    iteration. Exceptions from ``fun`` propagate.
    """
    x = np.array(x0, dtype=np.float64).ravel()
    n = x.shape[0]
    if lower is None:
        nbd, lower, upper = np.zeros(n, np.int32), np.zeros(n), np.zeros(n)
    else:
        x = np.clip(x, lower, upper)
        nbd = np.full(n, 2, np.int32)  # bounded on both sides
    m = LBFGSB_MAXCOR
    factr = LBFGSB_FTOL / np.finfo(float).eps
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)

    x_eval = np.full(n, np.nan)  # equals no x, so the first request evaluates
    nfev = 0
    f = np.array(0.0)
    g = np.zeros(n)
    n_iter = 0
    while True:
        _setulb(m, x, lower, upper, nbd, f, g, factr, LBFGSB_GTOL, wa, iwa, task,
                lsave, isave, dsave, LBFGSB_MAXLS, ln_task)
        if task[0] == _TASK_FG:
            if not (x == x_eval).all():
                x_eval = x.copy()
                f_eval, g_eval = fun(x_eval)
                nfev += 1
            # A copy: restoring an iterate after a failed line search, the
            # kernel writes the old gradient into g, and g_eval may be reused.
            f, g = f_eval, np.array(g_eval, dtype=np.float64)
        elif task[0] == _TASK_NEW_X:
            n_iter += 1
            if n_iter >= maxiter:
                task[0], task[1] = _TASK_STOP, _STOP_MAXITER
            elif nfev > LBFGSB_MAXFUN:
                task[0], task[1] = _TASK_STOP, _STOP_MAXFUN
        else:
            return x


@dataclass(frozen=True)
class GpFitConfig:
    """Hyperparameter fit settings.

    ``maxiter`` caps each restart's L-BFGS-B iterations. The count is taken
    before the cap is checked, so 0 acts as 1: one iteration.
    """

    restarts: int = 8
    maxiter: int = 100

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
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


def rbf_kernel(
    A: np.ndarray,
    B: np.ndarray,
    lengthscales: np.ndarray | float,
    signal_variance: float,
) -> np.ndarray:
    """k(a, b) = signal_variance * exp(-0.5 |s_a - s_b|^2), s = x / l, for the
    rows of A and B, as |s_a|^2 + |s_b|^2 - 2 s_a.s_b clipped at 0."""
    return _rbf_cross(_kernel_rows(A, lengthscales), B, lengthscales, signal_variance)


def _kernel_rows(A, lengthscales):
    """What :func:`rbf_kernel` takes from its left rows: |s_a|^2 as a column,
    and 2 s_a. A caller that keeps the rows fixed computes this once."""
    a = A / lengthscales
    return np.sum(a**2, axis=1)[:, None], 2.0 * a


def _rbf_cross(rows, B, lengthscales, signal_variance):
    """:func:`rbf_kernel` with its left rows prepared by :func:`_kernel_rows`."""
    a_sq, a2 = rows
    b = B / lengthscales
    sq = a_sq + (b**2).sum(axis=1)[None, :]
    sq -= a2 @ b.T
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= signal_variance
    return sq


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
    while jitter <= JITTER_MAX:
        L, info = dpotrf(_with_noise(matrix, jitter), lower=1)
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
        _fit_invariants(X),
    )


def _fit_invariants(X):
    """The part of the LML that depends on X alone, fixed for a whole fit:
    the pairwise squared differences as one (n*n, d) table, row i*n + j
    holding (x_i - x_j)**2. The table is Fortran-ordered, so both products
    with it run down contiguous columns.
    """
    cols = np.ascontiguousarray(X.T)
    diff = cols[:, :, None] - cols[:, None, :]
    np.square(diff, out=diff)
    return diff.reshape(X.shape[1], -1).T


def _with_noise(K, noise_variance):
    """``K + noise_variance * I`` on the diagonal of a copy: the sum's bits
    unless K holds an off-diagonal -0.0, which none here does (kernel entries
    are positive, and ``k - v^T v`` cancels to +0.0)."""
    A = K.copy()
    A.ravel()[:: K.shape[0] + 1] += noise_variance
    return A


def _factor(y, lengthscales, signal_variance, noise_variance, sqdiff):
    """The LML of ``y`` and what it is computed from: K, the lower Cholesky
    factor L of K + noise * I (plus the returned jitter, if escalation was
    needed), and alpha = (K + noise * I)^-1 y."""
    n = y.shape[0]
    # K from the _fit_invariants table: summing the squared differences
    # directly has none of the cancellation of the |a|^2 + |b|^2 - 2 a.b
    # form, and the diagonal is exactly signal_variance.
    K = sqdiff @ (-0.5 * lengthscales**-2.0)
    np.exp(K, out=K)
    K *= signal_variance
    K = K.reshape(n, n)
    L, jitter = _chol_with_jitter(_with_noise(K, noise_variance))
    alpha = dpotrs(L, y, lower=1)[0]
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.log(L.diagonal()).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    return lml, K, L, alpha, jitter


def _lml_and_grad(y, lengthscales, signal_variance, noise_variance, sqdiff):
    lml, K, L, alpha, _ = _factor(
        y, lengthscales, signal_variance, noise_variance, sqdiff
    )

    # d lml / d theta_j = 0.5 sum((alpha alpha^T - K^-1) . dK/dtheta_j),
    # theta in log space: dK/dlog l_i = K . D_i (D_i the scaled squared
    # differences), dK/dlog sv = K, d(K + nv I)/dlog nv = nv I.
    # K^-1 = L^-T L^-1: trtri inverts the factor (potrf left it a positive
    # diagonal, so trtri cannot find it singular) and one transposed
    # triangular solve applies L^-T. With OpenBLAS at 1, 2 and 4 threads
    # (n <= 120) both give the same bits; potri (via lauum) and syrk do not.
    L_inv = dtrtri(L, lower=1)[0]
    W = alpha[:, None] * alpha
    W -= dtrtrs(L, L_inv, lower=1, trans=1, overwrite_b=1)[0]  # solved in L_inv
    grad = np.empty(lengthscales.shape[0] + 2)
    grad[-1] = 0.5 * noise_variance * float(W.trace())
    W *= K  # now (alpha alpha^T - K^-1) . K, C-ordered as W was
    grad[:-2] = 0.5 * (W.ravel() @ sqdiff) * lengthscales**-2.0
    grad[-2] = 0.5 * float(W.sum())
    return lml, grad


def gp_fit(
    X: np.ndarray, y: np.ndarray, config: GpFitConfig | None = None, seed: int = 0
) -> GpModel:
    """Fit hyperparameters by multi-restart maximum marginal likelihood.

    Restart 0 starts from fixed defaults; the rest are log-uniform draws from
    a stream seeded with ``seed``, so the result is deterministic given it.
    Each restart's final x is factored once; a restart whose kernel cannot be
    factored is dropped, the highest LML wins, and ties keep the lowest
    restart index. The model holds that restart's factorization.
    """
    config = config or GpFitConfig()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError(f"invalid shapes: X {X.shape}, y {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    mean, std = float(np.mean(y)), float(np.std(y))
    if std < 1e-12:
        std = 1.0  # constant targets: keep the map well-defined
    y_std = (y - mean) / std
    d = X.shape[1]

    lo = np.log(
        np.concatenate(
            [
                np.full(d, LENGTHSCALE_BOUNDS[0]),
                [SIGNAL_BOUNDS[0]],
                [NOISE_FLOOR],
            ]
        )
    )
    hi = np.log(
        np.concatenate(
            [np.full(d, LENGTHSCALE_BOUNDS[1]), [SIGNAL_BOUNDS[1]], [NOISE_CEILING]]
        )
    )
    sqdiff = _fit_invariants(X)

    def hyperparameters(theta):
        return np.exp(theta[:d]), math.exp(theta[d]), math.exp(theta[d + 1])

    def objective(theta):
        try:
            lml, grad = _lml_and_grad(y_std, *hyperparameters(theta), sqdiff)
        except NumericalError:
            return 1e25, np.zeros_like(theta)
        return -lml, -grad

    rng = np.random.default_rng(seed)
    starts = [
        np.concatenate([np.full(d, math.log(0.5)), [0.0], [math.log(1e-3)]])
    ]
    for _ in range(config.restarts - 1):
        ls0 = rng.uniform(math.log(0.05), math.log(2.0), size=d)
        sv0 = rng.uniform(math.log(0.2), math.log(5.0))
        nv0 = rng.uniform(math.log(NOISE_FLOOR), math.log(1e-2))
        starts.append(np.concatenate([ls0, [sv0], [nv0]]))

    best_lml, best = -np.inf, None
    for theta0 in starts:
        theta0 = np.clip(theta0, lo, hi)
        theta = _lbfgsb(objective, theta0, lo, hi, config.maxiter)
        hyper = hyperparameters(theta if np.all(np.isfinite(theta)) else theta0)
        try:
            lml, _, L, alpha, jitter = _factor(y_std, *hyper, sqdiff)
        except NumericalError:
            continue
        if lml > best_lml:
            best_lml, best = lml, (hyper, L, alpha, jitter)
    if best is None:
        raise NumericalError("all hyperparameter restarts failed")

    (ls, sv, nv), L, alpha, jitter = best
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
    n = model.train_inputs.shape[0]
    K = rbf_kernel(
        np.vstack([model.train_inputs, Q]), Q, model.lengthscales,
        model.signal_variance,
    )
    V = _solve_lower(model.chol, K[:n])
    mean = model.target_mean + model.target_std * (K[:n].T @ model.alpha)
    cov = model.target_std**2 * (K[n:] - V.T @ V)
    return mean, 0.5 * (cov + cov.T)
