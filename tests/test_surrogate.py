import math
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import scipy
import scipy.special
from scipy.linalg import lapack
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from analogopt import acquisition, surrogate
from analogopt.acquisition import AcquisitionConfig, propose_batch
from analogopt.core import (
    DesignPoint,
    DesignSpace,
    Parameter,
    RangeError,
    Scale,
    design_space_contains,
    from_unit_cube,
    to_unit_cube,
)
from analogopt.evaluator import circuit_model
from analogopt.fom import FOM_PRESETS
from analogopt.surrogate import (
    JITTER_START,
    LENGTHSCALE_BOUNDS,
    NOISE_CEILING,
    NOISE_FLOOR,
    SIGNAL_BOUNDS,
    GpFitConfig,
    NumericalError,
    _chol_with_jitter,
    _lbfgsb,
    gp_fit,
    gp_predict,
    log_marginal_likelihood,
    rbf_kernel,
)


def _training_set(n=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.5
    return X, y


def dense_posterior(model, Q):
    """Textbook posterior via an explicit inverse (independent of the
    Cholesky path used by gp_predict)."""
    K = rbf_kernel(
        model.train_inputs, model.train_inputs, model.lengthscales,
        model.signal_variance,
    ) + (model.noise_variance + model.jitter) * np.eye(len(model.train_targets))
    Ks = rbf_kernel(model.train_inputs, Q, model.lengthscales, model.signal_variance)
    Kqq = rbf_kernel(Q, Q, model.lengthscales, model.signal_variance)
    Kinv = np.linalg.inv(K)
    mean = model.target_mean + model.target_std * (Ks.T @ Kinv @ model.train_targets)
    cov = model.target_std**2 * (Kqq - Ks.T @ Kinv @ Ks)
    return mean, cov


# ---------------------------------------------------------------- unit cube

def test_unit_cube_endpoints():
    space = circuit_model("amp2").space
    lows = DesignPoint(tuple(p.lower for p in space.parameters))
    highs = DesignPoint(tuple(p.upper for p in space.parameters))
    assert np.allclose(to_unit_cube(space, lows), 0.0)
    assert np.allclose(to_unit_cube(space, highs), 1.0)


def test_unit_cube_log_midpoint():
    space = circuit_model("amp2").space
    values = [p.lower for p in space.parameters]
    i = space.names.index("w1")
    values[i] = math.sqrt(120e-9 * 50e-6)  # geometric midpoint of the width range
    u = to_unit_cube(space, DesignPoint(tuple(values)))
    assert u[i] == pytest.approx(0.5, abs=1e-12)


def test_unit_cube_roundtrip():
    space = circuit_model("amp2").space
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = rng.uniform(size=space.dimension)
        point = from_unit_cube(space, u)
        back = to_unit_cube(space, point)
        assert np.allclose(back, u, rtol=1e-12, atol=1e-12)


def test_unit_cube_rejects_outside():
    space = circuit_model("amp2").space
    values = [p.lower for p in space.parameters]
    values[0] = 60e-9
    with pytest.raises(RangeError):
        to_unit_cube(space, DesignPoint(tuple(values)))


def test_unit_cube_maps_reject_a_point_of_another_dimension():
    space = DesignSpace((Parameter("a", 0.0, 1.0), Parameter("b", 0.0, 1.0)))
    with pytest.raises(ValueError, match=r"^point has 3 values, space has dimension 2$"):
        to_unit_cube(space, DesignPoint((0.5, 0.5, 0.5)))
    with pytest.raises(ValueError, match=r"^expected shape \(2,\), got \(1,\)$"):
        from_unit_cube(space, np.array([0.5]))


def _reference_to_unit_cube(space, point):
    """The per-parameter formulas on numpy scalars, kept as the reference."""
    out = np.empty(space.dimension)
    for i, (p, v) in enumerate(zip(space.parameters, point.values)):
        if p.scale is Scale.LOG:
            out[i] = (math.log(v) - math.log(p.lower)) / (
                math.log(p.upper) - math.log(p.lower)
            )
        else:
            out[i] = (v - p.lower) / (p.upper - p.lower)
    return out


def _reference_from_unit_cube(space, u):
    values = []
    for p, t in zip(space.parameters, np.clip(np.asarray(u, dtype=float), 0.0, 1.0)):
        if p.scale is Scale.LOG:
            v = math.exp(
                math.log(p.lower) + t * (math.log(p.upper) - math.log(p.lower))
            )
        else:
            v = p.lower + t * (p.upper - p.lower)
        values.append(float(min(max(v, p.lower), p.upper)))
    return values


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(preset=st.sampled_from(sorted(FOM_PRESETS)), data=st.data())
def test_unit_cube_maps_keep_the_reference_bits(preset, data):
    space = circuit_model(preset).space
    u = data.draw(st.lists(
        st.one_of(st.floats(-0.25, 1.25), st.sampled_from([0.0, -0.0, 1.0])),
        min_size=space.dimension, max_size=space.dimension,
    ))
    expected = _reference_from_unit_cube(space, u)
    point = from_unit_cube(space, np.array(u))
    assert _bits(point.values) == _bits(expected)
    assert _bits(to_unit_cube(space, point)) == _bits(
        _reference_to_unit_cube(space, point)
    )


# ------------------------------------------------------------------ kernel

def test_rbf_kernel_values():
    x = np.array([[0.3, 0.7]])
    assert rbf_kernel(x, x, np.array([0.5, 0.5]), 2.5)[0, 0] == pytest.approx(2.5)
    far = rbf_kernel(np.zeros((1, 2)), np.full((1, 2), 50.0), np.ones(2), 1.0)[0, 0]
    assert far == pytest.approx(0.0, abs=1e-300)
    assert rbf_kernel(
        np.array([[0.0]]), np.array([[1.0]]), np.array([1.0]), 1.0
    )[0, 0] == pytest.approx(math.exp(-0.5))


# ---------------------------------------------------------------- cholesky

def test_chol_with_jitter_spd_needs_no_jitter():
    A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    L, jitter = _chol_with_jitter(A)
    assert jitter == 0.0
    assert np.allclose(L, np.tril(L))
    assert np.allclose(L @ L.T, A, rtol=1e-14, atol=0.0)


def test_chol_with_jitter_escalates_on_singular_input():
    A = np.ones((4, 4))
    L, jitter = _chol_with_jitter(A)
    assert jitter == JITTER_START == 1e-10
    assert np.allclose(L, np.tril(L))
    assert np.allclose(L @ L.T, A + 1e-10 * np.eye(4), rtol=0.0, atol=1e-14)


def test_chol_with_jitter_factors_the_bits_of_the_identity_sum():
    # A posterior covariance at near-duplicate points needs jitter; the
    # ladder adds it on the diagonal in place, and the factor is potrf's
    # of cov + jitter * I, bit for bit.
    X, y = _training_set(n=12, d=3, seed=5)
    model = gp_fit(X, y, GpFitConfig(restarts=1), 0)
    x = np.array([0.3, 0.6, 0.2])
    _, cov = gp_predict(model, np.array([x, x + 1e-12, [0.9, 0.1, 0.5]]))
    L, jitter = _chol_with_jitter(cov)
    assert jitter > 0.0
    expected = lapack.dpotrf(cov + jitter * np.eye(3), lower=1)[0]
    assert L.tobytes() == expected.tobytes()


def test_chol_with_jitter_raises_past_the_ceiling():
    with pytest.raises(NumericalError):
        _chol_with_jitter(-np.eye(3))


def test_chol_with_jitter_rejects_non_finite_input():
    A = np.eye(3)
    A[1, 2] = A[2, 1] = np.nan
    with pytest.raises(ValueError):
        _chol_with_jitter(A)


# --------------------------------------------------------------------- fit

def test_single_point_interpolates():
    model = gp_fit(np.array([[0.4]]), np.array([3.7]), GpFitConfig(restarts=2))
    mean, _ = gp_predict(model, np.array([[0.4]]))
    assert mean[0] == pytest.approx(3.7, abs=1e-3)


def test_duplicate_inputs_need_noise():
    X = np.array([[0.5, 0.5], [0.5, 0.5]])
    y = np.array([0.0, 1.0])
    model = gp_fit(X, y, GpFitConfig(restarts=4))
    assert model.noise_variance > NOISE_FLOOR


def test_fit_beats_default_hyperparameters():
    X, y = _training_set()
    model = gp_fit(X, y, GpFitConfig(restarts=6), seed=2)
    y_std = (y - y.mean()) / y.std()
    default = log_marginal_likelihood(X, y_std, np.full(2, 0.5), 1.0, 1e-3)[0]
    assert model.log_marginal >= default - 1e-9


def test_triplicated_rows_with_constant_targets_fit():
    # all-failed designs: every FOM is the failure value and rows repeat
    X = np.repeat(np.random.default_rng(13).uniform(size=(5, 14)), 3, axis=0)
    model = gp_fit(X, np.full(15, -9.67), GpFitConfig(restarts=3), seed=1)
    assert math.isfinite(model.log_marginal)
    assert np.all(np.isfinite(model.chol)) and np.all(np.isfinite(model.alpha))
    mean, cov = gp_predict(model, X[:2])
    var = np.diag(cov)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
    assert mean == pytest.approx(-9.67, abs=1e-6)


def _within(values, bounds):
    # the optimizer's log-space box, mapped back, may round an ulp outside
    lower, upper = bounds[0] * (1 - 1e-12), bounds[1] * (1 + 1e-12)
    return lower <= np.min(values) and np.max(values) <= upper


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 4),
    rows=st.integers(1, 4),
    repeats=st.integers(1, 3),
    constant=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_degenerate_data_fits_in_bounds_and_proposes_in_box(
    d, rows, repeats, constant, seed
):
    # repeated rows and one FOM for every row: what all-failed designs give
    rng = np.random.default_rng(seed)
    X = np.repeat(rng.uniform(size=(rows, d)), repeats, axis=0)
    n = X.shape[0]
    y = np.full(n, -9.67) if constant else rng.normal(size=n)
    model = gp_fit(X, y, GpFitConfig(restarts=2, maxiter=20), seed=seed)
    assert math.isfinite(model.log_marginal)
    # the model's LML, bit for bit, is the one at its own hyperparameters; a
    # jittered fit's too, since both go through one factorization routine
    lml, _ = log_marginal_likelihood(
        X, model.train_targets, model.lengthscales, model.signal_variance,
        model.noise_variance,
    )
    assert model.log_marginal.hex() == lml.hex()
    assert _within(model.lengthscales, LENGTHSCALE_BOUNDS)
    assert _within(model.signal_variance, SIGNAL_BOUNDS)
    assert _within(model.noise_variance, (NOISE_FLOOR, NOISE_CEILING))
    space = DesignSpace(tuple(Parameter(f"x{i}", 0.0, 1.0) for i in range(d)))
    acq = AcquisitionConfig(mc_samples=64, restarts=2, raw_candidates=16, maxiter=5)
    batch = propose_batch(model, space, float(y.max()), 3, acq, rng, seed=0)
    assert len(batch) == 3
    assert all(design_space_contains(space, point) for point in batch)


def test_non_finite_targets_rejected():
    with pytest.raises(ValueError):
        gp_fit(np.array([[0.1], [0.2]]), np.array([1.0, np.nan]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lml_rejects_non_finite_targets(bad):
    with pytest.raises(ValueError, match="^targets must be finite$"):
        log_marginal_likelihood(np.array([[0.1], [0.2]]), np.array([1.0, bad]),
                                0.5, 1.0, 1e-6)


@pytest.mark.parametrize("X, y", [
    (np.zeros((3, 2)), np.zeros(2)),
    (np.zeros((0, 2)), np.zeros(0)),
], ids=["mismatched", "empty"])
def test_gp_fit_rejects_mismatched_or_empty_rows(X, y):
    with pytest.raises(ValueError, match=re.escape(
        f"invalid shapes: X {X.shape}, y {y.shape}"
    )):
        gp_fit(X, y)


# ----------------------------------------------------------------- predict

def test_predict_matches_dense_oracle():
    X, y = _training_set(n=3)
    model = gp_fit(X, y, GpFitConfig(restarts=3), seed=1)
    Q = np.random.default_rng(9).uniform(size=(4, 2))
    mean, cov = gp_predict(model, Q)
    mean_ref, cov_ref = dense_posterior(model, Q)
    assert np.allclose(mean, mean_ref, atol=1e-8)
    assert np.allclose(cov, cov_ref, atol=1e-8)


def test_predict_at_training_point_within_noise():
    X, y = _training_set()
    model = gp_fit(X, y, GpFitConfig(restarts=4), seed=0)
    mean, cov = gp_predict(model, X)
    var = np.diag(cov)
    noise = model.noise_variance * model.target_std**2
    assert np.all(np.abs(mean - y) <= 3.0 * np.sqrt(noise) + 1e-6)
    assert np.all(var <= noise + 1e-6)


def test_far_query_reverts_to_prior():
    X, y = _training_set()
    model = gp_fit(X, y, GpFitConfig(restarts=4), seed=0)
    mean, cov = gp_predict(model, np.array([[40.0, -40.0]]))
    var = np.diag(cov)
    assert mean[0] == pytest.approx(model.target_mean, abs=1e-9)
    prior_var = model.signal_variance * model.target_std**2
    noise = model.noise_variance * model.target_std**2
    assert abs(var[0] - prior_var) <= noise + 1e-9


def test_predict_covariance_psd():
    X, y = _training_set(n=8)
    model = gp_fit(X, y, GpFitConfig(restarts=4), seed=5)
    Q = np.random.default_rng(2).uniform(size=(6, 2))
    _, cov = gp_predict(model, Q)
    assert np.linalg.eigvalsh(cov).min() >= -1e-8


def test_predictions_invariant_under_permutation():
    X, y = _training_set(n=7, seed=4)
    # maxiter=0 still runs one L-BFGS-B iteration from the default start, so
    # this compares two such short fits: one on the rows in order, one on the
    # same rows permuted
    config = GpFitConfig(restarts=1, maxiter=0)
    model = gp_fit(X, y, config)
    perm = np.random.default_rng(0).permutation(len(y))
    model_p = gp_fit(X[perm], y[perm], config)
    Q = np.random.default_rng(1).uniform(size=(5, 2))
    mean_a, _ = gp_predict(model, Q)
    mean_b, _ = gp_predict(model_p, Q)
    assert np.allclose(mean_a, mean_b, atol=1e-9)


# --------------------------------------------------------------------- LML

def test_lml_matches_gaussian_logpdf():
    X, y = _training_set(n=4, seed=6)
    ls = np.array([0.4, 0.8])
    sv, nv = 1.5, 1e-2
    K = rbf_kernel(X, X, ls, sv) + nv * np.eye(4)
    ref = multivariate_normal(mean=np.zeros(4), cov=K).logpdf(y)
    assert log_marginal_likelihood(X, y, ls, sv, nv)[0] == pytest.approx(ref, abs=1e-8)


def _dense_lml(X, y, ls, sv, nv):
    """-0.5 y^T K^-1 y - 0.5 log|K| - n/2 log 2 pi, from an explicit
    elementwise kernel, a dense solve and slogdet (no Cholesky factor)."""
    diff = (X[:, None, :] - X[None, :, :]) / ls
    K = sv * np.exp(-0.5 * np.sum(diff**2, axis=2)) + nv * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return (
        -0.5 * float(y @ np.linalg.solve(K, y))
        - 0.5 * logdet
        - 0.5 * len(y) * math.log(2.0 * math.pi)
    )


@pytest.mark.parametrize(
    "n, d, repeat",
    [(6, 2, 1), (55, 14, 1), (6, 3, 3)],
    ids=["n6_d2", "n55_d14", "triplicated_rows"],
)
def test_lml_matches_dense_slogdet_and_solve(n, d, repeat):
    X, y = _training_set(n=n, d=d, seed=11)
    X, y = np.repeat(X, repeat, axis=0), np.repeat(y, repeat)
    ls = np.linspace(0.3, 2.0, d)
    sv, nv = 1.3, 4e-3
    ref = _dense_lml(X, y, ls, sv, nv)
    assert log_marginal_likelihood(X, y, ls, sv, nv)[0] == pytest.approx(ref, rel=1e-9)


_LML_BITS = """
import numpy as np
from analogopt.surrogate import log_marginal_likelihood
rng = np.random.default_rng(21)
for n in (55, 100):
    X = rng.uniform(size=(n, 14))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
    args = (X, y, np.linspace(0.3, 2.0, 14), 1.3, 4e-3)
    lml, grad = log_marginal_likelihood(*args)
    print(lml.hex(), *(g.hex() for g in grad))
"""


def test_lml_bits_do_not_depend_on_the_blas_thread_count():
    # Run logs must not change with the core count. Some LAPACK/BLAS
    # routines that could form K^-1 (OpenBLAS potri at every n, syrk from
    # n = 100) round differently with 1 and 2 threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _LML_BITS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# log_marginal_likelihood at n = 55, d = 14 (the gradient test's inputs), as
# float.hex of the LML and then of its gradient: what the fit's objective
# returns, kept to the bit by every change to its arithmetic.
LML_N55_D14 = (
    "-0x1.98dac9500c7b9p+5",
    "0x1.4eee795484f71p+3", "0x1.d846392f86a0ap+2", "0x1.c5d147a3ad182p+2",
    "0x1.8ae28413dc386p+2", "0x1.604883b05032fp+2", "0x1.f6ea76f221869p+1",
    "0x1.b5aee8c64bb59p+1", "0x1.7ea8e9374fff5p+1", "0x1.51371d03eb1a4p+1",
    "0x1.2a64e4eabc5b2p+1", "0x1.3d68ec98dea21p+1", "0x1.00e85137035dcp+1",
    "0x1.98f78c291b4d4p+0", "0x1.3a3689af094c4p+0", "-0x1.2b4b6e73f228ep+4",
    "-0x1.78741f34b2db5p-3",
)


def test_lml_and_gradient_keep_their_bits_at_n55_d14():
    X, y = _training_set(n=55, d=14, seed=10)
    lml, grad = log_marginal_likelihood(X, y, np.linspace(0.3, 2.0, 14), 1.3, 4e-3)
    assert tuple(v.hex() for v in (lml, *grad)) == LML_N55_D14


def test_lml_scale_equivariance():
    X, y = _training_set(n=5, seed=8)
    ls = np.array([0.6, 0.6])
    c = 3.7
    base = log_marginal_likelihood(X, y, ls, 1.2, 1e-3)[0]
    scaled = log_marginal_likelihood(X, c * y, ls, c**2 * 1.2, c**2 * 1e-3)[0]
    assert scaled == pytest.approx(base - len(y) * math.log(c), abs=1e-9)


@pytest.mark.parametrize(
    "n, d, lengthscales",
    [
        (6, 2, [0.45, 0.9]),
        # the benchmark's amp2 shape, where the matmul form would cancel
        (55, 14, np.linspace(0.3, 2.0, 14)),
    ],
    ids=["n6_d2", "n55_d14"],
)
def test_lml_gradient_matches_central_differences(n, d, lengthscales):
    X, y = _training_set(n=n, d=d, seed=10)
    theta = np.log(np.concatenate([lengthscales, [1.3, 4e-3]]))

    def lml_at(t):
        return log_marginal_likelihood(
            X, y, np.exp(t[:d]), math.exp(t[d]), math.exp(t[d + 1])
        )[0]

    grad = log_marginal_likelihood(X, y, np.exp(theta[:d]), math.exp(theta[d]),
                                   math.exp(theta[d + 1]))[1]
    h = 1e-6
    for i in range(d + 2):
        e = np.zeros(d + 2)
        e[i] = h
        fd = (lml_at(theta + e) - lml_at(theta - e)) / (2.0 * h)
        assert abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-8)


def test_factorization_reproduces_kernel():
    X, y = _training_set(n=6, seed=12)
    model = gp_fit(X, y, GpFitConfig(restarts=3), seed=3)
    K = rbf_kernel(X, X, model.lengthscales, model.signal_variance)
    target = K + (model.noise_variance + model.jitter) * np.eye(len(y))
    assert np.allclose(model.chol @ model.chol.T, target, atol=1e-8)


def test_gp_fit_that_ends_on_a_jittered_factor_keeps_its_jitter(monkeypatch):
    # Benchmark fits and degenerate data never reach the jitter ladder in
    # gp_fit, so here the first potrf attempt of every _chol_with_jitter call
    # reports failure (info 1): each factorization of the fit takes the
    # ladder's first step, and the model must say so.
    chol_with_jitter = surrogate._chol_with_jitter
    dpotrf = surrogate._kernels().dpotrf
    first_attempt = []

    def chol_failing_first(matrix):
        first_attempt.append(None)
        return chol_with_jitter(matrix)

    def potrf(matrix, lower):
        if first_attempt:
            first_attempt.pop()
            return matrix, 1
        return dpotrf(matrix, lower=lower)

    monkeypatch.setattr(surrogate, "_chol_with_jitter", chol_failing_first)
    monkeypatch.setattr(surrogate._kernels(), "dpotrf", potrf)
    X, y = _training_set(n=6, d=2, seed=12)
    model = gp_fit(X, y, GpFitConfig(restarts=3), seed=3)
    monkeypatch.undo()
    assert model.jitter == JITTER_START == 1e-10
    ref = _dense_lml(
        X, model.train_targets, model.lengthscales, model.signal_variance,
        model.noise_variance + model.jitter,
    )
    assert model.log_marginal == pytest.approx(ref, rel=1e-10)
    Q = np.random.default_rng(9).uniform(size=(4, 2))
    mean, cov = gp_predict(model, Q)
    mean_ref, cov_ref = dense_posterior(model, Q)
    assert np.allclose(mean, mean_ref, atol=1e-8)
    assert np.allclose(cov, cov_ref, atol=1e-8)


def test_gp_fit_drops_a_restart_whose_end_point_cannot_be_factored(monkeypatch):
    # The restart that wins an unwrapped two-restart fit fails the
    # factorization of its end point here, so the fit keeps the other one.
    X, y = _training_set(n=8, d=2, seed=5)
    factor = surrogate._factor
    end_points, failing = [], []

    def factor_end_points(targets, *args):
        if sys._getframe(1).f_code.co_name == "gp_fit":  # not the objective
            end_points.append(args[:3])
            if len(end_points) in failing:
                raise NumericalError("injected")
        return factor(targets, *args)

    monkeypatch.setattr(surrogate, "_factor", factor_end_points)
    winner = gp_fit(X, y, GpFitConfig(restarts=2), seed=4)
    won = [
        np.array_equal(ls, winner.lengthscales) and sv == winner.signal_variance
        for ls, sv, _ in end_points
    ]
    assert len(end_points) == 2 and won.count(True) == 1
    failing.append(won.index(True) + 1)
    ((ls, sv, nv),) = [hyper for hyper, w in zip(end_points, won) if not w]
    end_points.clear()
    model = gp_fit(X, y, GpFitConfig(restarts=2), seed=4)
    monkeypatch.undo()
    assert len(end_points) == 2
    assert model.lengthscales.tobytes() == ls.tobytes()
    assert (model.signal_variance, model.noise_variance) == (sv, nv)
    assert model.log_marginal < winner.log_marginal
    assert model.log_marginal == log_marginal_likelihood(
        X, model.train_targets, model.lengthscales, model.signal_variance,
        model.noise_variance,
    )[0]


def test_constant_targets_fit():
    X = np.random.default_rng(0).uniform(size=(4, 2))
    model = gp_fit(X, np.full(4, 2.5), GpFitConfig(restarts=2))
    mean, _ = gp_predict(model, np.array([[0.5, 0.5]]))
    assert mean[0] == pytest.approx(2.5, abs=1e-6)


# ------------------------------------------------------------ L-BFGS-B driver

def _capture_lbfgsb_problems(module, call):
    """Every (fun, x0, lower, upper) that ``call()`` hands to ``module._lbfgsb``."""
    problems = []

    def record(fun, x0, lower, upper, maxiter):
        problems.append((fun, np.array(x0), lower, upper))
        return _lbfgsb(fun, x0, lower, upper, maxiter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_lbfgsb", record)
        call()
    return problems


@pytest.fixture(scope="module")
def lbfgsb_problems():
    """The problems of a run, as gp_fit and propose_batch pose them: the
    bounded LML objective of a fit's first restart, and the unbounded qEI
    objective of one slot's two stacked restarts."""
    problems = {}
    # (30, 2, 3): the first restart ends in an ABNORMAL line-search exit.
    for n, d, seed in ((10, 2, 14), (30, 2, 3), (55, 14, 14)):
        X, y = _training_set(n=n, d=d, seed=seed)
        (problems[f"fit_n{n}_d{d}"],) = _capture_lbfgsb_problems(
            surrogate, lambda: gp_fit(X, y, GpFitConfig(restarts=1))
        )
    X, y = _training_set(n=55, d=14, seed=14)
    model = gp_fit(X, y, GpFitConfig(restarts=2))
    space = DesignSpace(tuple(Parameter(f"x{i}", 0.0, 1.0) for i in range(14)))
    config = AcquisitionConfig(mc_samples=128, restarts=2, raw_candidates=32, maxiter=50)
    (problems["qei_R2_d14"],) = _capture_lbfgsb_problems(
        acquisition,
        lambda: propose_batch(model, space, float(y.max()), 1, config,
                              np.random.default_rng(5), seed=0),
    )
    return problems


def _counted(fun):
    calls = []

    def counted(*args):
        calls.append(None)
        return fun(*args)

    return counted, calls


def _assert_matches_minimize(fun, x0, lower, upper, maxiter, **options):
    """Run the driver and ``minimize`` on one problem; both must end on the
    same x bits after the same objective calls. Returns minimize's result.
    ``options`` are further ``minimize`` options beside ``maxiter``."""
    driven, calls = _counted(fun)
    x = _lbfgsb(driven, x0, lower, upper, maxiter)
    referenced, reference_calls = _counted(fun)
    bounds = None if lower is None else list(zip(lower, upper))
    reference = minimize(referenced, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                         options={"maxiter": maxiter, **options})
    assert x.tobytes() == reference.x.tobytes()
    assert len(calls) == len(reference_calls) == reference.nfev
    return reference


@pytest.mark.parametrize("n, d, seed", [(10, 2, 14), (30, 2, 3), (55, 14, 14)],
                         ids=["fit_n10_d2", "fit_n30_d2_abnormal", "fit_n55_d14"])
def test_gp_fit_factors_each_restart_end_point_once(n, d, seed):
    # The fit problems of lbfgsb_problems, at two restarts. Every objective
    # call is one LML-and-gradient evaluation, and each restart's final x is
    # factored once more, also where the driver evaluated it last; an
    # ABNORMAL exit ends at an x it did not.
    X, y = _training_set(n=n, d=d, seed=seed)

    def fit():
        lml_and_grad, lml_calls = _counted(surrogate._lml_and_grad)
        factor, factor_calls = _counted(surrogate._factor)
        restarts = []

        def watched_lbfgsb(fun, x0, lower, upper, maxiter):
            seen = []

            def watched(x):
                seen.append(x.tobytes())
                return fun(x)

            x = _lbfgsb(watched, x0, lower, upper, maxiter)
            restarts.append((len(seen), x.tobytes() == seen[-1]))
            return x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surrogate, "_lml_and_grad", lml_and_grad)
            mp.setattr(surrogate, "_factor", factor)
            mp.setattr(surrogate, "_lbfgsb", watched_lbfgsb)
            model = gp_fit(X, y, GpFitConfig(restarts=2))
        objective_calls = sum(calls for calls, _ in restarts)
        assert len(restarts) == 2
        assert len(lml_calls) == objective_calls
        assert len(factor_calls) == objective_calls + len(restarts)
        return model, restarts

    model, restarts = fit()
    again, restarts_again = fit()
    assert restarts_again == restarts
    assert again.log_marginal.hex() == model.log_marginal.hex()
    if n == 30:
        assert not restarts[0][1]  # the ABNORMAL exit of the first restart
    else:
        assert all(last for _, last in restarts)
    lml, _ = log_marginal_likelihood(
        X, model.train_targets, model.lengthscales, model.signal_variance,
        model.noise_variance,
    )
    assert lml.hex() == model.log_marginal.hex()


@pytest.mark.parametrize("maxiter", [0, 1, 5, 100])
@pytest.mark.parametrize("problem", ["fit_n10_d2", "fit_n55_d14", "qei_R2_d14"])
def test_lbfgsb_matches_scipy_minimize_bitwise(lbfgsb_problems, problem, maxiter):
    fun, x0, lower, upper = lbfgsb_problems[problem]
    reference = _assert_matches_minimize(fun, x0, lower, upper, maxiter)
    if maxiter <= 1:
        # scipy counts an iteration before it checks the cap, so 0 acts as 1;
        # run logs depend on that.
        assert reference.nit == 1
        other = _lbfgsb(fun, x0, lower, upper, 1 - maxiter)
        assert other.tobytes() == reference.x.tobytes()


def test_lbfgsb_matches_scipy_minimize_on_an_abnormal_exit(lbfgsb_problems):
    reference = _assert_matches_minimize(*lbfgsb_problems["fit_n30_d2"], 100)
    assert reference.message.startswith("ABNORMAL")


@pytest.mark.parametrize("maxfun", [1, 3, 8])
def test_lbfgsb_matches_scipy_minimize_at_its_maxfun_stop(lbfgsb_problems, monkeypatch,
                                                          maxfun):
    monkeypatch.setattr(surrogate, "LBFGSB_MAXFUN", maxfun)
    reference = _assert_matches_minimize(*lbfgsb_problems["fit_n55_d14"], 100,
                                         maxfun=maxfun)
    assert reference.message.startswith("STOP: TOTAL NO. OF F,G EVALUATIONS")


def test_lbfgsb_matches_scipy_minimize_on_failure_values(lbfgsb_problems):
    # gp_fit's failure value (1e25, zero gradient) below a noise level the
    # fit heads for, as when the kernel matrix cannot be factored there.
    fun, x0, lower, upper = lbfgsb_problems["fit_n10_d2"]
    failures = []

    def failing_below_noise(theta):
        if theta[-1] < -10.0:
            failures.append(None)
            return 1e25, np.zeros_like(theta)
        return fun(theta)

    _assert_matches_minimize(failing_below_noise, x0, lower, upper, 100)
    assert failures


def test_lbfgsb_propagates_numerical_error(lbfgsb_problems):
    # propose_batch keeps its raw candidate when the qEI run raises this.
    fun, x0, lower, upper = lbfgsb_problems["qei_R2_d14"]
    calls = []

    def failing(z):
        calls.append(None)
        if len(calls) == 4:
            raise NumericalError("factor lost positive definiteness")
        return fun(z)

    with pytest.raises(NumericalError):
        _lbfgsb(failing, x0, lower, upper, 50)
    assert len(calls) == 4


def test_setulb_loader_refuses_an_unknown_signature(monkeypatch):
    assert surrogate._kernels().setulb.__doc__ == surrogate._SETULB_SIGNATURE
    monkeypatch.setattr(surrogate, "_SETULB_SIGNATURE", "setulb(m,x,l,u,nbd,f,g)")
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}:"):
        surrogate._kernels.__wrapped__()  # past the session's cached kernels


# ------------------------------------------------------ extension loading

def test_scipy_extension_refuses_an_unknown_module():
    with pytest.raises(ImportError, match=re.escape(f"scipy {scipy.__version__}")):
        surrogate._scipy_extension("linalg", "_no_such_extension")


def test_special_functions_equal_scipy_special_bitwise():
    edges = [-np.inf, np.inf, np.nan, 0.0, 1.0, 1e-9, 1.0 - 1e-9, -40.0, 40.0]
    x = np.concatenate([edges, np.linspace(-50.0, 50.0, 2001),
                        np.random.default_rng(0).uniform(size=1000)])
    with np.errstate(divide="ignore", invalid="ignore"):
        for name in ("expit", "logit", "ndtr"):
            ours = getattr(surrogate._kernels(), name)(x)
            assert ours.tobytes() == getattr(scipy.special, name)(x).tobytes(), name


def test_lapack_calls_equal_scipy_linalg_lapack_bitwise():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((55, 55))
    spd = A @ A.T + 55.0 * np.eye(55)
    B = rng.standard_normal((55, 3))
    kernels = surrogate._kernels()
    L, info = kernels.dpotrf(spd, lower=1)
    L_ref, info_ref = lapack.dpotrf(spd, lower=1)
    assert info == info_ref == 0
    assert L.tobytes() == L_ref.tobytes()
    pairs = [
        (kernels.dpotrs(L, B, lower=1), lapack.dpotrs(L, B, lower=1)),
        (kernels.dtrtri(L, lower=1), lapack.dtrtri(L, lower=1)),
    ]
    for trans in (0, 1):
        pairs.append((kernels.dtrtrs(L, B, lower=1, trans=trans),
                      lapack.dtrtrs(L, B, lower=1, trans=trans)))
    for (ours, ours_info), (ref, ref_info) in pairs:
        assert ours_info == ref_info == 0
        assert ours.tobytes() == ref.tobytes()
