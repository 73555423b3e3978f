import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from analogopt.core import DesignPoint, RangeError
from analogopt.evaluator import circuit_model
from analogopt.surrogate import (
    GpFitConfig,
    _rbf_matrix,
    from_unit_cube,
    gp_fit,
    gp_predict,
    gp_predict_diag,
    lml_gradient,
    log_marginal_likelihood,
    rbf_kernel,
    to_unit_cube,
)


def _training_set(n=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.5
    return X, y


def dense_posterior(model, Q):
    """Textbook posterior via an explicit inverse (independent of the
    Cholesky path used by gp_predict)."""
    K = _rbf_matrix(
        model.train_inputs, model.train_inputs, model.lengthscales,
        model.signal_variance,
    ) + (model.noise_variance + model.jitter) * np.eye(len(model.train_targets))
    Ks = _rbf_matrix(model.train_inputs, Q, model.lengthscales, model.signal_variance)
    Kqq = _rbf_matrix(Q, Q, model.lengthscales, model.signal_variance)
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
    i = space.index("w1")
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


# ------------------------------------------------------------------ kernel

def test_rbf_kernel_values():
    x = np.array([0.3, 0.7])
    assert rbf_kernel(x, x, np.array([0.5, 0.5]), 2.5) == pytest.approx(2.5)
    far = rbf_kernel(np.zeros(2), np.full(2, 50.0), np.ones(2), 1.0)
    assert far == pytest.approx(0.0, abs=1e-300)
    assert rbf_kernel(
        np.array([0.0]), np.array([1.0]), np.array([1.0]), 1.0
    ) == pytest.approx(math.exp(-0.5))


# --------------------------------------------------------------------- fit

def test_single_point_interpolates():
    model = gp_fit(np.array([[0.4]]), np.array([3.7]), GpFitConfig(restarts=2))
    mean, _ = gp_predict(model, np.array([[0.4]]))
    assert mean[0] == pytest.approx(3.7, abs=1e-3)


def test_duplicate_inputs_need_noise():
    X = np.array([[0.5, 0.5], [0.5, 0.5]])
    y = np.array([0.0, 1.0])
    config = GpFitConfig(restarts=4, noise_floor=1e-6)
    model = gp_fit(X, y, config)
    assert model.noise_variance > config.noise_floor


def test_fit_beats_default_hyperparameters():
    X, y = _training_set()
    config = GpFitConfig(restarts=6, seed=2)
    model = gp_fit(X, y, config)
    y_std = (y - y.mean()) / y.std()
    default = log_marginal_likelihood(X, y_std, np.full(2, 0.5), 1.0, 1e-3)
    assert model.log_marginal >= default - 1e-9


def test_non_finite_targets_rejected():
    with pytest.raises(ValueError):
        gp_fit(np.array([[0.1], [0.2]]), np.array([1.0, np.nan]))


# ----------------------------------------------------------------- predict

def test_predict_matches_dense_oracle():
    X, y = _training_set(n=3)
    model = gp_fit(X, y, GpFitConfig(restarts=3, seed=1))
    Q = np.random.default_rng(9).uniform(size=(4, 2))
    mean, cov = gp_predict(model, Q)
    mean_ref, cov_ref = dense_posterior(model, Q)
    assert np.allclose(mean, mean_ref, atol=1e-8)
    assert np.allclose(cov, cov_ref, atol=1e-8)


def test_predict_at_training_point_within_noise():
    X, y = _training_set()
    model = gp_fit(X, y, GpFitConfig(restarts=4, seed=0))
    mean, var = gp_predict_diag(model, X)
    noise = model.noise_variance * model.target_std**2
    assert np.all(np.abs(mean - y) <= 3.0 * np.sqrt(noise) + 1e-6)
    assert np.all(var <= noise + 1e-6)


def test_far_query_reverts_to_prior():
    X, y = _training_set()
    model = gp_fit(X, y, GpFitConfig(restarts=4, seed=0))
    mean, var = gp_predict_diag(model, np.array([[40.0, -40.0]]))
    assert mean[0] == pytest.approx(model.target_mean, abs=1e-9)
    prior_var = model.signal_variance * model.target_std**2
    noise = model.noise_variance * model.target_std**2
    assert abs(var[0] - prior_var) <= noise + 1e-9


def test_predict_covariance_psd():
    X, y = _training_set(n=8)
    model = gp_fit(X, y, GpFitConfig(restarts=4, seed=5))
    Q = np.random.default_rng(2).uniform(size=(6, 2))
    _, cov = gp_predict(model, Q)
    assert np.linalg.eigvalsh(cov).min() >= -1e-8


def test_predictions_invariant_under_permutation():
    X, y = _training_set(n=7, seed=4)
    # freeze hyperparameters (maxiter=0 keeps the fixed default start) so the
    # comparison isolates the prediction path
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
    K = _rbf_matrix(X, X, ls, sv) + nv * np.eye(4)
    ref = multivariate_normal(mean=np.zeros(4), cov=K).logpdf(y)
    assert log_marginal_likelihood(X, y, ls, sv, nv) == pytest.approx(ref, abs=1e-8)


def test_lml_scale_equivariance():
    X, y = _training_set(n=5, seed=8)
    ls = np.array([0.6, 0.6])
    c = 3.7
    base = log_marginal_likelihood(X, y, ls, 1.2, 1e-3)
    scaled = log_marginal_likelihood(X, c * y, ls, c**2 * 1.2, c**2 * 1e-3)
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
        )

    grad = lml_gradient(X, y, np.exp(theta[:d]), math.exp(theta[d]),
                        math.exp(theta[d + 1]))
    h = 1e-6
    for i in range(d + 2):
        e = np.zeros(d + 2)
        e[i] = h
        fd = (lml_at(theta + e) - lml_at(theta - e)) / (2.0 * h)
        assert abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-8)


def test_factorization_reproduces_kernel():
    X, y = _training_set(n=6, seed=12)
    model = gp_fit(X, y, GpFitConfig(restarts=3, seed=3))
    K = _rbf_matrix(X, X, model.lengthscales, model.signal_variance)
    target = K + (model.noise_variance + model.jitter) * np.eye(len(y))
    assert np.allclose(model.chol @ model.chol.T, target, atol=1e-8)


def test_constant_targets_fit():
    X = np.random.default_rng(0).uniform(size=(4, 2))
    model = gp_fit(X, np.full(4, 2.5), GpFitConfig(restarts=2))
    mean, _ = gp_predict_diag(model, np.array([[0.5, 0.5]]))
    assert mean[0] == pytest.approx(2.5, abs=1e-6)
