import numpy as np
import pytest
from scipy.stats import norm

from analogopt.acquisition import (
    AcquisitionConfig,
    _base_draws,
    _slot_scorer,
    ei,
    propose_batch,
    qei_mc,
)
from analogopt.core import DesignSpace, Parameter, design_space_contains
from analogopt.surrogate import (
    GpFitConfig,
    GpModel,
    NumericalError,
    gp_fit,
    to_unit_cube,
)

from conftest import model_with_prior


@pytest.fixture(scope="module")
def fitted_model():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(8, 2))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    return gp_fit(X, y, GpFitConfig(restarts=4, seed=1)), float(y.max())


FAR = np.array([[0.0]])  # far from model_with_prior's training point


def test_ei_zero_variance_no_improvement():
    model = model_with_prior(mu=1.0, sigma=0.0)
    assert ei(model, FAR, best=1.0) == 0.0
    assert ei(model, FAR, best=2.0) == 0.0


def test_ei_zero_variance_deterministic_improvement():
    model = model_with_prior(mu=2.0, sigma=0.0)
    assert ei(model, FAR, best=1.0) == pytest.approx(1.0)


def test_ei_at_mean_equals_phi_zero():
    model = model_with_prior(mu=0.0, sigma=1.0)
    assert ei(model, FAR, best=0.0) == pytest.approx(norm.pdf(0.0), rel=1e-6)
    assert ei(model, FAR, best=0.0) == pytest.approx(0.39894, abs=1e-5)


def test_ei_nonnegative_everywhere():
    rng = np.random.default_rng(5)
    for _ in range(50):
        model = model_with_prior(mu=rng.normal(), sigma=abs(rng.normal()))
        assert ei(model, FAR, best=rng.normal()) >= 0.0


def test_qei_q1_matches_closed_form():
    # 20 (mu, sigma, best) triples with meaningful improvement probability
    rng = np.random.default_rng(17)
    config = AcquisitionConfig(batch_size=1, mc_samples=100_000, seed=23)
    for _ in range(20):
        mu = rng.normal()
        sigma = rng.uniform(0.3, 2.0)
        best = mu - rng.uniform(-0.5, 2.0) * sigma
        model = model_with_prior(mu, sigma)
        closed = ei(model, FAR, best)
        mc = qei_mc(model, FAR, best, config)
        assert mc == pytest.approx(closed, rel=0.02)


def test_qei_duplicate_point_equals_singleton(fitted_model):
    model, _ = fitted_model
    x = np.array([[0.21, 0.84]])
    best = float(model.target_mean - 3.0 * model.target_std)  # improvement certain
    config = AcquisitionConfig(batch_size=2, mc_samples=20_000, seed=7)
    single = qei_mc(model, x, best, config)
    pair = qei_mc(model, np.vstack([x, x]), best, config)
    assert single > 0
    assert pair == pytest.approx(single, rel=1e-3, abs=1e-6)


def test_qei_superset_dominates(fitted_model):
    model, best = fitted_model
    rng = np.random.default_rng(11)
    config = AcquisitionConfig(batch_size=3, mc_samples=8_192, seed=5)
    for _ in range(10):
        batch = rng.uniform(size=(3, 2))
        extra = np.vstack([batch, rng.uniform(size=(1, 2))])
        assert qei_mc(model, extra, best, config) >= (
            qei_mc(model, batch, best, config) - 1e-9
        )


def test_qei_is_pure_function_of_inputs(fitted_model):
    model, best = fitted_model
    batch = np.array([[0.2, 0.3], [0.8, 0.1]])
    config = AcquisitionConfig(batch_size=2, mc_samples=4_096, seed=13)
    assert qei_mc(model, batch, best, config) == qei_mc(model, batch, best, config)


def test_propose_batch_in_box_and_deterministic(fitted_model, unit_space):
    model, best = fitted_model
    config = AcquisitionConfig(
        batch_size=4, mc_samples=512, restarts=3, raw_candidates=128,
        maxiter=20, seed=3,
    )
    batch1 = propose_batch(model, unit_space, best, config, np.random.default_rng(9))
    batch2 = propose_batch(model, unit_space, best, config, np.random.default_rng(9))
    assert [p.values for p in batch1] == [p.values for p in batch2]
    assert len(batch1) == 4
    assert all(design_space_contains(unit_space, p) for p in batch1)


def test_propose_batch_beats_random_batches(fitted_model, unit_space):
    model, best = fitted_model
    config = AcquisitionConfig(
        batch_size=3, mc_samples=1024, restarts=3, raw_candidates=128,
        maxiter=25, seed=3,
    )
    batch = propose_batch(model, unit_space, best, config, np.random.default_rng(4))
    u = np.array([to_unit_cube(unit_space, p) for p in batch])
    value = qei_mc(model, u, best, config)
    rng = np.random.default_rng(100)
    random_best = max(
        qei_mc(model, rng.uniform(size=(3, 2)), best, config) for _ in range(50)
    )
    assert value >= random_best


def test_propose_batch_handles_tiny_search_budget(fitted_model):
    # even a degenerate optimizer budget must return in-box points
    model, best = fitted_model
    space = DesignSpace((Parameter("a", 0.0, 1.0), Parameter("b", 0.0, 1.0)))
    config = AcquisitionConfig(
        batch_size=2, mc_samples=64, restarts=1, raw_candidates=4, maxiter=1, seed=0
    )
    batch = propose_batch(model, space, best, config, np.random.default_rng(0))
    assert all(design_space_contains(space, p) for p in batch)


# ------------------------------------------- premises of the per-slot scorer

@pytest.mark.parametrize("q", [1, 2, 4, 5])
def test_base_draws_prefix_columns_are_bitwise_stable(q):
    full = _base_draws(11, q, 257)
    for s in range(1, q + 1):
        assert np.array_equal(full[:, :s], _base_draws(11, s, 257))
        assert full[:, :s].strides == _base_draws(11, s, 257).strides


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_slot_scorer_matches_qei_of_extended_batch(fitted_model, k):
    model, _ = fitted_model
    best = -0.3  # below every training target: every batch's qEI is positive
    config = AcquisitionConfig(batch_size=k + 1, mc_samples=2048, seed=5)
    prefix = np.array([[0.1, 0.2], [0.8, 0.3], [0.4, 0.9]])[:k]
    cands = np.random.default_rng(100 + k).uniform(size=(6, 2))
    score = _slot_scorer(
        model, prefix, _base_draws(config.seed, k + 1, config.mc_samples), best
    )
    scores = score(cands)
    for value, c in zip(scores, cands):
        expected = qei_mc(model, np.vstack([prefix, c[None, :]]), best, config)
        assert expected > 0.0
        assert value == pytest.approx(expected, rel=1e-9)


def _model_in(d):
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(8 if d == 2 else 30, d))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    y = y + 0.3 * np.sum(np.sin(4.0 * X[:, 2:]), axis=1)
    return gp_fit(X, y, GpFitConfig(restarts=4, seed=1)), float(y.min()) - 0.1


@pytest.mark.parametrize("d", [2, 14])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_slot_scorer_gradient_matches_central_differences(d, k):
    model, best = _model_in(d)
    prefix = np.random.default_rng(8).uniform(size=(k, d))
    cands = np.random.default_rng(100 + k).uniform(size=(3, d))
    # 512 draws at h = 1e-6 leave every draw's bordered sample clear of its
    # threshold across the stencil for these inputs; a crossed kink of the
    # Monte-Carlo estimator shifts a difference quotient by ~|df/dx| / 1024.
    score = _slot_scorer(model, prefix, _base_draws(5, k + 1, 512), best)
    values, grad = score(cands, grad=True)
    assert grad.shape == cands.shape
    assert np.allclose(values, score(cands), rtol=1e-12, atol=0.0)
    h = 1e-6
    fd = np.empty_like(grad)
    for a in range(d):
        step = np.zeros(d)
        step[a] = h
        fd[:, a] = (score(cands + step) - score(cands - step)) / (2.0 * h)
    assert np.any(fd != 0.0)
    for g_row, fd_row in zip(grad, fd):
        scale = max(np.max(np.abs(fd_row)), 1e-8)
        assert np.max(np.abs(g_row - fd_row)) <= 1e-6 * scale


def test_propose_batch_propagates_prefix_factor_failure(unit_space):
    # A Cholesky factor far too small for its kernel makes every prefix
    # covariance strongly negative, beyond what diagonal jitter can repair.
    bogus = GpModel(
        train_inputs=np.array([[0.5, 0.5]]),
        train_targets=np.array([0.0]),
        lengthscales=np.array([10.0, 10.0]),
        signal_variance=1.0,
        noise_variance=1e-6,
        chol=np.array([[1e-3]]),
        alpha=np.array([0.0]),
        target_mean=0.0,
        target_std=1.0,
        log_marginal=0.0,
    )
    config = AcquisitionConfig(
        batch_size=2, mc_samples=64, restarts=1, raw_candidates=8, maxiter=3
    )
    with pytest.raises(NumericalError):
        propose_batch(bogus, unit_space, 0.0, config, np.random.default_rng(0))
