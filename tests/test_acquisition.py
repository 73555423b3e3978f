import math
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.stats import norm

from analogopt import acquisition
from analogopt.acquisition import (
    _SIGMA_FLOOR,
    TR_LENGTH_INIT,
    TR_LENGTH_MAX,
    TR_LENGTH_MIN,
    TR_RISE,
    AcquisitionConfig,
    _base_draws,
    _improvement,
    _joint_sample,
    _slot_scorer,
    ei,
    propose_batch,
    qei_mc,
    trust_region,
    trust_region_box,
)
from analogopt.core import DesignSpace, Parameter, design_space_contains, to_unit_cube
from analogopt.fom import FOM_PRESETS, FomConfig, failed_metrics
from analogopt.surrogate import (
    GpFitConfig,
    GpModel,
    NumericalError,
    _chol_with_jitter,
    gp_fit,
    gp_predict,
)

from conftest import model_with_prior


@pytest.fixture(scope="module")
def fitted_model():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(8, 2))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    return gp_fit(X, y, GpFitConfig(restarts=4), seed=1), float(y.max())


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


def _ei_scipy_stats(mean, var, best):
    """``ei`` as written with scipy.stats.norm, the reference it must match."""
    mu = float(mean[0])
    sigma = math.sqrt(max(float(var[0]), 0.0))
    if sigma < _SIGMA_FLOOR:
        return max(mu - best, 0.0)
    z = (mu - best) / sigma
    return max(float((mu - best) * norm.cdf(z) + sigma * norm.pdf(z)), 0.0)


def test_ei_is_bitwise_equal_to_scipy_stats_norm(fitted_model, monkeypatch):
    model, _ = fitted_model
    for x in ([0.3, 0.7], [0.95, 0.05]):
        mean, cov = gp_predict(model, np.atleast_2d(x))
        posterior = (mean, np.diag(cov))
        for best in np.linspace(-3.0, 3.0, 61):
            assert ei(model, np.array(x), best) == _ei_scipy_stats(*posterior, best)
    # A last-bit difference shows on about 0.1% of z, so the dense grid
    # feeds ei its posterior directly instead of through a GP.
    monkeypatch.setattr(
        acquisition, "gp_predict",
        lambda posterior, x: (posterior[0], np.diag(posterior[1])),
    )
    for var in (1.7, 2.5e-3, 3e-7, 1e-25, 0.0):  # the last two: sigma < _SIGMA_FLOOR
        posterior = (np.array([0.4]), np.array([var]))
        scale = max(math.sqrt(var), 1e-3)
        for t in np.linspace(-9.0, 9.0, 2001):
            best = 0.4 - scale * float(t)
            assert ei(posterior, FAR, best) == _ei_scipy_stats(*posterior, best)


def test_ei_nonnegative_everywhere():
    rng = np.random.default_rng(5)
    for _ in range(50):
        model = model_with_prior(mu=rng.normal(), sigma=abs(rng.normal()))
        assert ei(model, FAR, best=rng.normal()) >= 0.0


def test_qei_q1_matches_closed_form():
    # 20 (mu, sigma, best) triples with meaningful improvement probability
    rng = np.random.default_rng(17)
    config = AcquisitionConfig(mc_samples=100_000)
    for _ in range(20):
        mu = rng.normal()
        sigma = rng.uniform(0.3, 2.0)
        best = mu - rng.uniform(-0.5, 2.0) * sigma
        model = model_with_prior(mu, sigma)
        closed = ei(model, FAR, best)
        mc = qei_mc(model, FAR, best, config, seed=23)
        assert mc == pytest.approx(closed, rel=0.02)


def test_qei_duplicate_point_equals_singleton(fitted_model):
    # Every copy after the first takes the first copy's sample, so 2, 3 or 4
    # copies of one point estimate the singleton's qEI, with no jitter added.
    model, _ = fitted_model
    best = float(model.target_mean - 3.0 * model.target_std)  # improvement certain
    config = AcquisitionConfig(mc_samples=1024)
    for a in np.linspace(0.0, 1.0, 11):
        for b in np.linspace(0.0, 1.0, 11):
            x = np.array([[a, b]])
            single = qei_mc(model, x, best, config, seed=7)
            assert single > 0
            for q in (2, 3, 4):
                copies = qei_mc(model, np.repeat(x, q, axis=0), best, config, seed=7)
                assert copies == pytest.approx(single, rel=1e-7), (a, b, q)


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        min_size=1, max_size=4, unique=True,
    ),
    data=st.data(),
)
def test_qei_is_unmoved_by_a_repeated_point(fitted_model, cells, data):
    # A repeat appended to a batch of distinct points draws its sample from
    # the prefix, so the batch maximum, and the estimate, stay put.
    model, _ = fitted_model
    batch = np.array(cells) / 10.0
    j = data.draw(st.integers(0, len(cells) - 1), label="repeated")
    best = float(model.target_mean - 3.0 * model.target_std)  # improvement certain
    config = AcquisitionConfig(mc_samples=1024)
    repeated = qei_mc(model, np.vstack([batch, batch[j]]), best, config, seed=7)
    single = qei_mc(model, batch, best, config, seed=7)
    assert repeated == pytest.approx(single, rel=1e-6)


def test_qei_superset_dominates(fitted_model):
    model, best = fitted_model
    rng = np.random.default_rng(11)
    config = AcquisitionConfig(mc_samples=8_192)
    for _ in range(10):
        batch = rng.uniform(size=(3, 2))
        extra = np.vstack([batch, rng.uniform(size=(1, 2))])
        assert qei_mc(model, extra, best, config, seed=5) >= (
            qei_mc(model, batch, best, config, seed=5) - 1e-9
        )


def test_qei_is_pure_function_of_inputs(fitted_model):
    model, best = fitted_model
    batch = np.array([[0.2, 0.3], [0.8, 0.1]])
    config = AcquisitionConfig(mc_samples=4_096)
    value = qei_mc(model, batch, best, config, seed=13)
    assert qei_mc(model, batch, best, config, seed=13) == value


def test_propose_batch_in_box_and_deterministic(fitted_model, unit_space):
    model, best = fitted_model
    config = AcquisitionConfig(
        mc_samples=512, restarts=3, raw_candidates=128,
        maxiter=20,
    )
    batch1 = propose_batch(
        model, unit_space, best, 4, config, np.random.default_rng(9), seed=3
    )
    batch2 = propose_batch(
        model, unit_space, best, 4, config, np.random.default_rng(9), seed=3
    )
    assert [p.values for p in batch1] == [p.values for p in batch2]
    assert len(batch1) == 4
    assert all(design_space_contains(unit_space, p) for p in batch1)


# The batch of test_propose_batch_in_box_and_deterministic before boxes
# existed, as float.hex of each point's coordinates.
UNBOXED_BATCH = [
    ("0x1.037978e94331ap-1", "0x1.764bd4a14aacfp-35"),
    ("0x1.119516e42d08ep-1", "0x1.bb9c8ae0917bbp-4"),
    ("0x1.d87e82c063a85p-2", "0x1.83c6b3558901bp-27"),
    ("0x1.1932a40331350p-1", "0x1.3e8be56955f3bp-3"),
]


@pytest.mark.parametrize("box", [None, (np.zeros(2), np.ones(2))], ids=["none", "cube"])
def test_propose_batch_without_a_box_or_in_the_unit_cube_keeps_its_points(
    fitted_model, unit_space, box
):
    model, best = fitted_model
    config = AcquisitionConfig(
        mc_samples=512, restarts=3, raw_candidates=128, maxiter=20,
    )
    batch = propose_batch(
        model, unit_space, best, 4, config, np.random.default_rng(9), seed=3, box=box
    )
    assert [tuple(v.hex() for v in p.values) for p in batch] == UNBOXED_BATCH


@settings(max_examples=25, deadline=None)
@given(
    lo=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
    widths=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_propose_batch_stays_in_its_box(fitted_model, lo, widths, seed):
    model, best = fitted_model
    unit_space = DesignSpace((Parameter("a", 0.0, 1.0), Parameter("b", 0.0, 1.0)))
    lo = np.array(lo)
    hi = np.minimum(lo + np.array(widths), 1.0)
    config = AcquisitionConfig(mc_samples=64, restarts=2, raw_candidates=16, maxiter=5)
    batch = propose_batch(
        model, unit_space, best, 3, config, np.random.default_rng(seed), seed=seed,
        box=(lo, hi),
    )
    for p in batch:  # on the unit square a point's values are its coordinates
        assert np.all(lo <= p.values) and np.all(np.array(p.values) <= hi)


def test_trust_region_box_follows_the_lengthscales():
    model = replace(model_with_prior(0.0, 1.0), lengthscales=np.array([1.0, 4.0]))
    # w = (0.5, 2): half-sides 0.2 and 0.8, the second clipped at both ends
    lo, hi = trust_region_box(model, np.array([0.5, 0.5]), 0.8)
    assert lo == pytest.approx([0.3, 0.0]) and hi == pytest.approx([0.7, 1.0])
    lo, hi = trust_region_box(model, np.array([0.0, 0.9]), 0.4)
    assert lo == pytest.approx([0.0, 0.5]) and hi == pytest.approx([0.1, 1.0])


NO_SPECS = FomConfig(())


def _records(*foms):
    """Init record at ``foms[0]``, then one record per iteration at each FOM."""
    return [SimpleNamespace(iteration=i, fom=f, metrics={}) for i, f in enumerate(foms)]


def _steps(*rises, start=1.0):
    """Records whose best rises by each of ``rises`` in turn, from ``start``."""
    foms = [start]
    for rise in rises:
        foms.append(foms[-1] + rise)
    return _records(*foms)


def test_trust_region_starts_at_its_initial_length():
    assert trust_region(_steps(), NO_SPECS, 4, 14) == {
        "length": TR_LENGTH_INIT, "successes": 0, "failures": 0,
    }


def test_trust_region_doubles_after_three_successes_up_to_its_cap():
    assert trust_region(_steps(1, 1), NO_SPECS, 4, 14) == {
        "length": 0.8, "successes": 2, "failures": 0,
    }
    assert trust_region(_steps(1, 1, 1), NO_SPECS, 4, 14) == {
        "length": 1.6, "successes": 0, "failures": 0,
    }
    assert trust_region(_steps(*[1] * 6), NO_SPECS, 4, 14)["length"] == TR_LENGTH_MAX
    # a failure breaks the streak
    assert trust_region(_steps(1, 1, 0, 1), NO_SPECS, 4, 14) == {
        "length": 0.8, "successes": 1, "failures": 0,
    }


@pytest.mark.parametrize("q, d, streak", [(4, 14, 4), (5, 14, 3), (5, 2, 1), (1, 2, 4)])
def test_trust_region_halves_after_its_failure_streak(q, d, streak):
    assert streak == math.ceil(max(4 / q, d / q))
    before = trust_region(_steps(*[0] * (streak - 1)), NO_SPECS, q, d)
    assert before == {"length": 0.8, "successes": 0, "failures": streak - 1}
    assert trust_region(_steps(*[0] * streak), NO_SPECS, q, d) == {
        "length": 0.4, "successes": 0, "failures": 0,
    }


def test_trust_region_restarts_below_its_minimum_length():
    # one failure halves it at q = 5, d = 2: 0.8 / 2**2 = 0.2 stays,
    # 0.8 / 2**3 = 0.1 < 0.5**3 starts again at 0.8
    assert trust_region(_steps(*[0] * 2), NO_SPECS, 5, 2)["length"] == 0.8 / 2**2
    assert 0.8 / 2**3 < TR_LENGTH_MIN <= 0.8 / 2**2
    assert trust_region(_steps(*[0] * 3), NO_SPECS, 5, 2)["length"] == TR_LENGTH_INIT
    assert trust_region(_steps(*[0] * 5), NO_SPECS, 5, 2)["length"] == 0.8 / 2**2


@pytest.mark.parametrize("before", [-2.0, 3.7, 0.0])
def test_trust_region_success_needs_a_rise_above_its_threshold(before):
    edge = before + TR_RISE * abs(before)
    assert trust_region(_records(before, edge), NO_SPECS, 4, 14)["failures"] == 1
    above = float(np.nextafter(edge, np.inf))
    assert trust_region(_records(before, above), NO_SPECS, 4, 14)["successes"] == 1


def test_trust_region_counts_only_iterations_whose_incumbent_meets_every_spec():
    amp2 = FOM_PRESETS["amp2"]
    met = {m.name: m.spec for m in amp2.metrics}
    missed = failed_metrics(amp2)
    records = [
        SimpleNamespace(iteration=0, fom=-5.0, metrics=missed),
        SimpleNamespace(iteration=1, fom=-4.0, metrics=missed),
        SimpleNamespace(iteration=2, fom=1.0, metrics=met),
        SimpleNamespace(iteration=2, fom=0.5, metrics=missed),
        SimpleNamespace(iteration=3, fom=2.0, metrics=met),
    ]
    assert trust_region(records[:2], amp2, 5, 14) is None
    # iterations 1 and 2 started from an incumbent that missed specs
    assert trust_region(records[:4], amp2, 5, 14) == {
        "length": TR_LENGTH_INIT, "successes": 0, "failures": 0,
    }
    assert trust_region(records, amp2, 5, 14)["successes"] == 1
    # a later best that misses a spec closes the region again
    worse = records + [SimpleNamespace(iteration=4, fom=3.0, metrics=missed)]
    assert trust_region(worse, amp2, 5, 14) is None


def test_propose_batch_beats_random_batches(fitted_model, unit_space):
    model, best = fitted_model
    config = AcquisitionConfig(
        mc_samples=1024, restarts=3, raw_candidates=128,
        maxiter=25,
    )
    batch = propose_batch(
        model, unit_space, best, 3, config, np.random.default_rng(4), seed=3
    )
    u = np.array([to_unit_cube(unit_space, p) for p in batch])
    value = qei_mc(model, u, best, config, seed=3)
    rng = np.random.default_rng(100)
    random_best = max(
        qei_mc(model, rng.uniform(size=(3, 2)), best, config, seed=3)
        for _ in range(50)
    )
    assert value >= random_best


def test_propose_batch_handles_tiny_search_budget(fitted_model):
    # even a degenerate optimizer budget must return in-box points
    model, best = fitted_model
    space = DesignSpace((Parameter("a", 0.0, 1.0), Parameter("b", 0.0, 1.0)))
    config = AcquisitionConfig(
        mc_samples=64, restarts=1, raw_candidates=4, maxiter=1
    )
    batch = propose_batch(
        model, space, best, 2, config, np.random.default_rng(0), seed=0
    )
    assert all(design_space_contains(space, p) for p in batch)


# ------------------------------------------- premises of the per-slot scorer

@pytest.mark.parametrize("q", [1, 2, 4, 5])
def test_base_draws_prefix_columns_are_bitwise_stable(q):
    full = _base_draws(11, q, 257)
    for s in range(1, q + 1):
        assert np.array_equal(full[:, :s], _base_draws(11, s, 257))
        assert full[:, :s].strides == _base_draws(11, s, 257).strides


def _dense_qei(model, batch, best, config, seed):
    """Full-batch Monte-Carlo qEI from one joint factor of the batch's
    posterior covariance, independent of the scorer's bordered factor."""
    mean, cov = gp_predict(model, batch)
    L, _ = _chol_with_jitter(cov)
    Z = _base_draws(seed, batch.shape[0], config.mc_samples)
    samples = mean[None, :] + Z @ L.T
    improvement = np.max(samples, axis=1) - best
    return float(np.mean(np.clip(improvement, 0.0, None)))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_slot_scorer_matches_qei_of_extended_batch(fitted_model, k):
    model, _ = fitted_model
    best = -0.3  # below every training target: every batch's qEI is positive
    config = AcquisitionConfig(mc_samples=2048)
    prefix = np.array([[0.1, 0.2], [0.8, 0.3], [0.4, 0.9]])[:k]
    cands = np.random.default_rng(100 + k).uniform(size=(6, 2))
    score = _slot_scorer(
        model, prefix, _base_draws(5, k + 1, config.mc_samples), best
    )
    scores = score(cands)
    for value, c in zip(scores, cands):
        expected = _dense_qei(
            model, np.vstack([prefix, c[None, :]]), best, config, seed=5
        )
        assert expected > 0.0
        assert value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("k", [0, 3])
def test_joint_sample_is_the_dense_joint_posterior_sample(fitted_model, k):
    # The bordered candidate coordinate equals the last coordinate of
    # mean + L z, L the Cholesky factor of the dense joint covariance.
    model, _ = fitted_model
    prefix = np.array([[0.1, 0.2], [0.8, 0.3], [0.4, 0.9]])[:k]
    cands = np.random.default_rng(100 + k).uniform(size=(6, 2))
    Z = _base_draws(5, k + 1, 256)
    prefix_draws, sample = _joint_sample(model, prefix, Z)
    assert prefix_draws.shape == (256, k)
    f_last = sample(cands)
    for r, c in enumerate(cands):
        mean, cov = gp_predict(model, np.vstack([prefix, c[None, :]]))
        L, _ = _chol_with_jitter(cov)
        dense = mean[None, :] + Z @ L.T
        np.testing.assert_allclose(f_last[:, r], dense[:, -1], rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(prefix_draws, dense[:, :-1], rtol=1e-10, atol=0.0)


def test_improvement_clips_at_the_threshold_and_marks_active_draws():
    threshold = np.array([[1.0], [2.0], [0.5]])
    f_last = np.array([[0.0, 1.5], [2.0, 3.0], [1.0, 0.5]])
    values, active = _improvement(f_last.copy(), threshold, 0.5, grad=True)
    # improvements max(threshold, f) - 0.5, column by column
    assert values.tolist() == [(0.5 + 1.5 + 0.5) / 3, (1.0 + 2.5 + 0.0) / 3]
    # a draw equal to its threshold does not set the maximum
    assert active.tolist() == [[False, True], [False, True], [True, False]]
    overwritten = f_last.copy()
    assert _improvement(overwritten, threshold, 0.5).tolist() == values.tolist()
    assert overwritten.tolist() == [[0.5, 1.0], [1.5, 2.5], [0.5, 0.0]]


def _model_in(d):
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(8 if d == 2 else 30, d))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    y = y + 0.3 * np.sum(np.sin(4.0 * X[:, 2:]), axis=1)
    return gp_fit(X, y, GpFitConfig(restarts=4), seed=1), float(y.min()) - 0.1


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


def _model_at(X, y, lengthscales, sv, nv):
    """A GP at fixed hyperparameters, factored by numpy alone, with
    standardized targets."""
    mean, std = float(y.mean()), float(y.std())
    targets = (y - mean) / std
    diff = (X[:, None, :] - X[None, :, :]) / lengthscales
    K = sv * np.exp(-0.5 * (diff**2).sum(axis=2))
    L = np.linalg.cholesky(K + nv * np.eye(len(y)))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, targets))
    return GpModel(X, targets, lengthscales, sv, nv, L, alpha, mean, std, 0.0)


# score(cands, grad=True) of the scorer below, as float.hex: the two values,
# then the (2, 14) gradients row by row.
SCORE_R2_K3_D14 = (
    ("0x1.36a70a14772d2p+1", "0x1.31f2907577736p+1"),
    (
        "0x1.f81a368934c3dp-2", "-0x1.2f73df0a6ab70p-2", "0x1.250beb5045902p-4",
        "-0x1.9c0124542c6dap-4", "-0x1.87431a54218b8p-4", "-0x1.3afabc5c7e008p-7",
        "-0x1.c274481622a73p-6", "-0x1.8ae9f0a934783p-3", "-0x1.324b8befc1b8cp-3",
        "0x1.a9a5d3bf9c55ap-8", "0x1.80e525f772585p-6", "-0x1.f4d98f5736b68p-5",
        "-0x1.a733243aab5a1p-7", "-0x1.4b4c9f4424d81p-6", "0x1.e05671b88789ep-2",
        "-0x1.b77be0a126f80p-3", "0x1.34546b800525cp-3", "0x1.e766a14fe67d8p-3",
        "-0x1.110939adbe3a7p-3", "-0x1.1aa5eda4c87c3p-3", "-0x1.41b4557e090f6p-4",
        "-0x1.515a857a030b4p-4", "-0x1.256ceccd6194fp-3", "-0x1.7c3aa1bfb6a4cp-5",
        "-0x1.1f82c84dffae6p-8", "-0x1.11916cc314865p-4", "-0x1.492742599047cp-7",
        "0x1.e4efcc8ec20a0p-7",
    ),
)


def test_slot_scorer_keeps_its_bits_at_r2_k3_d14():
    # The scorer's arithmetic is kept to the bit, including the memory
    # layouts that fix the summation order of its einsum and gemm calls.
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(30, 14))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    y = y + 0.3 * np.sum(np.sin(4.0 * X[:, 2:]), axis=1)
    model = _model_at(X, y, np.linspace(0.4, 1.7, 14), 1.1, 1e-3)
    prefix = np.random.default_rng(8).uniform(size=(3, 14))
    cands = np.random.default_rng(103).uniform(size=(2, 14))
    score = _slot_scorer(model, prefix, _base_draws(5, 4, 512), float(y.min()) - 0.1)
    values, grad = score(cands, grad=True)
    assert (
        tuple(v.hex() for v in values), tuple(g.hex() for g in grad.ravel())
    ) == SCORE_R2_K3_D14


@pytest.mark.parametrize(
    "k, strides, c_order",
    [(0, (224, 112, 8), True), (1, (224, 112, 8), True),
     (2, (8, 336, 24), False), (3, (8, 448, 32), False)],
)
def test_joint_sample_keeps_the_memory_layout_of_its_factor_derivative(
    k, strides, c_order
):
    # dfactor, (k + 1, R, d), is laid out as np.concatenate lays out dW's
    # strides: C order up to one prefix point, the prefix index innermost
    # from two on. That layout fixes the order in which the chain rule's
    # einsum adds its terms, and with it SCORE_R2_K3_D14 and the golden run
    # logs; a numpy that lays concatenate's result out otherwise fails here.
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(30, 14))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    model = _model_at(X, y, np.linspace(0.4, 1.7, 14), 1.1, 1e-3)
    prefix = np.random.default_rng(8).uniform(size=(k, 14))
    cands = np.random.default_rng(103).uniform(size=(2, 14))
    _, sample = _joint_sample(model, prefix, _base_draws(5, k + 1, 512))
    _, (_, dfactor) = sample(cands, grad=True)
    assert dfactor.shape == (k + 1, 2, 14)
    flags = dfactor.flags
    assert (dfactor.strides, flags.c_contiguous, flags.f_contiguous) == (
        strides, c_order, False
    ), "np.concatenate changed the layout of the scorer's dfactor"


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
        mc_samples=64, restarts=1, raw_candidates=8, maxiter=3
    )
    with pytest.raises(NumericalError):
        propose_batch(
            bogus, unit_space, 0.0, 2, config, np.random.default_rng(0), seed=0
        )
