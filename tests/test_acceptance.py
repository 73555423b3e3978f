"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Criterion 5 dominates the runtime (about half a minute).
"""

import math
from collections import Counter

import numpy as np
import pytest

from analogopt.acquisition import AcquisitionConfig, ei, propose_batch, qei_mc
from analogopt.config import RunConfig, build_model, build_task_card
from analogopt.core import DesignPoint, Region, design_space_contains
from analogopt.evaluator import (
    circuit_model,
    classify_regions,
    evaluate,
)
from analogopt.fom import AMP2_FOM, COMPARATOR_FOM, compute_fom, count_missed_specs
from analogopt.llm import (
    LlmConfig,
    OutOfRange,
    ScriptedLlmClient,
    parse_response,
    propose,
)
from analogopt.orchestrator import run
from analogopt.surrogate import (
    GpFitConfig,
    from_unit_cube,
    gp_fit,
    gp_predict,
    log_marginal_likelihood,
    rbf_kernel,
)

from conftest import model_with_prior


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number, name):
        self.label = f"criterion {number}: {name}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label}", flush=True)
        return False


# --- 1. FOM oracle reproduction --------------------------------------------

AMP2_ROWS = [
    ("gp_bo 5+5x20", {"gain": 27.12, "cmrr": 106.08, "gbw": 4.63, "pm": 97.76,
                      "power": 27.02}, 1.89, 0.03, 1),
    ("gp_bo 5+5x80", {"gain": 63.09, "cmrr": 79.57, "gbw": 7.22, "pm": 94.28,
                      "power": 65.76}, 2.10, 0.03, 1),
    ("hybrid 5+5x20", {"gain": 60.83, "cmrr": 78.38, "gbw": 1.35, "pm": 92.29,
                       "power": 19.79}, 3.52, 0.06, 0),
]
COMPARATOR_ROWS = [
    ("gp_bo 5+5x20", {"gain": 55.47, "ugf": 8.42, "v_hys_err": 199.42,
                      "v_offset": -3.95, "power": 77.70}, -3.38, 0.03, 2),
    ("gp_bo 5+5x80", {"gain": 30.18, "ugf": 10.10, "v_hys_err": 186.33,
                      "v_offset": 3.55, "power": 94.31}, -1.42, 0.03, 1),
    ("llm 5+1x100", {"gain": 40.52, "ugf": 13.66, "v_hys_err": 161.14,
                     "v_offset": 7.36, "power": 121.37}, -1.35, 0.03, 1),
    ("hybrid 5+5x20", {"gain": 60.83, "ugf": 12.04, "v_hys_err": 159.83,
                       "v_offset": -1.00, "power": 109.89}, 0.90, 0.03, 0),
]


def test_criterion_1_fom_oracle_reproduction():
    with criterion(1, "FOM oracle reproduction (7 rows)"):
        for name, metrics, reported, tol, _ in AMP2_ROWS:
            recomputed = compute_fom(metrics, AMP2_FOM)
            assert abs(recomputed - reported) <= tol, (name, recomputed)
        for name, metrics, reported, tol, _ in COMPARATOR_ROWS:
            recomputed = compute_fom(metrics, COMPARATOR_FOM)
            assert abs(recomputed - reported) <= tol, (name, recomputed)


# --- 2. Missed-spec reproduction --------------------------------------------

def test_criterion_2_missed_specs_exact():
    with criterion(2, "missed-spec counts match exactly (7 rows)"):
        for name, metrics, _, _, missed in AMP2_ROWS:
            assert count_missed_specs(metrics, AMP2_FOM) == missed, name
        for name, metrics, _, _, missed in COMPARATOR_ROWS:
            assert count_missed_specs(metrics, COMPARATOR_FOM) == missed, name


# --- 3. GP correctness -------------------------------------------------------

def test_criterion_3_gp_correctness():
    with criterion(3, "GP posterior vs dense oracle, LML gradient, train variance"):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(5, 2))
        y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
        model = gp_fit(X, y, GpFitConfig(restarts=4), seed=1)

        # posterior mean/covariance vs an explicit-inverse dense solve
        Q = rng.uniform(size=(4, 2))
        mean, cov = gp_predict(model, Q)
        K = rbf_kernel(X, X, model.lengthscales, model.signal_variance) + (
            model.noise_variance + model.jitter
        ) * np.eye(5)
        Ks = rbf_kernel(X, Q, model.lengthscales, model.signal_variance)
        Kqq = rbf_kernel(Q, Q, model.lengthscales, model.signal_variance)
        Kinv = np.linalg.inv(K)
        mean_ref = model.target_mean + model.target_std * (
            Ks.T @ Kinv @ model.train_targets
        )
        cov_ref = model.target_std**2 * (Kqq - Ks.T @ Kinv @ Ks)
        assert np.abs(mean - mean_ref).max() <= 1e-8
        assert np.abs(cov - cov_ref).max() <= 1e-8

        # LML gradient vs central finite differences, relative 1e-4
        theta = np.log(np.array([0.5, 0.9, 1.4, 3e-3]))

        def lml_at(t):
            return log_marginal_likelihood(
                X, y, np.exp(t[:2]), math.exp(t[2]), math.exp(t[3])
            )[0]

        grad = log_marginal_likelihood(
            X, y, np.exp(theta[:2]), math.exp(theta[2]), math.exp(theta[3])
        )[1]
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (lml_at(theta + e) - lml_at(theta - e)) / (2.0 * h)
            assert abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-8)

        # posterior variance at the training inputs stays within the noise
        var = np.diag(gp_predict(model, X)[1])
        noise = model.noise_variance * model.target_std**2
        assert np.all(var <= noise + 1e-6)


# --- 4. Acquisition correctness ---------------------------------------------

def test_criterion_4_acquisition_correctness(unit_space):
    with criterion(4, "qEI vs closed-form EI (2% at 1e5), in-box, deterministic"):
        rng = np.random.default_rng(17)
        config = AcquisitionConfig(mc_samples=100_000)
        far = np.array([[0.0]])
        for _ in range(20):
            mu = rng.normal()
            sigma = rng.uniform(0.3, 2.0)
            best = mu - rng.uniform(-0.5, 2.0) * sigma
            model = model_with_prior(mu, sigma)
            closed = ei(model, far, best)
            mc = qei_mc(model, far, best, config, seed=23)
            assert abs(mc - closed) <= 0.02 * closed, (mu, sigma, best)

        fit_rng = np.random.default_rng(3)
        X = fit_rng.uniform(size=(8, 2))
        y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
        model = gp_fit(X, y, GpFitConfig(restarts=4), seed=1)
        acq = AcquisitionConfig(
            mc_samples=512, restarts=3, raw_candidates=128,
            maxiter=20,
        )
        batch1 = propose_batch(model, unit_space, float(y.max()), 4, acq,
                               np.random.default_rng(9), seed=3)
        batch2 = propose_batch(model, unit_space, float(y.max()), 4, acq,
                               np.random.default_rng(9), seed=3)
        assert all(design_space_contains(unit_space, p) for p in batch1)
        assert [p.values for p in batch1] == [p.values for p in batch2]


# --- 5. Engine sanity on negated Branin --------------------------------------

def test_criterion_5_gp_bo_beats_random_on_branin():
    with criterion(5, "gp_bo median beats random search on Branin (10 seeds)"):
        model = circuit_model("branin")
        gp_bests, random_bests = [], []
        for seed in range(10):
            config = RunConfig(
                method="gp_bo", preset="branin", n_init=5, n_iter=20,
                llm_queries_per_step=0, gp_queries_per_step=5,
                init_strategy="uniform_random", seed=seed,
                acquisition=AcquisitionConfig(
                    mc_samples=256, restarts=2, raw_candidates=128, maxiter=20,
                ),
                gp_fit=GpFitConfig(restarts=3, maxiter=60),
            )
            log = run(config)
            assert len(log.dataset) == 105
            gp_bests.append(log.summary["best_fom"])

            rng = np.random.default_rng(10_000 + seed)
            best = -np.inf
            for _ in range(105):  # same evaluation budget
                point = from_unit_cube(model.space, rng.uniform(size=2))
                best = max(best, evaluate(model, point).fom)
            random_bests.append(best)
        gp_median = float(np.median(gp_bests))
        random_median = float(np.median(random_bests))
        print(f"  gp_bo median {gp_median:.4f} vs random median "
              f"{random_median:.4f}", flush=True)
        assert gp_median > random_median


# --- 6. Hybrid-loop contract --------------------------------------------------

def test_criterion_6_hybrid_loop_contract():
    with criterion(6, "ado_llm: 105 evals, {llm:1, gp_bo:4}, bitwise rerun"):
        config = RunConfig(
            method="ado_llm", preset="branin", n_init=5, n_iter=20,
            llm_queries_per_step=1, gp_queries_per_step=4,
            init_strategy="llm_zero_shot", mock="random", seed=42,
            acquisition=AcquisitionConfig(
                mc_samples=256, restarts=2, raw_candidates=128, maxiter=20,
            ),
            gp_fit=GpFitConfig(restarts=3, maxiter=60),
        )
        log = run(config)
        assert len(log.dataset) == 105
        for iteration in range(1, 21):
            sources = Counter(
                r.source.value for r in log.dataset if r.iteration == iteration
            )
            assert sources == {"llm": 1, "gp_bo": 4}, iteration
        rerun = run(config)
        assert log.text() == rerun.text()


# --- 7. Evaluator properties --------------------------------------------------

def test_criterion_7_evaluator_properties():
    with criterion(7, "evaluator physics properties and region guards"):
        amp2 = circuit_model("amp2")
        base = DesignPoint((
            20e-6, 0.5e-6, 10e-6, 0.5e-6, 2e-6, 0.5e-6, 20e-6, 0.5e-6,
            3e-6, 0.5e-6, 2e-6, 0.8e-6, 2000.0, 10e-12,
        ))

        def amp2_with(**updates):
            values = list(base.values)
            for name, value in updates.items():
                values[amp2.space.names.index(name)] = value
            return DesignPoint(tuple(values))

        gbw = evaluate(amp2, base).metrics["gbw"]
        gbw2 = evaluate(amp2, amp2_with(cc=20e-12)).metrics["gbw"]
        assert gbw / gbw2 == 2.0  # exact halving

        powers = [
            evaluate(amp2, amp2_with(wb=w)).metrics["power"]
            for w in (1e-6, 2e-6, 4e-6, 8e-6)
        ]
        assert all(a < b for a, b in zip(powers, powers[1:]))

        comp = circuit_model("comparator")
        cbase = DesignPoint((
            100e-6, 0.5e-6, 10e-6, 0.5e-6, 10e-6, 0.5e-6, 10e-6, 0.5e-6,
            2.5e-6, 0.5e-6, 2.5e-6, 0.5e-6,
        ))

        def comp_with(**updates):
            values = list(cbase.values)
            for name, value in updates.items():
                values[comp.space.names.index(name)] = value
            return DesignPoint(tuple(values))

        assert evaluate(comp, cbase).metrics["v_hys_err"] == 0.0  # alpha = 1
        hys = [
            evaluate(comp, comp_with(w5=w)).metrics["v_hys_err"]
            for w in (15e-6, 30e-6, 60e-6)
        ]
        assert hys[0] > 0.0 and hys[0] < hys[1] < hys[2]

        offsets = [
            abs(evaluate(comp, comp_with(w1=w, l1=l)).metrics["v_offset"])
            for w, l in ((25e-6, 0.25e-6), (50e-6, 0.5e-6), (100e-6, 1e-6))
        ]
        assert offsets[0] > offsets[1] > offsets[2]

        # region classifier on constructed bias solutions (1.0 V budget)
        sat = {d: 0.2 for d in amp2.devices}
        report = classify_regions(amp2, sat)  # first stack sums to 0.6 V
        assert report["M1"] is Region.SATURATION
        crowded = {**sat, "M1": 0.4, "M3": 0.5}
        report = classify_regions(amp2, crowded)  # sums to 1.1 V
        assert report["M1"] is Region.TRIODE
        cut = {**sat, "M6": -0.01}
        assert classify_regions(amp2, cut)["M6"] is Region.CUTOFF


# --- 8. Proposer robustness ---------------------------------------------------

def test_criterion_8_proposer_robustness(tmp_path):
    with criterion(8, "mock retry sequences and range-citing parser"):
        config = RunConfig(method="ado_llm", preset="amp2", mock="random")
        model = build_model(config)
        card = build_task_card(config, model)
        good = "\n".join(
            ["```"]
            + [f"{p.name} = {p.lower!r}" for p in model.space.parameters]
            + ["```"]
        )

        client = ScriptedLlmClient(["malformed", good])
        point, _ = propose(client, card, [], LlmConfig(retry_limit=3))
        assert client.calls == 2
        assert design_space_contains(model.space, point)

        client = ScriptedLlmClient(["malformed"])
        point, _ = propose(client, card, [], LlmConfig(retry_limit=3))
        assert point is None
        assert client.calls == 3

        # exhaustion inside a run substitutes a logged random point
        script = tmp_path / "always_bad.txt"
        script.write_text("malformed forever\n", encoding="utf-8")
        run_config = RunConfig(
            method="llm_only", preset="branin", n_init=2, n_iter=2,
            llm_queries_per_step=1, gp_queries_per_step=0,
            init_strategy="uniform_random", mock=str(script), seed=0,
        )
        log = run(run_config)
        assert len(log.dataset) == 4
        iter_records = [r for r in log.dataset if r.iteration >= 1]
        assert all(r.source.value == "random" for r in iter_records)
        iter_lines = [l for l in log.lines if l.get("type") == "iteration"]
        assert all(l["llm_substituted"] == 1 for l in iter_lines)

        # the parser cites the configured bounds when rejecting
        bad = good.replace(repr(120e-9), "60nm", 1)
        with pytest.raises(OutOfRange) as excinfo:
            parse_response(bad, model.space)
        message = str(excinfo.value)
        assert excinfo.value.parameter == "w1"
        assert "120 nm" in message and "50 um" in message
