import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analogopt.core import StructuralError
from analogopt.fom import (
    AMP2_FOM,
    COMPARATOR_FOM,
    FOM_PRESETS,
    Direction,
    FomConfig,
    MetricSpec,
    Sign,
    compute_fom,
    count_missed_specs,
    failed_metrics,
    hits_spec,
)

AMP2_METRICS = {m.name: m for m in AMP2_FOM.metrics}
COMPARATOR_METRICS = {m.name: m for m in COMPARATOR_FOM.metrics}

# best-parameter-set rows used as recomputation oracles:
# (metrics, reported_fom, fom_tol, reported_missed)
AMP2_ROWS = [
    ({"gain": 27.12, "cmrr": 106.08, "gbw": 4.63, "pm": 97.76, "power": 27.02},
     1.89, 0.03, 1),
    ({"gain": 63.09, "cmrr": 79.57, "gbw": 7.22, "pm": 94.28, "power": 65.76},
     2.10, 0.03, 1),
    ({"gain": 60.83, "cmrr": 78.38, "gbw": 1.35, "pm": 92.29, "power": 19.79},
     3.52, 0.06, 0),
]
COMPARATOR_ROWS = [
    ({"gain": 55.47, "ugf": 8.42, "v_hys_err": 199.42, "v_offset": -3.95,
      "power": 77.70}, -3.38, 0.03, 2),
    ({"gain": 30.18, "ugf": 10.10, "v_hys_err": 186.33, "v_offset": 3.55,
      "power": 94.31}, -1.42, 0.03, 1),
    ({"gain": 40.52, "ugf": 13.66, "v_hys_err": 161.14, "v_offset": 7.36,
      "power": 121.37}, -1.35, 0.03, 1),
    ({"gain": 60.83, "ugf": 12.04, "v_hys_err": 159.83, "v_offset": -1.00,
      "power": 109.89}, 0.90, 0.03, 0),
]


def test_hits_spec_examples():
    gain = AMP2_METRICS["gain"]
    assert not hits_spec(27.12, gain)
    assert hits_spec(60.0, gain)  # inclusive
    power = AMP2_METRICS["power"]
    assert hits_spec(27.02, power)
    assert hits_spec(30.0, power)
    offset = COMPARATOR_METRICS["v_offset"]
    assert hits_spec(-3.95, offset)
    assert not hits_spec(-25.0, offset)


def _term(value, spec):
    """``compute_fom`` over one metric: its signed, bounded, normalized term."""
    return compute_fom({spec.name: value}, FomConfig((spec,)))


def test_compute_fom_normalizes_one_metric():
    gain = AMP2_METRICS["gain"]
    assert _term(27.12, gain) == pytest.approx(-1.0)
    assert _term(60.0, gain) == pytest.approx(1.0)
    power = AMP2_METRICS["power"]  # a minus-sign metric
    assert _term(0.0, power) == 0.0
    assert _term(65.76, power) == pytest.approx(-80.0 / 30.0)
    offset = COMPARATOR_METRICS["v_offset"]
    assert _term(-3.95, offset) == pytest.approx(-3.95 / 20.0)


def test_failing_value_is_constant():
    gain = AMP2_METRICS["gain"]
    rng = np.random.default_rng(0)
    expected = (gain.failed - gain.norm_min) / (gain.norm_max - gain.norm_min)
    for v in rng.uniform(-500.0, 59.999, size=100):
        assert _term(v, gain) == expected


def test_compute_fom_bounds_only_the_upper_side():
    gbw = AMP2_METRICS["gbw"]  # norm range [0, 10], bound 2
    assert _term(21.72, gbw) == 2.0
    assert _term(4.63, gbw) == pytest.approx(0.463)
    assert _term(0.5, gbw) == -1.0  # a failing term is never clipped
    assert _term(50.0, dataclasses.replace(gbw, bound=None)) == 5.0


@pytest.mark.parametrize("metrics,reported,tol,missed", AMP2_ROWS)
def test_amp2_rows_reproduce(metrics, reported, tol, missed):
    assert compute_fom(metrics, AMP2_FOM) == pytest.approx(reported, abs=tol)
    assert count_missed_specs(metrics, AMP2_FOM) == missed


@pytest.mark.parametrize("metrics,reported,tol,missed", COMPARATOR_ROWS)
def test_comparator_rows_reproduce(metrics, reported, tol, missed):
    assert compute_fom(metrics, COMPARATOR_FOM) == pytest.approx(reported, abs=tol)
    assert count_missed_specs(metrics, COMPARATOR_FOM) == missed


def test_all_failed_constant():
    # independent arithmetic over the failure constants and norm ranges
    expected = (-10 / 10) + (-60 / 60) + (-80 / 80) + (-180 / 45) - (80 / 30)
    assert compute_fom(failed_metrics(AMP2_FOM), AMP2_FOM) == pytest.approx(expected)
    assert expected == pytest.approx(-9.667, abs=1e-3)
    comp_expected = -1.0 - 1.0 - 2.0 - 2.0 - 2.0
    assert compute_fom(
        failed_metrics(COMPARATOR_FOM), COMPARATOR_FOM
    ) == pytest.approx(comp_expected)


def test_all_at_spec_misses_nothing():
    metrics = {m.name: m.spec for m in AMP2_FOM.metrics}
    assert count_missed_specs(metrics, AMP2_FOM) == 0


def test_missing_metric_is_structural():
    metrics = {"gain": 60.0}
    with pytest.raises(StructuralError):
        compute_fom(metrics, AMP2_FOM)
    with pytest.raises(StructuralError):
        count_missed_specs(metrics, AMP2_FOM)


def test_monotone_in_passing_metrics():
    rng = np.random.default_rng(1)
    base = {"gbw": 3.0, "gain": 70.0, "cmrr": 80.0, "pm": 65.0, "power": 20.0}
    for _ in range(200):
        metrics = dict(base)
        name = rng.choice(["gbw", "gain", "cmrr", "pm", "power"])
        spec = AMP2_METRICS[name]
        before = compute_fom(metrics, AMP2_FOM)
        bumped = dict(metrics)
        bumped[name] = metrics[name] + rng.uniform(0.0, 2.0)
        if spec.sign is Sign.MINUS and not hits_spec(bumped[name], spec):
            continue  # crossing the spec gate is allowed to jump
        after = compute_fom(bumped, AMP2_FOM)
        if spec.sign is Sign.PLUS:
            assert after >= before - 1e-12
        else:
            assert after <= before + 1e-12


def test_metric_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec("m", Direction.AT_LEAST, spec=1.0, norm_min=1.0, norm_max=1.0,
                   failed=-1.0)
    with pytest.raises(ValueError):  # at_least failure constant above the spec
        MetricSpec("m", Direction.AT_LEAST, spec=1.0, norm_min=0.5, norm_max=2.0,
                   failed=1.5)
    with pytest.raises(ValueError):  # at_most failure constant below the spec
        MetricSpec("m", Direction.AT_MOST, spec=30.0, norm_min=0.0, norm_max=30.0,
                   failed=10.0)
    with pytest.raises(ValueError):
        MetricSpec("m", Direction.AT_LEAST, spec=1.0, norm_min=0.0, norm_max=2.0,
                   failed=-1.0, bound=0.0)


def test_fom_config_rejects_duplicate_metric_names():
    spec = MetricSpec("m", Direction.AT_LEAST, spec=1.0, norm_min=0.0, norm_max=2.0,
                      failed=-1.0)
    with pytest.raises(ValueError, match=r"^duplicate metric names: \['m', 'm'\]$"):
        FomConfig((spec, spec))


# The parity reference: the bodies of compute_fom and count_missed_specs
# before compute_fom read the config's precomputed terms, one hits_spec /
# normalize_metric / bound_value call per metric, with those two helpers here.
def normalize_metric(value, spec):
    v = abs(value) if spec.magnitude else value
    if not hits_spec(value, spec):
        v = spec.failed
    return (v - spec.norm_min) / (spec.norm_max - spec.norm_min)


def bound_value(value, bound):
    if bound is None:
        return value
    return min(value, bound)


def reference_compute_fom(metrics, config):
    total = 0.0
    for spec in config.metrics:
        if spec.name not in metrics:
            raise StructuralError(f"metric vector is missing {spec.name!r}")
        term = bound_value(normalize_metric(metrics[spec.name], spec), spec.bound)
        total += term if spec.sign is Sign.PLUS else -term
    return total


def reference_count_missed_specs(metrics, config):
    missed = 0
    for spec in config.metrics:
        if spec.name not in metrics:
            raise StructuralError(f"metric vector is missing {spec.name!r}")
        if not hits_spec(metrics[spec.name], spec):
            missed += 1
    return missed


def _outcome(fn, metrics, config):
    """A call's result as comparable data: the bits of a float, or the type
    and message of what it raised."""
    try:
        value = fn(metrics, config)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value), value)


def _edge_values(spec):
    """Values on the spec, on the upper bound, at the failure constant, and
    of every JSON or Python kind a metric vector can carry."""
    span = spec.norm_max - spec.norm_min
    values = [spec.spec, -spec.spec, spec.failed, spec.norm_min, spec.norm_max,
              0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, True, False,
              0, 1, -1, 60, 10**400, None, "", "1.0", [], {}]
    if spec.bound is not None:
        values += [spec.norm_min + spec.bound * span, spec.bound]
    return values


@st.composite
def metric_vectors(draw, config):
    vector = {}
    for spec in config.metrics:
        if draw(st.integers(0, 15)) == 0:
            continue  # a missing metric
        vector[spec.name] = draw(st.one_of(
            st.sampled_from(_edge_values(spec)),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-1000, 1000),
        ))
    extra = draw(st.dictionaries(
        st.sampled_from(["extra", "gain", "objective", "GAIN", ""]),
        st.one_of(st.floats(), st.none()), max_size=2,
    ))
    # an extra key may replace a metric's value, as a key the preset lacks
    # or one that it has
    return {**vector, **extra} if draw(st.booleans()) else vector


@settings(max_examples=500, deadline=None)
@given(preset=st.sampled_from(sorted(FOM_PRESETS)), data=st.data())
def test_compiled_terms_keep_the_reference_bits(preset, data):
    config = FOM_PRESETS[preset]
    metrics = data.draw(metric_vectors(config))
    assert _outcome(compute_fom, metrics, config) == _outcome(
        reference_compute_fom, metrics, config
    )
    assert _outcome(count_missed_specs, metrics, config) == _outcome(
        reference_count_missed_specs, metrics, config
    )


@pytest.mark.parametrize("preset", sorted(FOM_PRESETS))
def test_compiled_terms_keep_the_reference_bits_on_each_edge_value(preset):
    config = FOM_PRESETS[preset]
    for spec in config.metrics:
        base = {m.name: m.spec for m in config.metrics}
        for value in _edge_values(spec):
            metrics = {**base, spec.name: value}
            for fn, reference in ((compute_fom, reference_compute_fom),
                                  (count_missed_specs, reference_count_missed_specs)):
                assert _outcome(fn, metrics, config) == _outcome(
                    reference, metrics, config
                ), (spec.name, value)
