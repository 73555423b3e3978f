import dataclasses
import dis
import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analogopt.core import (
    ConfigError,
    DesignPoint,
    RangeError,
    Region,
    StructuralError,
    from_unit_cube,
)
from analogopt import evaluator
from analogopt.config import PRESETS
from analogopt.evaluator import circuit_model, classify_regions, evaluate
from analogopt.fom import FOM_PRESETS, compute_fom, failed_metrics
from analogopt.orchestrator import _preset_checksum


AMP2 = circuit_model("amp2")
COMP = circuit_model("comparator")

# a comfortable all-saturation amp2 point:
# (w1, l1, w3, l3, w5, l5, w6, l6, w7, l7, wb, lb, rz, cc)
AMP2_POINT = DesignPoint((
    20e-6, 0.5e-6, 10e-6, 0.5e-6, 2e-6, 0.5e-6, 20e-6, 0.5e-6,
    3e-6, 0.5e-6, 2e-6, 0.8e-6, 2000.0, 10e-12,
))

# (w1, l1, w3, l3, w5, l5, w7, l7, w9, l9, wb, lb); alpha = 1 here
COMP_POINT = DesignPoint((
    100e-6, 0.5e-6, 10e-6, 0.5e-6, 10e-6, 0.5e-6, 10e-6, 0.5e-6,
    2.5e-6, 0.5e-6, 2.5e-6, 0.5e-6,
))


def _with(model, point, **updates):
    values = list(point.values)
    for name, value in updates.items():
        values[model.space.names.index(name)] = value
    return DesignPoint(tuple(values))


def test_spaces_have_expected_dimensions():
    assert AMP2.space.dimension == 14
    assert COMP.space.dimension == 12
    assert len(AMP2.devices) == 8
    assert len(COMP.devices) == 12


def test_evaluate_is_deterministic():
    a = evaluate(AMP2, AMP2_POINT)
    b = evaluate(AMP2, AMP2_POINT)
    assert a.metrics == b.metrics and a.fom == b.fom and a.regions == b.regions


def test_evaluate_rejects_out_of_space():
    bad = _with(AMP2, AMP2_POINT, w1=60e-9)
    with pytest.raises(RangeError):
        evaluate(AMP2, bad)


def test_gbw_halves_when_cc_doubles():
    base = evaluate(AMP2, AMP2_POINT)
    doubled = evaluate(AMP2, _with(AMP2, AMP2_POINT, cc=2 * AMP2_POINT.values[13]))
    assert base.metrics["gbw"] / doubled.metrics["gbw"] == 2.0


def test_power_strictly_increases_in_wb():
    powers = []
    for scale in (1.0, 1.5, 2.25, 3.375):
        record = evaluate(AMP2, _with(AMP2, AMP2_POINT, wb=2e-6 * scale))
        powers.append(record.metrics["power"])
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_gain_increases_in_output_device_lengths():
    for name in ("l3", "l7"):
        gains = []
        for scale in (0.5, 0.7, 0.9):
            record = evaluate(AMP2, _with(AMP2, AMP2_POINT, **{name: 1e-6 * scale}))
            assert record.simulation_ok
            gains.append(record.metrics["gain"])
        assert all(a < b for a, b in zip(gains, gains[1:])), name


def test_amp2_all_saturation_at_reference_point():
    record = evaluate(AMP2, AMP2_POINT)
    assert record.simulation_ok
    assert set(record.regions) == set(AMP2.devices)
    assert all(r is Region.SATURATION for r in record.regions.values())


def test_headroom_violation_fails_with_failed_metrics():
    # narrow input pair at high tail current: huge overdrive in the first stage
    bad = _with(AMP2, AMP2_POINT, w1=120e-9, l1=1e-6, wb=50e-6, lb=80e-9)
    record = evaluate(AMP2, bad)
    assert not record.simulation_ok
    assert record.metrics == failed_metrics(AMP2.fom)
    assert record.fom == pytest.approx(compute_fom(failed_metrics(AMP2.fom), AMP2.fom))
    assert Region.TRIODE in set(record.regions.values())
    assert set(record.regions) == set(AMP2.devices)


def test_a_solver_exception_fails_the_evaluation_with_every_device_in_cutoff():
    def solve(point):
        raise ZeroDivisionError("float division by zero")

    record = evaluate(dataclasses.replace(AMP2, solve=solve), AMP2_POINT)
    assert not record.simulation_ok
    assert record.metrics == failed_metrics(AMP2.fom)
    assert record.regions == {device: Region.CUTOFF for device in AMP2.devices}
    assert record.fom == compute_fom(failed_metrics(AMP2.fom), AMP2.fom)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_metric_fails_the_evaluation_and_keeps_its_regions(bad):
    metrics, overdrives = AMP2.solve(AMP2_POINT)

    def solve(point):
        return {**metrics, "gain": bad}, overdrives

    record = evaluate(dataclasses.replace(AMP2, solve=solve), AMP2_POINT)
    assert not record.simulation_ok
    assert record.metrics == failed_metrics(AMP2.fom)
    assert record.regions == classify_regions(AMP2, overdrives)
    assert set(record.regions.values()) == {Region.SATURATION}
    assert record.fom == compute_fom(failed_metrics(AMP2.fom), AMP2.fom)


def test_classify_regions_constructed_cases():
    overdrives = {d: 0.2 for d in AMP2.devices}
    # first-stage stack Mb + M1 + M3 sums to 0.6 V against a 1.0 V budget
    report = classify_regions(AMP2, overdrives)
    assert report["M1"] is Region.SATURATION

    crowded = dict(overdrives)
    crowded.update({"Mb": 0.2, "M1": 0.4, "M3": 0.5})  # stack sums to 1.1 V
    report = classify_regions(AMP2, crowded)
    for device in ("Mb", "M1", "M2", "M3", "M4"):
        assert report[device] is Region.TRIODE
    assert report["M6"] is Region.SATURATION

    cut = dict(overdrives)
    cut["M6"] = -0.05
    report = classify_regions(AMP2, cut)
    assert report["M6"] is Region.CUTOFF


@pytest.mark.parametrize("name", PRESETS)
def test_evaluate_checks_the_stacks_once_and_classifies_as_classify_regions(
    name, monkeypatch
):
    model = circuit_model(name)
    rng = np.random.default_rng(5)
    points = [from_unit_cube(model.space, rng.uniform(size=model.space.dimension))
              for _ in range(40)]
    calls = []
    crowded_stacks = evaluator._crowded_stacks
    monkeypatch.setattr(evaluator, "_crowded_stacks",
                        lambda *args: calls.append(1) or crowded_stacks(*args))
    records = [evaluate(model, point) for point in points]
    assert len(calls) == len(points)
    monkeypatch.undo()
    for point, record in zip(points, records):
        metrics, overdrives = model.solve(point)
        assert record.regions == classify_regions(model, overdrives)


# The run log writes a record's metrics and FOM as they are: an int metric
# would be written as 80 where the log has 80.0.
def _assert_python_floats(record):
    assert [type(v) for v in record.metrics.values()] == [float] * len(record.metrics)
    assert type(record.fom) is float


@settings(max_examples=300, deadline=None)
@given(preset=st.sampled_from(PRESETS), data=st.data())
def test_every_metric_and_the_fom_are_python_floats(preset, data):
    model = circuit_model(preset)
    coordinate = st.floats(0.0, 1.0) | st.sampled_from((0.0, 1.0))
    u = data.draw(st.lists(coordinate, min_size=model.space.dimension,
                           max_size=model.space.dimension))
    _assert_python_floats(evaluate(model, from_unit_cube(model.space, np.array(u))))


@pytest.mark.parametrize("name", PRESETS)
def test_box_corners_score_python_floats_also_when_they_fail(name):
    model = circuit_model(name)
    corners = np.random.default_rng(0).integers(0, 2, size=(64, model.space.dimension))
    records = [evaluate(model, from_unit_cube(model.space, c)) for c in corners]
    for record in records:
        _assert_python_floats(record)
    if model.devices:
        assert not all(r.simulation_ok for r in records)


def test_comparator_hysteresis_zero_at_unity_ratio():
    record = evaluate(COMP, COMP_POINT)
    assert record.simulation_ok
    assert record.metrics["v_hys_err"] == 0.0
    # ratio below one also gives zero
    low = evaluate(COMP, _with(COMP, COMP_POINT, w5=5e-6))
    assert low.metrics["v_hys_err"] == 0.0


def test_comparator_hysteresis_increases_above_unity_ratio():
    widths = (12e-6, 20e-6, 40e-6, 80e-6)
    values = [
        evaluate(COMP, _with(COMP, COMP_POINT, w5=w)).metrics["v_hys_err"]
        for w in widths
    ]
    assert values[0] > 0.0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_offset_decreases_with_input_pair_area():
    offsets = []
    for scale in (1.0, 2.0, 4.0):
        record = evaluate(COMP, _with(COMP, COMP_POINT, w1=100e-6 * scale / 4))
        offsets.append(abs(record.metrics["v_offset"]))
    assert all(a > b for a, b in zip(offsets, offsets[1:]))
    # formula check: OFFSET_COEFF / sqrt(W1 L1), reported in mV
    expected = evaluator.OFFSET_COEFF / math.sqrt(100e-6 * 0.5e-6) * 1e3
    assert evaluate(COMP, COMP_POINT).metrics["v_offset"] == pytest.approx(expected)


def test_comparator_regions_cover_all_devices():
    record = evaluate(COMP, COMP_POINT)
    assert set(record.regions) == set(COMP.devices)


def _loaded_globals(code):
    """Every global name a code object loads, nested lambdas included."""
    names = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            names |= _loaded_globals(const)
    return names


def test_every_process_constant_is_read():
    constants = {
        name for name, value in vars(evaluator).items()
        if name.isupper() and type(value) is float
    }
    assert {"VDD", "KP_N", "V_HEADROOM"} <= constants
    # the solvers and the headroom check, and every evaluator function they
    # load, followed call by call
    read = set()
    pending = [evaluator._amp2_solve, evaluator._comparator_solve,
               evaluator._crowded_stacks]
    seen = set()
    while pending:
        function = pending.pop()
        if function in seen:
            continue
        seen.add(function)
        names = _loaded_globals(function.__code__)
        read |= names
        pending += [
            value for value in map(vars(evaluator).get, names)
            if inspect.isfunction(value) and value.__module__ == evaluator.__name__
        ]
    assert evaluator._saturated in seen
    assert sorted(constants - read) == []


# sha256 of every evaluation that _evaluation_digest makes; a change of
# device physics moves these on purpose
EVALUATION_DIGESTS = {
    "amp2": "8916698419e93ee90beb9c48ae521979997018aa7fda0d13da19ff5921a4d48c",
    "comparator": "1a098c400754c106eca3b7511552107855eed2731a1858af108b9ce3aee0415c",
    "branin": "3900032340b5a626bce575001d485d77a7c9b03386162bae98f38c96198ee79b",
}


def _evaluation_digest(model):
    """sha256 of the evaluations of 2,000 ``default_rng(0)`` points in the box,
    then of both its corners."""
    space = model.space
    units = np.random.default_rng(0).uniform(size=(2000, space.dimension))
    points = [from_unit_cube(space, u) for u in units] + [
        DesignPoint(tuple(getattr(p, corner) for p in space.parameters))
        for corner in ("lower", "upper")
    ]
    digest = hashlib.sha256()
    for point in points:
        record = evaluate(model, point)
        digest.update(repr((
            sorted((name, value.hex()) for name, value in record.metrics.items()),
            sorted((device, region.value) for device, region in record.regions.items()),
            record.simulation_ok,
            record.fom.hex(),
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("preset", PRESETS)
def test_evaluate_keeps_its_recorded_bits(preset):
    assert _evaluation_digest(circuit_model(preset)) == EVALUATION_DIGESTS[preset]


# every log header pins its preset's space and FOM by this checksum, so these
# values move only with a deliberate change of a preset
PRESET_CHECKSUMS = {
    "amp2": "6f5ba0956074b2f937158db2191339706b7ee0d6982d354b603d0ff814f33a01",
    "comparator": "4cf5f8c89ef6481e5430b108acd4e9b64fd4f6083aff05aa423373f5ae254015",
    "branin": "93f81709e6c17f388d021a0e782be5adcbbf735c808a8517504f4acd044f132b",
}


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_is_one_model_with_its_fom_and_checksum(preset):
    model = circuit_model(preset)
    assert circuit_model(preset) is model
    # the run scores with model.fom, report replays with FOM_PRESETS
    assert model.fom is FOM_PRESETS[preset]
    assert _preset_checksum(model) == PRESET_CHECKSUMS[preset]


# --------------------------------------------------------------- synthetic

BRANIN = circuit_model("branin")


def _branin(x1, x2):
    return evaluate(BRANIN, DesignPoint((x1, x2))).fom


def test_branin_optima():
    value = _branin(math.pi, 2.275)
    assert value == pytest.approx(-0.397887, abs=1e-4)
    for x in ((-math.pi, 12.275), (9.42478, 2.475)):
        assert _branin(*x) == pytest.approx(-0.397887, abs=1e-4)
    # local grid refinement around the optimum finds nothing better
    grid = np.linspace(-0.05, 0.05, 21)
    best = max(_branin(math.pi + dx, 2.275 + dy) for dx in grid for dy in grid)
    assert best <= -0.397887 + 1e-6


def test_synthetic_rejects_out_of_box():
    with pytest.raises(RangeError):
        evaluate(BRANIN, DesignPoint((11.0, 0.0)))
    with pytest.raises(StructuralError):
        evaluate(BRANIN, DesignPoint((0.5,) * 5))


def test_synthetic_unknown_function():
    with pytest.raises(ConfigError):
        circuit_model("rosenbrock")
    with pytest.raises(ConfigError):
        circuit_model("hartmann6")


def test_synthetic_evaluate_record():
    record = evaluate(BRANIN, DesignPoint((math.pi, 2.275)))
    assert record.simulation_ok
    assert record.fom == pytest.approx(-0.397887, abs=1e-4)
    assert record.fom == record.metrics["objective"]
    assert record.regions == {}


# ------------------------------------------------------------- sensitivity

def _parameters_of_every_preset():
    for preset in PRESETS:
        for name in circuit_model(preset).space.names:
            inert = preset == "amp2" and name in ("w5", "l5")
            marks = pytest.mark.xfail(
                strict=True, reason="M5 is not modelled"
            ) if inert else ()
            yield pytest.param(preset, name, marks=marks, id=f"{preset}-{name}")


@pytest.mark.parametrize("preset, name", _parameters_of_every_preset())
def test_every_parameter_moves_some_metric_or_region(preset, name):
    model = circuit_model(preset)
    i = model.space.names.index(name)
    rng = np.random.default_rng(0)
    for u in rng.uniform(size=(64, model.space.dimension)):
        moved = u.copy()
        moved[i] = 1.0 - u[i]
        a = evaluate(model, from_unit_cube(model.space, u))
        b = evaluate(model, from_unit_cube(model.space, moved))
        if (a.metrics, a.regions) != (b.metrics, b.regions):
            return
    pytest.fail(f"{preset}.{name} moved no metric or region on 64 samples")
