"""Analytic circuit evaluation: reference models of the two benchmark
circuits plus the Branin function for validating the optimizer.

Each :class:`CircuitModel` carries its own solver, ``solve(model, point) ->
(metrics, overdrives, ok)``, which unpacks the point in design-space order;
:func:`evaluate` runs it, then applies the headroom check and the region
classification of the model's devices and stacks (Branin has none).

The circuit models use textbook square-law device physics:

    I_D = 0.5 * k' * (W/L) * V_ov^2
    gm  = sqrt(2 * k' * (W/L) * I_D)
    r_o = 1 / (lambda * I_D),   lambda = lambda0 / L

Bias currents are mirrored from a diode-referenced bias device Mb whose gate
overdrive is pinned at ``v_ov_bias``, so every mirrored branch current is
I = 0.5 * k' * (W/L) * v_ov_bias^2 for that branch's mirror device. The
models are smooth, monotone-structured, and fail their headroom guards over
much of the box, which exercises both the optimizer and the operating-region
feedback channel without a transistor-level simulator.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .core import (
    ConfigError,
    DesignPoint,
    DesignSpace,
    EvalRecord,
    Parameter,
    RangeError,
    Region,
    Scale,
    Source,
    design_space_contains,
)
from .fom import (
    AMP2_FOM,
    COMPARATOR_FOM,
    SYNTHETIC_FOM,
    FomConfig,
    compute_fom,
    failed_metrics,
)


@dataclass(frozen=True)
class ProcessConstants:
    """Device and environment constants of the reference process (SI units)."""

    vdd: float = 1.2
    vth_n: float = 0.35
    vth_p: float = 0.35
    kp_n: float = 200e-6
    kp_p: float = 80e-6
    lambda0: float = 0.1e-6  # V^-1 * m; channel-length modulation lambda = lambda0 / L
    c_load: float = 1e-12
    c_node: float = 0.5e-12
    v_ov_bias: float = 0.2
    v_headroom: float = 0.2
    offset_coeff: float = 5e-9  # V * m; offset = offset_coeff / sqrt(W1 * L1)

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ValueError(f"process constant {name} must be positive")


@dataclass(frozen=True)
class Stack:
    """A series path of overdrives sharing the supply budget.

    ``levels`` lists one representative device per stacked level (their
    overdrives add); ``members`` lists every device classified by this
    stack. A gain-path stack that exceeds the budget fails the evaluation.
    """

    levels: tuple[str, ...]
    members: tuple[str, ...]
    gain_path: bool = True


@dataclass(frozen=True)
class CircuitModel:
    name: str
    space: DesignSpace
    constants: ProcessConstants
    solve: Callable[[CircuitModel, DesignPoint], tuple[dict, dict, bool]]
    devices: tuple[str, ...] = ()
    stacks: tuple[Stack, ...] = ()
    fom: FomConfig = SYNTHETIC_FOM


def _amp2_space() -> DesignSpace:
    width = dict(lower=120e-9, upper=50e-6, scale=Scale.LOG, unit="m")
    length = dict(lower=80e-9, upper=1e-6, scale=Scale.LINEAR, unit="m")
    return DesignSpace(
        parameters=(
            Parameter("w1", **width),
            Parameter("l1", **length),
            Parameter("w3", **width),
            Parameter("l3", **length),
            Parameter("w5", **width),
            Parameter("l5", **length),
            Parameter("w6", **width),
            Parameter("l6", **length),
            Parameter("w7", **width),
            Parameter("l7", **length),
            Parameter("wb", **width),
            Parameter("lb", **length),
            Parameter("rz", 10.0, 100e3, Scale.LOG, "ohm"),
            Parameter("cc", 10e-15, 100e-12, Scale.LOG, "F"),
        )
    )


def _comparator_space() -> DesignSpace:
    width = dict(lower=90e-9, upper=200e-6, scale=Scale.LOG, unit="m")
    length = dict(lower=90e-9, upper=1e-6, scale=Scale.LINEAR, unit="m")
    return DesignSpace(
        parameters=(
            Parameter("w1", **width),
            Parameter("l1", **length),
            Parameter("w3", **width),
            Parameter("l3", **length),
            Parameter("w5", **width),
            Parameter("l5", **length),
            Parameter("w7", **width),
            Parameter("l7", **length),
            Parameter("w9", **width),
            Parameter("l9", **length),
            Parameter("wb", **width),
            Parameter("lb", **length),
        )
    )


def _branin_space() -> DesignSpace:
    return DesignSpace((Parameter("x1", -5.0, 10.0), Parameter("x2", 0.0, 15.0)))


def circuit_model(
    name: str, constants: ProcessConstants | None = None
) -> CircuitModel:
    """Build a named evaluation model: amp2, comparator or branin."""
    constants = constants or ProcessConstants()
    if name == "amp2":
        return CircuitModel(
            name="amp2",
            space=_amp2_space(),
            constants=constants,
            solve=_amp2_solve,
            devices=("M1", "M2", "M3", "M4", "M5", "M6", "M7", "Mb"),
            stacks=(
                Stack(("Mb", "M1", "M3"), ("Mb", "M1", "M2", "M3", "M4")),
                Stack(("M6", "M7"), ("M6", "M7")),
                Stack(("M5",), ("M5",), gain_path=False),
            ),
            fom=AMP2_FOM,
        )
    if name == "comparator":
        return CircuitModel(
            name="comparator",
            space=_comparator_space(),
            constants=constants,
            solve=_comparator_solve,
            devices=(
                "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11",
                "Mb",
            ),
            stacks=(
                Stack(
                    ("Mb", "M1", "M3"),
                    ("Mb", "M1", "M2", "M3", "M4", "M5", "M6"),
                ),
                Stack(("M7", "M9"), ("M7", "M8", "M9", "M10", "M11")),
            ),
            fom=COMPARATOR_FOM,
        )
    if name == "branin":
        return CircuitModel(
            name="branin",
            space=_branin_space(),
            constants=constants,
            solve=_branin_solve,
            fom=SYNTHETIC_FOM,
        )
    raise ConfigError(f"unknown circuit model {name!r}")


def _parallel(a: float, b: float) -> float:
    return a * b / (a + b)


def _amp2_solve(model: CircuitModel, point: DesignPoint):
    c = model.constants
    # w5/l5 are not read: M5 is not modelled yet.
    w1, l1, w3, l3, _w5, _l5, w6, l6, w7, l7, wb, lb, rz, cc = point.values

    i_tail = 0.5 * c.kp_n * (wb / lb) * c.v_ov_bias**2
    i_stage2 = i_tail * (w7 / l7) / (wb / lb)
    i_d1 = 0.5 * i_tail

    gm1 = math.sqrt(2.0 * c.kp_n * (w1 / l1) * i_d1)
    gm3 = math.sqrt(2.0 * c.kp_p * (w3 / l3) * i_d1)
    gm6 = math.sqrt(2.0 * c.kp_p * (w6 / l6) * i_stage2)
    lam = lambda length: c.lambda0 / length
    ro2 = 1.0 / (lam(l1) * i_d1)
    ro4 = 1.0 / (lam(l3) * i_d1)
    ro6 = 1.0 / (lam(l6) * i_stage2)
    ro7 = 1.0 / (lam(l7) * i_stage2)
    rob = 1.0 / (lam(lb) * i_tail)

    stage1 = gm1 * _parallel(ro2, ro4)
    stage2 = gm6 * _parallel(ro6, ro7)
    gbw_hz = gm1 / (2.0 * math.pi * cc)
    wu = 2.0 * math.pi * gbw_hz
    p2 = gm6 / c.c_load
    pm_deg = (
        90.0
        - math.degrees(math.atan(wu / p2))
        - math.degrees(math.atan(wu * cc * (1.0 / gm6 - rz)))
    )
    metrics = {
        "gbw": gbw_hz / 1e6,
        "gain": 20.0 * math.log10(stage1 * stage2),
        "cmrr": 20.0 * math.log10(stage1 * 2.0 * gm3 * rob),
        "pm": pm_deg,
        "power": c.vdd * (i_tail + i_stage2) * 1e6,
    }
    vov1 = math.sqrt(2.0 * i_d1 / (c.kp_n * (w1 / l1)))
    vov3 = math.sqrt(2.0 * i_d1 / (c.kp_p * (w3 / l3)))
    vov6 = math.sqrt(2.0 * i_stage2 / (c.kp_p * (w6 / l6)))
    overdrives = {
        "M1": vov1,
        "M2": vov1,
        "M3": vov3,
        "M4": vov3,
        "M5": c.v_ov_bias,
        "M6": vov6,
        "M7": c.v_ov_bias,
        "Mb": c.v_ov_bias,
    }
    ok = i_tail > 0 and i_stage2 > 0
    return metrics, overdrives, ok


def _comparator_solve(model: CircuitModel, point: DesignPoint):
    c = model.constants
    w1, l1, w3, l3, w5, l5, w7, l7, w9, l9, wb, lb = point.values

    i_tail = 0.5 * c.kp_n * (wb / lb) * c.v_ov_bias**2
    i_branch = 0.5 * i_tail
    # Diode-connected and cross-coupled loads share the branch current in the
    # ratio of their aspect ratios (equal gate-source voltages at balance).
    alpha = (w5 / l5) / (w3 / l3)
    i_diode = i_branch / (1.0 + alpha)
    i_out = i_tail * (w9 / l9) / (wb / lb)

    gm1 = math.sqrt(2.0 * c.kp_n * (w1 / l1) * i_branch)
    gm9 = math.sqrt(2.0 * c.kp_n * (w9 / l9) * i_out)
    lam = lambda length: c.lambda0 / length
    ro2 = 1.0 / (lam(l1) * i_branch)
    ro4 = 1.0 / (lam(l3) * i_diode)
    ro9 = 1.0 / (lam(l9) * i_out)  # M9 and M11 share sizes, so ro11 == ro9

    vov1 = math.sqrt(2.0 * i_branch / (c.kp_n * (w1 / l1)))
    v_hys = (
        vov1 * (math.sqrt(alpha) - 1.0) / math.sqrt(alpha + 1.0)
        if alpha > 1.0
        else 0.0
    )
    metrics = {
        "gain": 20.0
        * math.log10(gm1 * _parallel(ro2, ro4) * gm9 * _parallel(ro9, ro9)),
        "ugf": gm1 / (2.0 * math.pi * c.c_node) / 1e6,
        "v_hys_err": v_hys * 1e3,
        "v_offset": c.offset_coeff / math.sqrt(w1 * l1) * 1e3,
        "power": c.vdd * (i_tail + 2.0 * i_out) * 1e6,
    }
    vov_load = math.sqrt(2.0 * i_diode / (c.kp_p * (w3 / l3)))
    vov7 = math.sqrt(2.0 * i_out / (c.kp_p * (w7 / l7)))
    overdrives = {
        "M1": vov1,
        "M2": vov1,
        "M3": vov_load,
        "M4": vov_load,
        "M5": vov_load,
        "M6": vov_load,
        "M7": vov7,
        "M8": vov7,
        "M9": c.v_ov_bias,
        "M10": c.v_ov_bias,
        "M11": c.v_ov_bias,
        "Mb": c.v_ov_bias,
    }
    ok = i_tail > 0 and i_out > 0
    return metrics, overdrives, ok


def _branin_solve(model: CircuitModel, point: DesignPoint):
    """The negated Branin function (maximization convention)."""
    x1, x2 = point.values
    a, b, c = 1.0, 5.1 / (4.0 * math.pi**2), 5.0 / math.pi
    r, s, t = 6.0, 10.0, 1.0 / (8.0 * math.pi)
    value = a * (x2 - b * x1**2 + c * x1 - r) ** 2 + s * (1.0 - t) * math.cos(x1) + s
    return {"objective": -value}, {}, True


def classify_regions(
    model: CircuitModel, overdrives: dict[str, float]
) -> dict[str, Region]:
    """Classify every device from its overdrive and its stack's headroom.

    ``overdrives`` maps each device to its quiescent gate overdrive (volts).
    cutoff when the overdrive is non-positive; triode when the device sits in
    a stack whose summed overdrives exceed vdd - v_headroom; saturation
    otherwise.
    """
    return _regions(model, overdrives, _crowded_stacks(model, overdrives))


def _regions(
    model: CircuitModel, overdrives: dict[str, float], crowded_stacks: list[Stack]
) -> dict[str, Region]:
    """``classify_regions`` given the model's crowded stacks."""
    crowded = {d for stack in crowded_stacks for d in stack.members}
    report = {}
    for device in model.devices:
        vov = overdrives[device]
        if vov <= 0:
            report[device] = Region.CUTOFF
        elif device in crowded:
            report[device] = Region.TRIODE
        else:
            report[device] = Region.SATURATION
    return report


def _crowded_stacks(model: CircuitModel, overdrives: dict[str, float]) -> list[Stack]:
    """The stacks whose summed level overdrives exceed vdd - v_headroom."""
    budget = model.constants.vdd - model.constants.v_headroom
    return [s for s in model.stacks if sum(overdrives[n] for n in s.levels) > budget]


def evaluate(
    model: CircuitModel,
    point: DesignPoint,
    source: Source = Source.RANDOM,
    iteration: int = 0,
) -> EvalRecord:
    """Evaluate one design point: metrics, operating regions, FOM.

    A failed evaluation (headroom violation in a gain path, non-positive
    bias current, or a domain error in the formulas) scores every metric at
    its configured failure value; the region report is still populated.
    """
    if not design_space_contains(model.space, point):
        raise RangeError(f"point outside the {model.name} design space")
    try:
        metrics, overdrives, ok = model.solve(model, point)
        crowded = _crowded_stacks(model, overdrives)
        headroom_ok = not any(stack.gain_path for stack in crowded)
        ok = ok and headroom_ok and all(math.isfinite(m) for m in metrics.values())
    except (ValueError, ZeroDivisionError, OverflowError):
        metrics, ok = {}, False
        overdrives = {d: 0.0 for d in model.devices}
        crowded = _crowded_stacks(model, overdrives)
    regions = _regions(model, overdrives, crowded)
    if not ok:
        metrics = failed_metrics(model.fom)
    return EvalRecord(
        point=point,
        metrics=metrics,
        regions=regions,
        simulation_ok=ok,
        fom=compute_fom(metrics, model.fom),
        source=source,
        iteration=iteration,
    )
