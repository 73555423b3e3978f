"""Spec-gated figure-of-merit arithmetic.

Each metric is checked against its specification, normalized against a fixed
range, optionally clamped from above, and summed with a sign:

    term(m) = sign * min(norm(m), bound)
    norm(m) = (m - norm_min) / (norm_max - norm_min)       if m hits spec
            = (failed - norm_min) / (norm_max - norm_min)  otherwise

A metric that misses its spec therefore contributes a fixed penalty term that
does not depend on how badly it missed. The bound clips only the upper side,
so failing (negative) terms pass through unclipped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .core import MetricVector, StructuralError


class Direction(str, Enum):
    AT_LEAST = "at_least"
    AT_MOST = "at_most"


class Sign(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class MetricSpec:
    """Specification, normalization range, failure constant, and sign for one metric.

    ``magnitude`` makes both the spec check and the normalization act on
    ``abs(value)`` (used for signed offset voltages specified as ``|.| <= x``).
    """

    name: str
    direction: Direction
    spec: float
    norm_min: float
    norm_max: float
    failed: float
    sign: Sign = Sign.PLUS
    bound: float | None = None
    magnitude: bool = False
    unit: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if not self.norm_min < self.norm_max:
            raise ValueError(f"{self.name}: norm_min must be < norm_max")
        if self.direction is Direction.AT_LEAST:
            if not (self.failed <= self.norm_min or self.failed < self.spec):
                raise ValueError(f"{self.name}: failed value must sit below the spec")
        else:
            if not self.failed >= self.spec:
                raise ValueError(f"{self.name}: failed value must sit above the spec")
        if self.bound is not None and self.bound <= 0:
            raise ValueError(f"{self.name}: bound must be positive")

    def spec_text(self) -> str:
        """Human-readable spec line, e.g. ``gain >= 60 dB``."""
        op = ">=" if self.direction is Direction.AT_LEAST else "<="
        value = f"|{self.name}| {op} {self.spec:g}" if self.magnitude else (
            f"{self.name} {op} {self.spec:g}"
        )
        return f"{value} {self.unit}".rstrip()


@dataclass(frozen=True)
class FomConfig:
    metrics: tuple[MetricSpec, ...]

    def __post_init__(self) -> None:
        names = [m.name for m in self.metrics]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate metric names: {names}")

    @functools.cached_property
    def terms(self) -> tuple[tuple, ...]:
        """One row of plain values per metric, read by ``compute_fom``: (name,
        magnitude, at_least, spec, failed, norm_min, norm_max - norm_min,
        bound, plus)."""
        return tuple(
            (m.name, m.magnitude, m.direction is Direction.AT_LEAST, m.spec, m.failed,
             m.norm_min, m.norm_max - m.norm_min, m.bound, m.sign is Sign.PLUS)
            for m in self.metrics
        )

    @functools.cached_property
    def failure_vector(self) -> dict[str, float]:
        """The metrics of every failed evaluation, one dict that their records
        share; ``failed_metrics`` returns a copy to mutate."""
        return {m.name: float(m.failed) for m in self.metrics}


def hits_spec(value: float, spec: MetricSpec) -> bool:
    """Inclusive spec check; magnitude metrics compare ``abs(value)``."""
    v = abs(value) if spec.magnitude else value
    if spec.direction is Direction.AT_LEAST:
        return v >= spec.spec
    return v <= spec.spec


def compute_fom(metrics: MetricVector, config: FomConfig) -> float:
    """Signed sum of bounded, normalized, spec-gated metric terms (see the
    module docstring), over the config's compiled ``terms``."""
    total = 0.0
    for name, magnitude, at_least, spec, failed, norm_min, span, bound, plus in (
        config.terms
    ):
        if name not in metrics:
            raise StructuralError(f"metric vector is missing {name!r}")
        v = metrics[name]
        if magnitude:
            v = abs(v)
        if not (v >= spec if at_least else v <= spec):
            v = failed
        term = (v - norm_min) / span
        if bound is not None and term > bound:
            term = bound
        total += term if plus else -term
    return total


def count_missed_specs(metrics: MetricVector, config: FomConfig) -> int:
    """Number of metrics whose specification is not satisfied."""
    missed = 0
    for spec in config.metrics:
        if spec.name not in metrics:
            raise StructuralError(f"metric vector is missing {spec.name!r}")
        if not hits_spec(metrics[spec.name], spec):
            missed += 1
    return missed


def failed_metrics(config: FomConfig) -> dict[str, float]:
    """Metric vector scoring a failed evaluation: every metric at its failure value."""
    return dict(config.failure_vector)


# Built-in presets. Metric units follow the reporting convention of the
# corresponding design tables: MHz, dB, degrees, uW, mV.

AMP2_FOM = FomConfig(
    metrics=(
        MetricSpec(
            "gbw", Direction.AT_LEAST, spec=1.0, norm_min=0.0, norm_max=10.0,
            failed=-10.0, sign=Sign.PLUS, bound=2.0, unit="MHz",
            label="Gain-Bandwidth Product",
        ),
        MetricSpec(
            "gain", Direction.AT_LEAST, spec=60.0, norm_min=0.0, norm_max=60.0,
            failed=-60.0, sign=Sign.PLUS, bound=2.0, unit="dB", label="Gain",
        ),
        MetricSpec(
            "cmrr", Direction.AT_LEAST, spec=75.0, norm_min=0.0, norm_max=80.0,
            failed=-80.0, sign=Sign.PLUS, bound=2.0, unit="dB",
            label="Common-Mode Rejection Ratio",
        ),
        MetricSpec(
            "pm", Direction.AT_LEAST, spec=60.0, norm_min=0.0, norm_max=45.0,
            failed=-180.0, sign=Sign.PLUS, bound=2.0, unit="deg",
            label="Phase Margin",
        ),
        MetricSpec(
            "power", Direction.AT_MOST, spec=30.0, norm_min=0.0, norm_max=30.0,
            failed=80.0, sign=Sign.MINUS, unit="uW", label="Power Consumption",
        ),
    )
)

COMPARATOR_FOM = FomConfig(
    metrics=(
        MetricSpec(
            "gain", Direction.AT_LEAST, spec=60.0, norm_min=0.0, norm_max=60.0,
            failed=-60.0, sign=Sign.PLUS, bound=2.0, unit="dB", label="Gain",
        ),
        MetricSpec(
            "ugf", Direction.AT_LEAST, spec=10.0, norm_min=0.0, norm_max=10.0,
            failed=-10.0, sign=Sign.PLUS, bound=2.0, unit="MHz",
            label="Unity-Gain Frequency",
        ),
        MetricSpec(
            "v_hys_err", Direction.AT_MOST, spec=300.0, norm_min=0.0,
            norm_max=300.0, failed=600.0, sign=Sign.MINUS, unit="mV",
            label="Absolute Hysteresis Error",
        ),
        MetricSpec(
            "v_offset", Direction.AT_MOST, spec=20.0, norm_min=0.0, norm_max=20.0,
            failed=40.0, sign=Sign.MINUS, magnitude=True, unit="mV",
            label="Voltage Offset",
        ),
        MetricSpec(
            "power", Direction.AT_MOST, spec=150.0, norm_min=0.0, norm_max=150.0,
            failed=300.0, sign=Sign.MINUS, unit="uW", label="Power Consumption",
        ),
    )
)

# The synthetic benchmark (branin) reports a single raw objective; the identity
# normalization (range [0, 1], spec always met) makes FOM == objective value.
SYNTHETIC_FOM = FomConfig(
    metrics=(
        MetricSpec(
            "objective", Direction.AT_LEAST, spec=-1e18, norm_min=0.0,
            norm_max=1.0, failed=-1e9, sign=Sign.PLUS, label="Objective",
        ),
    )
)

# The preset list. Each also has an evaluator model and its two templates.
FOM_PRESETS: dict[str, FomConfig] = {
    "amp2": AMP2_FOM,
    "comparator": COMPARATOR_FOM,
    "branin": SYNTHETIC_FOM,
}
