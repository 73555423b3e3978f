"""Shared domain types: design spaces, points, metrics, and the run dataset.

All types are immutable values except :class:`Dataset`, which is append-only.
Parameter values are stored in SI base units (meters, ohms, farads); metric
values are stored in the reporting units of the active FOM configuration
(dB, MHz, degrees, uW, mV).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence


class StructuralError(ValueError):
    """A value does not have the shape its container requires."""


class EmptyDatasetError(ValueError):
    """An operation that needs at least one record got an empty dataset."""


class RangeError(ValueError):
    """A coordinate fell outside its parameter's allowed interval."""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class Scale(str, Enum):
    LINEAR = "linear"
    LOG = "logarithmic"


class Source(str, Enum):
    """Which proposer produced an evaluated point."""

    LLM_INIT = "llm_init"
    LLM = "llm"
    GP_BO = "gp_bo"
    RANDOM = "random"


class Region(str, Enum):
    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass(frozen=True)
class Parameter:
    """A named, bounded design variable.

    ``scale`` controls how the surrogate maps the parameter onto the unit
    cube: variables spanning several decades (widths, resistances,
    capacitances) use a logarithmic map, short linear ranges (lengths) stay
    linear. ``unit`` is the SI base unit used for display only.
    """

    name: str
    lower: float
    upper: float
    scale: Scale = Scale.LINEAR
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("parameter name must be non-empty")
        if not self.lower < self.upper:
            raise ValueError(
                f"{self.name}: lower bound {self.lower} must be < upper {self.upper}"
            )
        if self.scale is Scale.LOG and self.lower <= 0:
            raise ValueError(f"{self.name}: logarithmic scale requires lower > 0")


@dataclass(frozen=True)
class DesignSpace:
    """An ordered list of parameters defining the searchable box.

    The per-parameter tables that run code reads on every proposal (names,
    the case-insensitive name map, the unit-cube map) are built once per
    space and kept with it.
    """

    parameters: tuple[Parameter, ...]

    def __post_init__(self) -> None:
        if len(self.parameters) < 1:
            raise ValueError("design space needs at least one parameter")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")

    @property
    def dimension(self) -> int:
        return len(self.parameters)

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @functools.cached_property
    def lower_names(self) -> dict[str, str]:
        """Lower-cased parameter name -> parameter name."""
        return {p.name.lower(): p.name for p in self.parameters}

    @functools.cached_property
    def unit_map(self) -> tuple[tuple[float, float, float, float, bool], ...]:
        """One ``(lower, upper, origin, span, is_log)`` row per parameter.

        A coordinate t in [0, 1] maps to ``origin + t * span``, exponentiated
        for a logarithmic parameter: ``origin`` is ``log(lower)`` or ``lower``
        and ``span`` is ``log(upper) - log(lower)`` or ``upper - lower``.
        """
        rows = []
        for p in self.parameters:
            if p.scale is Scale.LOG:
                origin = math.log(p.lower)
                rows.append((p.lower, p.upper, origin, math.log(p.upper) - origin, True))
            else:
                rows.append((p.lower, p.upper, p.lower, p.upper - p.lower, False))
        return tuple(rows)


@dataclass(frozen=True)
class DesignPoint:
    """A concrete assignment, one value per parameter, in SI units."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    def __len__(self) -> int:
        return len(self.values)


# Metric vectors and region reports are plain mappings; their shape is
# enforced where they are consumed (FOM arithmetic, record construction).
MetricVector = Mapping[str, float]
DeviceRegionReport = Mapping[str, Region]


@dataclass(frozen=True)
class EvalRecord:
    """One evaluated design point with its metrics, regions, and FOM.

    ``iteration`` 0 is reserved for initialization records. ``fom`` must
    equal the FOM recomputed from ``metrics`` under the active configuration;
    the evaluator guarantees this at construction time.
    """

    point: DesignPoint
    metrics: MetricVector
    regions: DeviceRegionReport
    simulation_ok: bool
    fom: float
    source: Source
    iteration: int

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")


class Dataset:
    """Insertion-ordered, append-only collection of evaluation records.

    Alongside the records it keeps their ranking, the sorted list of
    ``(-fom, index)`` pairs, so descending-FOM queries need no re-sort.
    """

    __slots__ = ("_records", "_ranking")

    def __init__(self, records: Sequence[EvalRecord] = ()) -> None:
        self._records: list[EvalRecord] = list(records)
        self._ranking: list[tuple[float, int]] = sorted(
            (-r.fom, i) for i, r in enumerate(self._records)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EvalRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> EvalRecord:
        return self._records[index]

    @property
    def best_index(self) -> int:
        """Index of the highest-FOM record; ties go to the earliest insertion."""
        if not self._records:
            raise EmptyDatasetError("an empty dataset has no best record")
        return self._ranking[0][1]

    def ranked(self, k: int) -> list[EvalRecord]:
        """The k highest-FOM records, descending; ties keep earlier insertions."""
        return [self._records[i] for _, i in self._ranking[:k]]


def design_space_contains(space: DesignSpace, point: DesignPoint) -> bool:
    """True iff every coordinate lies within its parameter's closed interval."""
    if len(point) != space.dimension:
        raise StructuralError(
            f"point has {len(point)} values, space has dimension {space.dimension}"
        )
    return all(
        p.lower <= v <= p.upper for p, v in zip(space.parameters, point.values)
    )


def dataset_append(dataset: Dataset, record: EvalRecord) -> Dataset:
    """Append one record; existing records are never touched."""
    bisect.insort(dataset._ranking, (-record.fom, len(dataset._records)))
    dataset._records.append(record)
    return dataset

