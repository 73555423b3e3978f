"""Shared domain types: design spaces, points, metrics, and the run dataset,
the maps between a space's points and the unit cube the GP works on, and the
demonstration samplers over the dataset's FOM ranking.

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

import numpy as np


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

    ``scale`` controls how :func:`to_unit_cube` maps the parameter onto the
    unit cube: variables spanning several decades (widths, resistances,
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


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """A concrete assignment, one value per parameter, in SI units."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    def __len__(self) -> int:
        return len(self.values)


def to_unit_cube(space: DesignSpace, point: DesignPoint) -> np.ndarray:
    """Map a design point onto [0, 1]^d (log map for logarithmic parameters)."""
    if len(point) != space.dimension:
        raise ValueError(
            f"point has {len(point)} values, space has dimension {space.dimension}"
        )
    out = []
    for i, ((lower, upper, origin, span, is_log), v) in enumerate(
        zip(space.unit_map, point.values)
    ):
        if not lower <= v <= upper:
            raise RangeError(
                f"{space.names[i]} = {v!r} outside range [{lower!r}, {upper!r}]"
            )
        out.append(((math.log(v) if is_log else v) - origin) / span)
    return np.array(out)


def from_unit_cube(space: DesignSpace, u: np.ndarray) -> DesignPoint:
    """Inverse of :func:`to_unit_cube`; coordinates are clipped to [0, 1].

    Clips and maps each coordinate as a Python float, through the space's
    cached unit map.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (space.dimension,):
        raise ValueError(f"expected shape ({space.dimension},), got {u.shape}")
    values = []
    for (lower, upper, origin, span, is_log), t in zip(space.unit_map, u.tolist()):
        v = origin + min(max(t, 0.0), 1.0) * span
        if is_log:
            v = math.exp(v)
        # exp/log round-off can land an ulp outside the box at the endpoints
        values.append(min(max(v, lower), upper))
    return DesignPoint(tuple(values))


# Metric vectors and region reports are plain mappings; their shape is
# enforced where they are consumed (FOM arithmetic, record construction).
MetricVector = Mapping[str, float]
DeviceRegionReport = Mapping[str, Region]


@dataclass(frozen=True, slots=True)
class EvalRecord:
    """One evaluated design point with its metrics, regions, and FOM.

    ``iteration`` 0 is reserved for initialization records. ``fom`` must
    equal the FOM recomputed from ``metrics`` under the active configuration;
    the evaluator guarantees this at construction time. Records share equal
    ``regions`` reports and failure vectors, so neither mapping is mutated.
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

    Alongside the records it keeps their ranking: the record indices sorted
    by ``(-fom, index)``, highest FOM first and ties in insertion order, so
    :func:`top_k` needs no re-sort.
    """

    __slots__ = ("_records", "_ranking")

    def __init__(self, records: Sequence[EvalRecord] = ()) -> None:
        self._records: list[EvalRecord] = list(records)
        self._ranking: list[int] = sorted(range(len(self._records)), key=self._rank_key)

    def _rank_key(self, index: int) -> float:
        return -self._records[index].fom

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
        return self._ranking[0]


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
    dataset._records.append(record)
    # insort_right places the new, highest index after every tied record
    bisect.insort(dataset._ranking, len(dataset._records) - 1, key=dataset._rank_key)
    return dataset


def top_k(dataset: Dataset, k: int) -> list[EvalRecord]:
    """The k highest-FOM records, descending; ties keep earlier insertions.

    Failed evaluations participate with their (all-failed) FOM rather than
    being filtered. Returns all records, descending, when the dataset is
    smaller than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(dataset) == 0:
        raise EmptyDatasetError("top_k needs at least one record")
    return [dataset._records[i] for i in dataset._ranking[:k]]


def uniform_k(dataset: Dataset, k: int, rng: np.random.Generator) -> list[EvalRecord]:
    """k records sampled uniformly without replacement (all when fewer exist)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(dataset) == 0:
        raise EmptyDatasetError("uniform_k needs at least one record")
    indices = rng.permutation(len(dataset))[: min(k, len(dataset))]
    return [dataset[int(i)] for i in indices]
