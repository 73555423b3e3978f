import numpy as np
import pytest

from analogopt.core import (
    Dataset,
    DesignPoint,
    DesignSpace,
    EmptyDatasetError,
    Parameter,
    Scale,
    StructuralError,
    dataset_append,
    design_space_contains,
)
from analogopt.evaluator import circuit_model

from conftest import make_dataset, make_record


def test_parameter_invariants():
    with pytest.raises(ValueError, match="^parameter name must be non-empty$"):
        Parameter("", 0.0, 1.0)
    with pytest.raises(ValueError):
        Parameter("w", 1.0, 1.0)
    with pytest.raises(ValueError):
        Parameter("w", 2.0, 1.0)
    with pytest.raises(ValueError):
        Parameter("w", 0.0, 1.0, scale=Scale.LOG)
    Parameter("w", 120e-9, 50e-6, scale=Scale.LOG)  # fine


def test_design_space_unique_names():
    with pytest.raises(ValueError):
        DesignSpace((Parameter("x", 0, 1), Parameter("x", 0, 1)))


def test_design_space_needs_a_parameter():
    with pytest.raises(ValueError, match="^design space needs at least one parameter$"):
        DesignSpace(())


@pytest.mark.parametrize("values", [
    (1, -2, 0, 3),
    tuple(np.array([1.5, -0.0, 1e-300, 2.5e-6])),  # np.float64 elements
    np.array([7, 8]),  # np.int64 elements
])
def test_design_point_holds_python_floats(values):
    point = DesignPoint(values)
    assert type(point.values) is tuple
    assert all(type(v) is float for v in point.values)
    assert [str(v) for v in point.values] == [str(float(v)) for v in values]


def test_contains_boundary_inclusive():
    space = circuit_model("amp2").space
    assert space.dimension == 14
    lows = DesignPoint(tuple(p.lower for p in space.parameters))
    assert design_space_contains(space, lows)


def test_contains_rejects_out_of_range_width():
    space = circuit_model("amp2").space
    values = [p.lower for p in space.parameters]
    values[space.names.index("w1")] = 60e-9  # below the 120 nm width floor
    assert not design_space_contains(space, DesignPoint(tuple(values)))


def test_contains_dimension_mismatch():
    space = circuit_model("amp2").space
    with pytest.raises(StructuralError):
        design_space_contains(space, DesignPoint(tuple([1e-6] * 13)))


def test_record_iteration_is_not_negative():
    with pytest.raises(ValueError, match="^iteration must be >= 0$"):
        make_record(1.0, iteration=-1)


def test_append_grows_by_one():
    dataset = Dataset()
    r1 = make_record(1.0)
    dataset_append(dataset, r1)
    assert len(dataset) == 1 and dataset[0] is r1
    r2 = make_record(2.0)
    dataset_append(dataset, r2)
    assert len(dataset) == 2
    assert dataset[0] is r1  # prior record untouched


def test_append_budget_scale():
    dataset = make_dataset(np.arange(104, dtype=float))
    dataset_append(dataset, make_record(999.0))
    assert len(dataset) == 105


def test_best_max_and_tiebreak():
    assert make_dataset([1.0, 3.0, 2.0]).best_index == 1
    tied = make_dataset([2.0, 2.0])
    assert tied.best_index == 0


def test_best_empty():
    with pytest.raises(EmptyDatasetError):
        Dataset().best_index


def test_best_matches_linear_scan_oracle():
    rng = np.random.default_rng(7)
    foms = rng.normal(size=105)
    dataset = make_dataset(foms)
    best = dataset[dataset.best_index]
    # independent oracle: sequential scan
    expected_idx = 0
    for i, f in enumerate(foms):
        if f > foms[expected_idx]:
            expected_idx = i
    assert best is dataset[expected_idx]


def test_best_invariant_under_lower_appends():
    rng = np.random.default_rng(11)
    dataset = make_dataset(rng.normal(size=20))
    before = dataset[dataset.best_index]
    for _ in range(50):
        dataset_append(dataset, make_record(before.fom - abs(rng.normal()) - 1e-9))
        assert dataset[dataset.best_index] is before
