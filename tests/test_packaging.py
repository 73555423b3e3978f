"""Packaging metadata agrees with the dependencies it names."""

import tomllib
from importlib.metadata import metadata
from pathlib import Path

import pytest
from packaging.requirements import Requirement
from packaging.specifiers import SpecifierSet

PROJECT = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
)["project"]


@pytest.mark.parametrize("requirement", PROJECT["dependencies"])
def test_minimum_python_is_supported_by_each_installed_dependency(requirement):
    # The project's lowest Python must be one its installed dependencies allow.
    minimum = next(
        spec.version for spec in SpecifierSet(PROJECT["requires-python"])
        if spec.operator == ">="
    )
    name = Requirement(requirement).name
    allowed = SpecifierSet(metadata(name).get("Requires-Python") or "")
    assert allowed.contains(minimum), f"{name} requires Python {allowed}"
