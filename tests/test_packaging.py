"""pyproject.toml refers only to files and modules that exist.

A full `pip install .` also needs the build backend and network access, so
this checks the metadata's references directly.
"""

import glob
import importlib
import os

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pyproject():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)


def test_readme_exists(pyproject):
    readme = pyproject["project"]["readme"]
    assert os.path.isfile(os.path.join(ROOT, readme))


def test_script_targets_import(pyproject):
    for name, target in pyproject["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_ships_modular_polynomials(pyproject):
    where = pyproject["tool"]["setuptools"]["packages"]["find"]["where"][0]
    matched = set()
    for package, patterns in pyproject["tool"]["setuptools"]["package-data"].items():
        base = os.path.join(ROOT, where, package)
        for pattern in patterns:
            matched.update(
                os.path.relpath(path, base) for path in glob.glob(os.path.join(base, pattern))
            )
    assert os.path.join("data", "modular_polynomials.txt") in matched
