"""The docstring examples of every library module and the README's quick tour,
run as tests."""

import doctest
import importlib
import pathlib
import pkgutil

import pytest

import boolrsk

MODULES = sorted(
    ["boolrsk"] + [f"boolrsk.{info.name}" for info in pkgutil.iter_modules(boolrsk.__path__)]
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_quick_tour():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
