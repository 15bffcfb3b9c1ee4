"""The docstring examples of every library module, run as tests."""

import doctest
import importlib
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
