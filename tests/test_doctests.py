"""Every module's docstring examples run as written."""

import doctest
import importlib
import pkgutil

import pytest

import transportkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(transportkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    module = importlib.import_module(f"transportkit.{name}")
    failed, _ = doctest.testmod(module)
    assert failed == 0
