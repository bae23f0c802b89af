"""The public API: every name listed in an __all__ resolves."""

import importlib
import pkgutil

import pytest

import transportkit

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(transportkit.__path__)
                    if m.name != "__main__")


def test_package_all_resolves():
    names = transportkit.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(transportkit, n)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves_and_star_imports(name):
    module = importlib.import_module(f"transportkit.{name}")
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from transportkit.{name} import *", namespace)
    assert set(names) <= set(namespace)
