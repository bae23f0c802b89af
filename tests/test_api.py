"""The public API: every name listed in an __all__ resolves, and no
module checks anything with an assert statement."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(Path(transportkit.__file__).parent
                                        .glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # an assert vanishes under python -O, and a failing one reaches the
    # CLI as a raw traceback instead of one of its exit codes
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []
