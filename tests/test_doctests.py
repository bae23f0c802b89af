"""Every module's docstring examples, and the README's quick start, run as written."""

import ast
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import transportkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(transportkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    module = importlib.import_module(f"transportkit.{name}")
    failed, _ = doctest.testmod(module)
    assert failed == 0


def test_readme_quick_start():
    # the library tour's snippet runs, and each expression whose line ends in
    # a comment shows that value's repr first, then claims that hold
    # (res.u  # array([0.1]), res.mode == "direct")
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme[readme.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    lines, names, shown = code.splitlines(), {}, []
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, names)
            continue
        value = eval(source, names)
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
        want, claims = re.fullmatch(r"(.*?\))(?:, (.*))?", comment).groups()
        assert repr(value) == want
        for claim in claims.split(", ") if claims else ():
            assert eval(claim, names), claim
        shown.append(want)
    assert shown == ["array([0.4])", "array([0.1])"]
