"""The benchmark's tracing targets still name objects in the package.

perfbench/tracing.py rebinds a list of package functions (and one method)
to time them.  A rename or deletion in src/ that drops one of them breaks
the benchmark; this test notices it without running a workload.  It only
reads perfbench/.
"""

import sys
import types
from pathlib import Path

import transportkit
import transportkit.cli  # noqa: F401  (the benchmark imports it too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, compiled without a bytecode cache."""
    module = types.ModuleType("perfbench_tracing")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def lookup(target):
    """The object a (name, module, attribute, scope, annotate) target rebinds."""
    _, module, attr, scope, _ = target
    home = sys.modules[f"transportkit.{module}"]
    if scope == "class":
        cls_name, meth = attr.split(".")
        return vars(getattr(home, cls_name))[meth]
    return getattr(home, attr)


def test_every_target_resolves_and_is_restored():
    tracing = load_tracing()
    before = [lookup(t) for t in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install(transportkit)
    try:
        rebound = [lookup(t) for t in tracing.TARGETS]
        rebindings = len(tracer._undo)
    finally:
        tracer.uninstall()
    for target, old, new in zip(tracing.TARGETS, before, rebound):
        assert new is not old, f"{target[0]} was not rebound"
        assert new.__wrapped__ is old
    assert rebindings >= len(tracing.TARGETS)
    assert [lookup(t) for t in tracing.TARGETS] == before
