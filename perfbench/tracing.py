"""Spans around calls into transportkit's public functions, installed from outside.

The package imports its functions by name (``from .taylor import
solve_to_order``), so a span is installed by rebinding the name in every
package module that holds the same object.  Third-party functions (scipy's
``solve_ivp`` and ``expm``) are rebound only in the module named, so that
the flow integrator and the estimates integrator stay apart.  Spans are
kept in memory; ``summary`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass

# (span name, module, attribute, scope, annotate)
#   scope "package": rebind in every transportkit module holding the object
#   scope "module":  rebind only in the named module
#   scope "class":   attribute is "Class.method", rebound on the class
#   annotate: None, or result -> dict of values kept on the span
_IVP = lambda r: {"nfev": int(r.nfev), "steps": int(len(r.t) - 1)}  # noqa: E731
TARGETS = (
    ("cli.main", "cli", "main", "package", None),
    ("flow.evaluate_solution", "flow", "evaluate_solution", "package",
     lambda r: {"mode": r.mode}),
    ("flow.integrator", "flow", "solve_ivp", "module", _IVP),
    ("taylor.solve_to_order", "taylor", "solve_to_order", "package",
     lambda r: {"resonant": r.resonance is not None}),
    ("taylor.residual", "taylor", "residual", "package", None),
    ("spectral.enumerate_resonances", "spectral", "enumerate_resonances",
     "package", None),
    ("spectral.dual_kernel_basis", "spectral", "dual_kernel_basis", "package",
     None),
    ("spectral.nullspace", "spectral", "nullspace", "package", None),
    ("opmatrix.assemble", "opmatrix", "assemble", "package",
     lambda r: {"dim": int(r.dim)}),
    ("opmatrix.apply_operator", "opmatrix", "apply_operator", "package", None),
    ("jets.jet_mul", "jets", "jet_mul", "package", None),
    ("jets.Jet.evaluate", "jets", "Jet.evaluate", "class", None),
    ("estimates.compute_M", "estimates", "compute_M", "package", None),
    ("estimates.bound", "estimates", "two_regime_bound", "package", None),
    ("estimates.bound", "estimates", "inverse_two_regime_bound", "package",
     None),
    ("estimates.expm", "estimates", "expm", "module", None),
    ("estimates.integrator", "estimates", "solve_ivp", "module", _IVP),
)


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    thread: int
    call: int
    start: float
    end: float = 0.0
    info: dict | None = None


class Tracer:
    """Records spans; one instance per traced pass.

    Each thread keeps its own parent stack.  A span opened on a thread with
    an empty stack (a ``solve-grid`` pool worker) takes as parent the
    innermost span open on the client thread, so self time stays correct
    under the pool.  ``call`` is the id of the top-level span a span
    belongs to.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: list[Span] | None = None
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, annotate):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            outer = stack if stack else (tracer._client_stack or [])
            parent = outer[-1] if outer else None
            span_id = next(tracer._ids)
            span = Span(name=name, span_id=span_id,
                        parent=parent.span_id if parent else None,
                        thread=threading.get_ident(),
                        call=parent.call if parent else span_id,
                        start=time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                span.info = annotate(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, tk):
        """Rebind every target in the freshly imported package ``tk``."""
        self._client_stack = self._stack()
        package = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == tk.__name__
                                           or key.startswith(tk.__name__ + "."))]
        for name, module, attr, scope, annotate in TARGETS:
            home = sys.modules[f"{tk.__name__}.{module}"]
            if scope == "class":
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, annotate))
                continue
            original = getattr(home, attr)
            traced = self.wrap(name, original, annotate)
            holders = [home] if scope == "module" else [
                mod for mod in package if getattr(mod, attr, None) is original]
            for mod in holders:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summary(spans) -> dict:
    """Per-name call counts, total time, self time, and annotation sums."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict] = {}
    for s in spans:
        rec = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations": [], "info": []})
        dur = s.end - s.start
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.span_id, ())]
        rec["calls"] += 1
        rec["s"] += dur
        rec["self_s"] += dur - _union_length([k for k in kids if k[1] > k[0]])
        rec["durations"].append(dur)
        rec["info"].append(s.info or {})
    return out


def layer_metrics(spans, traced_wall: float, untraced_wall: float):
    """(per-layer metric values named in BENCHMARK.json, summary(spans)).

    flow.max_abs_err is not a span quantity; the caller adds it.
    """
    agg = summary(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "info": []}

    def get(name):
        return agg.get(name, empty)

    def info_sum(name, key):
        return sum(i.get(key, 0) for i in get(name)["info"])

    def p50_where(name, key, value):
        ds = [d for d, i in zip(get(name)["durations"], get(name)["info"])
              if i.get(key) == value]
        return statistics.median(ds) if ds else 0.0

    def s_where(name, key, value):
        return sum(d for d, i in zip(get(name)["durations"], get(name)["info"])
                   if i.get(key) == value)

    ev = get("flow.evaluate_solution")
    cli_main = get("cli.main")
    top = [s for s in spans if s.parent is None]
    m = {
        "jets.Jet.evaluate.calls": get("jets.Jet.evaluate")["calls"],
        "jets.Jet.evaluate.s": get("jets.Jet.evaluate")["s"],
        "flow.integrator.calls": get("flow.integrator")["calls"],
        "flow.integrator.s": get("flow.integrator")["s"],
        "flow.integrator.nfev": info_sum("flow.integrator", "nfev"),
        "flow.integrator.steps": info_sum("flow.integrator", "steps"),
        "flow.nfev_per_point": (info_sum("flow.integrator", "nfev") / ev["calls"]
                                if ev["calls"] else 0.0),
        "flow.evaluate_solution.calls": ev["calls"],
        "flow.evaluate_solution.s": ev["s"],
        "flow.evaluate_solution.direct_p50_s":
            p50_where("flow.evaluate_solution", "mode", "direct"),
        "flow.evaluate_solution.split_p50_s":
            p50_where("flow.evaluate_solution", "mode", "split"),
        "flow.thread_busy_frac": (ev["s"] / cli_main["s"]
                                  if ev["calls"] and cli_main["s"] else 0.0),
        "cli.main.calls": cli_main["calls"],
        "cli.main.s": cli_main["s"],
        "cli.main.self_s": cli_main["self_s"],
        "taylor.solve_to_order.calls": get("taylor.solve_to_order")["calls"],
        "taylor.solve_to_order.resonant_s":
            s_where("taylor.solve_to_order", "resonant", True),
        "taylor.solve_to_order.nonresonant_s":
            s_where("taylor.solve_to_order", "resonant", False),
        "taylor.solve_to_order.self_s": get("taylor.solve_to_order")["self_s"],
        "taylor.residual.calls": get("taylor.residual")["calls"],
        "taylor.residual.s": get("taylor.residual")["s"],
        "spectral.enumerate_resonances.calls":
            get("spectral.enumerate_resonances")["calls"],
        "spectral.enumerate_resonances.s": get("spectral.enumerate_resonances")["s"],
        "spectral.dual_kernel_basis.calls": get("spectral.dual_kernel_basis")["calls"],
        "spectral.dual_kernel_basis.s": get("spectral.dual_kernel_basis")["s"],
        "spectral.nullspace.calls": get("spectral.nullspace")["calls"],
        "spectral.nullspace.s": get("spectral.nullspace")["s"],
        "opmatrix.assemble.calls": get("opmatrix.assemble")["calls"],
        "opmatrix.assemble.s": get("opmatrix.assemble")["s"],
        "opmatrix.assemble.dim_sum": info_sum("opmatrix.assemble", "dim"),
        "opmatrix.apply_operator.calls": get("opmatrix.apply_operator")["calls"],
        "jets.jet_mul.calls": get("jets.jet_mul")["calls"],
        "jets.jet_mul.s": get("jets.jet_mul")["s"],
        "estimates.compute_M.calls": get("estimates.compute_M")["calls"],
        "estimates.compute_M.s": get("estimates.compute_M")["s"],
        "estimates.expm.calls": get("estimates.expm")["calls"],
        "estimates.integrator.calls": get("estimates.integrator")["calls"],
        "estimates.integrator.nfev": info_sum("estimates.integrator", "nfev"),
        "estimates.integrator.s": get("estimates.integrator")["s"],
        "estimates.bound.s": get("estimates.bound")["s"],
        "estimates.bound.self_s": get("estimates.bound")["self_s"],
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.top_cover_frac": (sum(s.end - s.start for s in top) / traced_wall
                                 if traced_wall > 0 else 0.0),
    }
    return m, agg
