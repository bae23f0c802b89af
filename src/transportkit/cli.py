"""Command-line front end.

Problem files are JSON documents validated strictly before any numeric
work; unknown keys are rejected with a JSON-path location.  Every run
emits a provenance header (input hash, tool version, tolerances in
effect, timestamp unless --no-timestamp), and identical inputs and flags
produce byte-identical output once the timestamp is excluded.

Exit codes: 0 success, 2 validation failure (schema, shapes,
preconditions), 3 numeric failure (integration, conditioning,
convergence), 4 unsolvable transport equation (solve-jet only; the
obstruction report is still written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from . import __version__
from .applications import (
    HeatProblem,
    WKBProblem,
    heat_coefficients_jet,
    heat_coefficients_numeric,
    wkb_expand,
)
from .errors import (
    SchemaError,
    TransportKitError,
    UnsolvableError,
    ValidationError,
)
from .estimates import (ODE_ABS_TOL, ODE_REL_TOL, MatrixPath,
                        inverse_two_regime_bound, two_regime_bound)
from .flow import EvalConfig, FieldSampler, evaluate_solution
from .jets import Jet, VectorFieldJet, grlex_key, jet_from_json, jet_to_json
from .opmatrix import ProblemData
from .spectral import (
    RESONANCE_TOL,
    dual_kernel_basis,
    eigenvalue_table,
    endo_spectrum,
    linearization_spectrum,
    solvability_test,
    sternberg_resonance_check,
)
from .taylor import solve_to_order

__all__ = ["main"]


# ---------------------------------------------------------------------------
# schema helpers

_TOP_KEYS = {"schema_version", "field", "problem", "grid", "heat", "wkb",
             "estimates", "sternberg"}


def _check_dict(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", path)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing required key {key!r}", path)


def _as_int(x, path, minimum=None):
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError("expected an integer", path)
    if minimum is not None and x < minimum:
        raise SchemaError(f"must be >= {minimum}", path)
    return x


def _as_real(x, path):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError("expected a number", path)
    try:
        val = float(x)
    except OverflowError:  # an integer literal beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise SchemaError("expected a finite number", path)
    return val


def _as_scalar(x, path, allow_complex):
    """A real number, or {re, im} when the file declares a complex field."""
    if isinstance(x, dict):
        _check_dict(x, path, required=("re", "im"))
        val = complex(_as_real(x["re"], path + ".re"),
                      _as_real(x["im"], path + ".im"))
        if val.imag != 0.0 and not allow_complex:
            raise SchemaError('complex value in a file with "field": "real"',
                              path)
        return val if val.imag != 0.0 else val.real
    return _as_real(x, path)


def _as_matrix(x, path):
    try:
        mat = np.array(x, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError("expected finite matrix entries", path) from None
    except (TypeError, ValueError):
        raise SchemaError("expected a numeric matrix", path) from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise SchemaError("expected a square matrix", path)
    if not np.all(np.isfinite(mat)):
        raise SchemaError("expected finite matrix entries", path)
    return mat


def _has_nonfinite(x):
    """True when a JSON value holds NaN, an infinity or an integer beyond
    the float range at any depth."""
    if isinstance(x, (int, float)):
        try:
            return not math.isfinite(x)
        except OverflowError:
            return True
    if isinstance(x, list):
        return any(_has_nonfinite(c) for c in x)
    if isinstance(x, dict):
        return any(_has_nonfinite(c) for c in x.values())
    return False


def _as_points(x, path, n):
    if not isinstance(x, list) or not x:
        raise SchemaError("expected a non-empty list of points", path)
    out = []
    for i, row in enumerate(x):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"expected a point with {n} coordinates",
                              f"{path}[{i}]")
        out.append(np.array([_as_real(c, f"{path}[{i}][{j}]")
                             for j, c in enumerate(row)]))
    return out


def _decode_jet(obj, path, *, n, allow_complex):
    _check_dict(obj, path, required=("n", "N", "terms"), optional=("shape",))
    if _as_int(obj["n"], path + ".n", minimum=1) != n:
        raise SchemaError(f"jet must have n={n} variables", path + ".n")
    _as_int(obj["N"], path + ".N", minimum=0)
    if not isinstance(obj["terms"], list):
        raise SchemaError("expected a list of terms", path + ".terms")
    for i, term in enumerate(obj["terms"]):
        _check_dict(term, f"{path}.terms[{i}]", required=("alpha", "coeff"))
        if _has_nonfinite(term["coeff"]):
            raise SchemaError("expected finite coefficients",
                              f"{path}.terms[{i}].coeff")
    try:
        jet = jet_from_json(obj)
    except (TransportKitError, ValueError, KeyError) as exc:
        raise SchemaError(str(exc), path) from exc
    if jet.is_complex and not allow_complex:
        raise SchemaError('complex coefficient in a file with "field": "real"',
                          path)
    return jet


def _decode_problem(doc):
    if "problem" not in doc:
        raise SchemaError('this command needs a "problem" block', "$")
    allow_complex = doc.get("field", "real") == "complex"
    obj = doc["problem"]
    path = "$.problem"
    _check_dict(obj, path, required=("n", "m", "N", "X", "A", "v", "lambda"))
    n = _as_int(obj["n"], path + ".n", minimum=1)
    m = _as_int(obj["m"], path + ".m", minimum=1)
    N = _as_int(obj["N"], path + ".N", minimum=1)
    if not isinstance(obj["X"], list) or len(obj["X"]) != n:
        raise SchemaError(f"X must be a list of {n} component jets",
                          path + ".X")
    comps = [_decode_jet(c, f"{path}.X[{i}]", n=n, allow_complex=allow_complex)
             for i, c in enumerate(obj["X"])]
    A = _decode_jet(obj["A"], path + ".A", n=n, allow_complex=allow_complex)
    v = _decode_jet(obj["v"], path + ".v", n=n, allow_complex=allow_complex)
    if A.value_shape != (m, m):
        raise SchemaError(f"A must be matrix:{m}", path + ".A")
    if v.value_shape != (m,):
        raise SchemaError(f"v must be vector:{m}", path + ".v")
    lam = _as_scalar(obj["lambda"], path + ".lambda", allow_complex)
    try:
        X = VectorFieldJet(comps)
        return ProblemData(X, A, v, lam, N)
    except TransportKitError as exc:
        raise SchemaError(str(exc), path) from exc


def _load_document(filename):
    try:
        raw = open(filename, "rb").read()
    except OSError as exc:
        raise ValidationError(f"cannot read {filename}: {exc.strerror}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    _check_dict(doc, "$", required=("schema_version",),
                optional=_TOP_KEYS - {"schema_version"})
    if doc["schema_version"] != 1:
        raise SchemaError("unsupported schema_version (expected 1)",
                          "$.schema_version")
    if doc.get("field", "real") not in ("real", "complex"):
        raise SchemaError('field must be "real" or "complex"', "$.field")
    return raw, doc


# ---------------------------------------------------------------------------
# output plumbing

def _encode_number(x):
    x = complex(x)
    if x.imag == 0.0:
        return x.real
    return {"re": x.real, "im": x.imag}


def _provenance(args, raw, tolerances):
    prov = {
        "tool": "transportkit",
        "version": __version__,
        "command": args.command,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "tolerances": tolerances,
    }
    if not args.no_timestamp:
        prov["timestamp"] = datetime.now(timezone.utc).isoformat()
    return prov


def _write_text(args, text):
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _emit_json(args, raw, tolerances, result):
    doc = {"provenance": _provenance(args, raw, tolerances), "result": result}
    _write_text(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit_csv(args, raw, tolerances, header, rows):
    prov = _provenance(args, raw, tolerances)
    buf = io.StringIO()
    buf.write(f"# tool: transportkit {__version__}\n")
    buf.write(f"# command: {prov['command']}\n")
    buf.write(f"# input_sha256: {prov['input_sha256']}\n")
    tol_text = " ".join(f"{k}={v}" for k, v in sorted(tolerances.items()))
    buf.write(f"# tolerances: {tol_text}\n")
    if "timestamp" in prov:
        buf.write(f"# timestamp: {prov['timestamp']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if c is None else c for c in row])
    _write_text(args, buf.getvalue())


def _resonance_json(entry):
    if entry is None:
        return None
    return {
        "lambda": _encode_number(entry.lam),
        "multiplicity": entry.multiplicity,
        "max_degree": entry.max_alpha_degree,
        "representations": [{"alpha": list(alpha), "j": j}
                            for alpha, j in entry.representations],
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args):
    raw, doc = _load_document(args.file)
    p = _decode_problem(doc)
    table = eigenvalue_table(linearization_spectrum(p.X),
                             endo_spectrum(p.A.coeffs[0]),
                             args.max_re, args.tol)
    tolerances = {"tol": args.tol, "max_re": args.max_re}
    if args.output == "csv":
        rows = [[e["re"], e["im"], e["multiplicity"],
                 ";".join(f"{','.join(map(str, r['alpha']))}:{r['j']}"
                          for r in e["representations"])] for e in table]
        _emit_csv(args, raw, tolerances,
                  ["re", "im", "multiplicity", "representations"], rows)
    else:
        _emit_json(args, raw, tolerances, {"eigenvalues": table})
    return 0


def cmd_solve_jet(args):
    raw, doc = _load_document(args.file)
    p = _decode_problem(doc)
    order = args.order if args.order is not None else p.N
    sol = solve_to_order(p, order, tol=args.tol,
                         obstruction_tol=args.obstruction_tol)
    solved_order = (sol.particular.N if sol.particular is not None
                    else sol.kernel_extensions[0].N
                    if sol.kernel_extensions else order)
    result = {
        "requested_order": order,
        "order": solved_order,
        "resonance": _resonance_json(sol.resonance),
        "solvable": sol.solvable,
        "obstructions": [_encode_number(o) for o in sol.obstructions],
        "condition": {k: float(val) for k, val in sol.condition_report.items()},
        "particular": (jet_to_json(sol.particular)
                       if sol.particular is not None else None),
        "kernel": [jet_to_json(k) for k in sol.kernel_extensions],
    }
    _emit_json(args, raw, {"tol": args.tol,
                           "obstruction_tol": args.obstruction_tol}, result)
    return 0 if sol.solvable else 4


def _grid_config(doc, args):
    cfg = {}
    radius = math.inf
    points = None
    if "grid" in doc:
        path = "$.grid"
        _check_dict(doc["grid"], path, required=("points",),
                    optional=("config",))
        conf = doc["grid"].get("config", {})
        _check_dict(conf, path + ".config", required=(),
                    optional=("rel_tol", "abs_tol", "tail_tol", "max_horizon",
                              "split_order", "radius"))
        for key in ("rel_tol", "abs_tol", "tail_tol", "max_horizon", "radius"):
            if key in conf:
                cfg[key] = _as_real(conf[key], f"{path}.config.{key}")
        if "split_order" in conf:
            so = conf["split_order"]
            if so != "auto":
                cfg["split_order"] = _as_int(so, f"{path}.config.split_order",
                                             minimum=1)
        radius = cfg.pop("radius", math.inf)
        points = doc["grid"]["points"]
    else:
        raise SchemaError('this command needs a "grid" block', "$")
    for key in ("rel_tol", "abs_tol", "tail_tol", "max_horizon"):
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    return EvalConfig(**cfg), radius, points


def cmd_solve_grid(args):
    raw, doc = _load_document(args.file)
    p = _decode_problem(doc)
    cfg, radius, raw_points = _grid_config(doc, args)
    points = _as_points(raw_points, "$.grid.points", p.n)
    sampler = FieldSampler.from_problem(p, radius=radius)

    def solve_one(y):
        try:
            res = evaluate_solution(sampler, p, y, cfg)
            return {"point": [float(c) for c in y],
                    "u": [float(c) for c in np.atleast_1d(res.u)],
                    "tail_estimate": res.tail_estimate,
                    "horizon": res.horizon,
                    "rate": res.rate,
                    "mode": res.mode,
                    "split_order": res.split_order,
                    "error": None}
        except TransportKitError as exc:
            return {"point": [float(c) for c in y], "u": None,
                    "tail_estimate": None, "horizon": None, "rate": None,
                    "mode": None, "split_order": None, "error": str(exc)}

    rows = [solve_one(y) for y in points]

    tolerances = {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol,
                  "tail_tol": cfg.tail_tol, "max_horizon": cfg.max_horizon}
    if args.output == "json":
        _emit_json(args, raw, tolerances, {"points": rows})
    else:
        header = [f"y{i}" for i in range(p.n)] + [f"u{k}" for k in range(p.m)]
        header += ["tail_estimate", "horizon", "rate", "mode", "split_order",
                   "error"]
        table = []
        for r in rows:
            u_cols = r["u"] if r["u"] is not None else [None] * p.m
            table.append(r["point"] + u_cols
                         + [r["tail_estimate"], r["horizon"], r["rate"],
                            r["mode"], r["split_order"], r["error"] or ""])
        _emit_csv(args, raw, tolerances, header, table)
    return 0


def cmd_kernel(args):
    raw, doc = _load_document(args.file)
    p = _decode_problem(doc)
    order = args.order if args.order is not None else p.N
    zero_v = Jet.zero(p.n, p.N, (p.m,),
                      dtype=np.complex128 if p.is_complex else np.float64)
    sol = solve_to_order(p.with_v(zero_v), order, tol=args.tol)
    result = {
        "resonance": _resonance_json(sol.resonance),
        "dimension": len(sol.kernel_extensions),
        "kernel": [jet_to_json(k) for k in sol.kernel_extensions],
    }
    _emit_json(args, raw, {"tol": args.tol}, result)
    return 0


def cmd_dual_kernel(args):
    raw, doc = _load_document(args.file)
    p = _decode_problem(doc)
    duals = dual_kernel_basis(p, tol=args.tol)
    out = []
    for d in duals:
        enc = d.to_json()
        delta = d.to_delta_form()
        enc["delta_form"] = [
            {"alpha": list(alpha),
             "covector": [_encode_number(c) for c in np.atleast_1d(xi)]}
            for alpha, xi in sorted(delta.items(), key=lambda kv: grlex_key(kv[0]))]
        out.append(enc)
    _emit_json(args, raw, {"tol": args.tol},
               {"dimension": len(out), "duals": out})
    return 0


def cmd_solvable(args):
    raw, doc = _load_document(args.file)
    p = _decode_problem(doc)
    res = solvability_test(p, tol=args.tol)
    _emit_json(args, raw, {"tol": args.tol},
               {"solvable": res.solvable,
                "obstructions": [_encode_number(o) for o in res.obstructions]})
    return 0


def cmd_heat(args):
    raw, doc = _load_document(args.file)
    if "heat" not in doc:
        raise SchemaError('this command needs a "heat" block', "$")
    path = "$.heat"
    obj = doc["heat"]
    _check_dict(obj, path, required=("n", "m", "K", "J", "N"),
                optional=("points", "quad_tol"))
    n = _as_int(obj["n"], path + ".n", minimum=1)
    m = _as_int(obj["m"], path + ".m", minimum=1)
    K = _decode_jet(obj["K"], path + ".K", n=n, allow_complex=False)
    problem = HeatProblem(n=n, m=m, K=K,
                          J=_as_int(obj["J"], path + ".J", minimum=0),
                          N=_as_int(obj["N"], path + ".N", minimum=1))
    quad_tol = _as_real(obj.get("quad_tol", 1e-10), path + ".quad_tol")
    jets = heat_coefficients_jet(problem)
    numeric = []
    if "points" in obj:
        for q in _as_points(obj["points"], path + ".points", n):
            vals = heat_coefficients_numeric(problem, q, tol=quad_tol)
            numeric.append({"point": [float(c) for c in q],
                            "values": [v.tolist() for v in vals]})
    tolerances = {"quad_tol": quad_tol}
    if args.output == "csv":
        if not numeric:
            raise ValidationError(
                'csv output needs a "points" list in the heat block')
        header = [f"q{i}" for i in range(n)] + ["j"] \
            + [f"phi_{r}{c}" for r in range(m) for c in range(m)]
        rows = []
        for entry in numeric:
            for j, mat in enumerate(entry["values"]):
                flat = [mat[r][c] for r in range(m) for c in range(m)]
                rows.append(entry["point"] + [j] + flat)
        _emit_csv(args, raw, tolerances, header, rows)
    else:
        result = {"coefficients": [jet_to_json(Phi) for Phi in jets]}
        if numeric:
            result["numeric"] = numeric
        _emit_json(args, raw, tolerances, result)
    return 0


def cmd_wkb(args):
    raw, doc = _load_document(args.file)
    if "wkb" not in doc:
        raise SchemaError('this command needs a "wkb" block', "$")
    path = "$.wkb"
    obj = doc["wkb"]
    _check_dict(obj, path, required=("V", "level", "J", "N"))
    V = _decode_jet(obj["V"], path + ".V", n=1, allow_complex=False)
    problem = WKBProblem(V=V,
                         level=_as_int(obj["level"], path + ".level", minimum=0),
                         J=_as_int(obj["J"], path + ".J", minimum=0),
                         N=_as_int(obj["N"], path + ".N", minimum=1))
    res = wkb_expand(problem)
    result = {
        "phi": jet_to_json(res.phi),
        "mu": res.mu,
        "level": res.level,
        "lambda": [float(lam) for lam in res.lambdas],
        "a": [jet_to_json(a) for a in res.amplitudes],
    }
    if args.output == "csv":
        rows = [[j, float(lam)] for j, lam in enumerate(res.lambdas)]
        _emit_csv(args, raw, {}, ["j", "lambda_j"], rows)
    else:
        _emit_json(args, raw, {}, result)
    return 0


def cmd_verify_estimates(args):
    raw, doc = _load_document(args.file)
    if "estimates" not in doc:
        raise SchemaError('this command needs an "estimates" block', "$")
    path = "$.estimates"
    obj = doc["estimates"]
    _check_dict(obj, path, required=("A0", "eps", "t0", "path"),
                optional=("mode",))
    A0 = _as_matrix(obj["A0"], path + ".A0")
    eps = _as_real(obj["eps"], path + ".eps")
    t0 = _as_real(obj["t0"], path + ".t0")
    mode = obj.get("mode", "direct")
    if mode not in ("direct", "inverse"):
        raise SchemaError('mode must be "direct" or "inverse"', path + ".mode")
    pobj = obj["path"]
    _check_dict(pobj, path + ".path", required=("rate",),
                optional=("B", "t_min", "samples"))
    rate = _as_real(pobj["rate"], path + ".path.rate")
    if rate <= 0:
        raise SchemaError("rate must be positive (the perturbation is "
                          "A0 + exp(rate * t) B for t <= 0)",
                          path + ".path.rate")
    B = (_as_matrix(pobj["B"], path + ".path.B") if "B" in pobj
         else np.zeros_like(A0))
    if B.shape != A0.shape:
        raise SchemaError("B must match the shape of A0", path + ".path.B")
    t_min = _as_real(pobj.get("t_min", -15.0), path + ".path.t_min")
    if t_min >= 0:
        raise SchemaError("t_min must be negative", path + ".path.t_min")
    samples = _as_int(pobj.get("samples", 151), path + ".path.samples",
                      minimum=2)
    mpath = MatrixPath(fn=lambda t: A0 + math.exp(rate * t) * B,
                       sample_times=np.linspace(t_min, 0.0, samples))
    check = two_regime_bound if mode == "direct" else inverse_two_regime_bound
    report = check(A0, mpath, eps, t0)
    tolerances = {"ode_rel_tol": ODE_REL_TOL, "ode_abs_tol": ODE_ABS_TOL}
    if args.output == "csv":
        rows = [[t, measured, bound] for t, measured, bound in report.samples]
        _emit_csv(args, raw, tolerances, ["t", "measured", "bound"], rows)
    else:
        _emit_json(args, raw, tolerances, report.to_json())
    return 0


def cmd_sternberg(args):
    raw, doc = _load_document(args.file)
    if "sternberg" in doc:
        path = "$.sternberg"
        _check_dict(doc["sternberg"], path, required=("mu",))
        if not isinstance(doc["sternberg"]["mu"], list):
            raise SchemaError("mu must be a list of numbers", path + ".mu")
        allow_complex = doc.get("field", "real") == "complex"
        mu = np.array([_as_scalar(x, f"{path}.mu[{i}]", allow_complex)
                       for i, x in enumerate(doc["sternberg"]["mu"])],
                      dtype=complex)
    else:
        p = _decode_problem(doc)
        mu = linearization_spectrum(p.X)
    violations = sternberg_resonance_check(mu, tol=args.tol)
    result = {
        "mu": [_encode_number(u) for u in mu],
        "violations": [{"j": j, "alpha": list(alpha)} for j, alpha in violations],
        "resonance_free": not violations,
    }
    _emit_json(args, raw, {"tol": args.tol}, result)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _finite_float(text):
    """argparse type of the tolerance flags: a float other than nan or inf."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return val


def _nonnegative_float(text):
    """argparse type of --tol and --obstruction-tol: a finite float >= 0."""
    val = _finite_float(text)
    if val < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative number, got {text!r}")
    return val


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="transportkit",
        description="Solve and analyze the transport equation "
                    "(D_X + A) u = lambda u + v at a positive source of X.")
    parser.add_argument("--version", action="version",
                        version=f"transportkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, output=None):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="problem file (JSON)")
        sp.add_argument("--out", default="-",
                        help="output path (default: stdout)")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical reruns")
        sp.add_argument("--tol", type=_nonnegative_float,
                        default=RESONANCE_TOL,
                        help="resonance / obstruction tolerance")
        if output is not None:
            sp.add_argument("--output", choices=("json", "csv"),
                            default=output, help="output format")
        sp.set_defaults(func=func)
        return sp

    sp = add("spectrum", cmd_spectrum,
             "eigenvalue table of D_X + A up to a real-part bound",
             output="json")
    sp.add_argument("--max-re", type=_finite_float, default=5.0,
                    help="enumerate eigenvalues with Re lambda <= this")

    sp = add("solve-jet", cmd_solve_jet,
             "solve the transport equation in the jet algebra")
    sp.add_argument("--order", type=int, default=None,
                    help="target jet order (default: the problem order)")
    sp.add_argument("--obstruction-tol", type=_nonnegative_float,
                    default=1e-9,
                    help="relative solvability screen")

    sp = add("solve-grid", cmd_solve_grid,
             "evaluate the decaying solution on a grid of points",
             output="csv")
    sp.add_argument("--rel-tol", type=_finite_float, default=None)
    sp.add_argument("--abs-tol", type=_finite_float, default=None)
    sp.add_argument("--tail-tol", type=_finite_float, default=None)
    sp.add_argument("--max-horizon", type=_finite_float, default=None)

    sp = add("kernel", cmd_kernel, "kernel jets of D_X + A - lambda")
    sp.add_argument("--order", type=int, default=None,
                    help="extension order (default: the problem order)")

    add("dual-kernel", cmd_dual_kernel,
        "distributional kernel of the transposed operator")
    add("solvable", cmd_solvable,
        "report the solvability obstructions for v")
    add("heat", cmd_heat,
        "heat coefficient jets (and values on points)", output="json")
    add("wkb", cmd_wkb,
        "WKB phase, eigenvalue series and amplitudes", output="json")
    add("verify-estimates", cmd_verify_estimates,
        "check the two-regime transition bound on a matrix path",
        output="json")
    add("sternberg", cmd_sternberg,
        "integer resonance conditions on the linearization spectrum")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsolvableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TransportKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
