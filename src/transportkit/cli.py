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
    ValidationError,
)
from .estimates import (ODE_ABS_TOL, ODE_REL_TOL, MatrixPath,
                        inverse_two_regime_bound, two_regime_bound)
from .flow import EvalConfig, FieldSampler, _plan
from .jets import (MAX_COEFFS, Jet, VectorFieldJet, _encode_value, _fields,
                   _integer, fits, jet_from_json, jet_to_json)
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
from .taylor import MAX_ORDER, solve_to_order

__all__ = ["main"]


# ---------------------------------------------------------------------------
# schema
#
# Each block of a document is a table key -> (reader, default).  A key
# without a default is required; a default of None leaves an absent key
# out.  A reader takes (value, path, ctx) and returns the decoded value;
# ctx holds the enclosing context (the document's field, the problem's n)
# and the keys of the block read so far, in table order.

def _block(obj, path, spec, ctx):
    """Check obj's keys against spec, then read them in table order."""
    _fields(obj, path, [key for key, entry in spec.items() if len(entry) == 1],
            spec)
    out = {}
    for key, (reader, *default) in spec.items():
        if key in obj:
            out[key] = reader(obj[key], f"{path}.{key}", {**ctx, **out})
        elif default[0] is not None:
            out[key] = default[0]
    return out


def _read(doc, name, **ctx):
    """The block name of the document, read by its table."""
    if name not in doc:
        article = "an" if name[0] in "aeiou" else "a"
        raise SchemaError(f'this command needs {article} "{name}" block', "$")
    return _block(doc[name], f"$.{name}", _BLOCKS[name],
                  {"field": doc["field"], **ctx})


def _int(minimum, maximum=None):
    return lambda x, path, ctx: _integer(x, path, minimum, maximum)


def _real(x, path, ctx=None):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError("expected a number", path)
    if not abs(x) <= sys.float_info.max:  # NaN, inf or a huge integer
        raise SchemaError("expected a finite number", path)
    return float(x)


def _scalar(x, path, ctx):
    """A real number, or {re, im} when the document declares a complex field."""
    if not isinstance(x, dict):
        return _real(x, path)
    part = _block(x, path, {"re": (_real,), "im": (_real,)}, ctx)
    val = complex(part["re"], part["im"])
    if val.imag == 0.0:
        return val.real
    if ctx["field"] != "complex":
        raise SchemaError('complex value in a file with "field": "real"', path)
    return val


def _one_of(*choices):
    def read(x, path, ctx):
        if x not in choices:
            key = path.rsplit(".", 1)[1]
            raise SchemaError(f"{key} must be "
                              + " or ".join(f'"{c}"' for c in choices), path)
        return x
    return read


def _raw(x, path, ctx):
    return x


def _version(x, path, ctx):
    if type(x) is not int or x != 1:
        raise SchemaError("unsupported schema_version (expected 1)", path)
    return x


def _matrix(x, path, ctx):
    try:
        mat = np.array(x, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError("expected finite matrix entries", path) from None
    except (TypeError, ValueError):
        raise SchemaError("expected a numeric matrix", path) from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise SchemaError("expected a square matrix", path)
    # numpy reads true and numeric strings as numbers
    if any(isinstance(c, (bool, str)) for row in x for c in row):
        raise SchemaError("expected a numeric matrix", path)
    if not np.all(np.isfinite(mat)):
        raise SchemaError("expected finite matrix entries", path)
    return mat


def _points(x, path, ctx):
    n = ctx["n"]
    if not isinstance(x, list) or not x:
        raise SchemaError("expected a non-empty list of points", path)
    out = []
    for i, row in enumerate(x):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"expected a point with {n} coordinates",
                              f"{path}[{i}]")
        out.append(np.array([_real(c, f"{path}[{i}][{j}]")
                             for j, c in enumerate(row)]))
    return out


def _decode_jet(x, path, ctx):
    """A jet in ctx["n"] variables, decoded by jets.jet_from_json."""
    n = x.get("n") if isinstance(x, dict) else None
    if type(n) is int and 1 <= n != ctx["n"]:  # first: else every alpha fails
        raise SchemaError(f"jet must have n={ctx['n']} variables", f"{path}.n")
    try:
        jet = jet_from_json(x)
    except SchemaError as exc:
        raise SchemaError(exc.message, f"{path}.{exc.path}" if exc.path
                          else path) from exc
    if jet.is_complex and ctx["field"] != "complex":
        raise SchemaError('complex coefficient in a file with "field": "real"',
                          path)
    return jet


def _components(x, path, ctx):
    if not isinstance(x, list) or len(x) != ctx["n"]:
        raise SchemaError(f"X must be a list of {ctx['n']} component jets",
                          path)
    return [_decode_jet(c, f"{path}[{i}]", ctx) for i, c in enumerate(x)]


def _split_order(x, path, ctx):
    return None if x == "auto" else _integer(x, path, 1)


def _samples(x, path, ctx):
    return _integer(x, path, 2, MAX_COEFFS // ctx["A0"].size)


def _mu(x, path, ctx):
    if not isinstance(x, list):
        raise SchemaError("mu must be a list of numbers", path)
    if not x:
        raise SchemaError("mu must not be empty", path)
    return np.array([_scalar(c, f"{path}[{i}]", ctx) for i, c in enumerate(x)],
                    dtype=complex)


def _sub(spec):
    return lambda x, path, ctx: _block(x, path, spec, ctx)


# wkb solves at orders N - 2 and below; heat keeps the same cap
_APP_ORDER = MAX_ORDER + 2
_TOO_LARGE = f"needs more than {MAX_COEFFS} coefficients at this order"

_BLOCKS = {
    "problem": {"n": (_int(1),), "m": (_int(1),), "N": (_int(1),),
                "X": (_components,), "A": (_decode_jet,), "v": (_decode_jet,),
                "lambda": (_scalar,)},
    "grid": {"config": (_sub({key: (_real, None) for key in (
                 "rel_tol", "abs_tol", "tail_tol", "max_horizon", "radius")}
                 | {"split_order": (_split_order, None)}), None),
             "points": (_points,)},
    "heat": {"n": (_int(1),), "m": (_int(1),), "K": (_decode_jet,),
             "J": (_int(0),), "N": (_int(1, _APP_ORDER),),
             "points": (_points, None), "quad_tol": (_real, 1e-10)},
    "wkb": {"V": (_decode_jet,), "level": (_int(0),), "J": (_int(0),),
            "N": (_int(1, _APP_ORDER),)},
    "estimates": {"A0": (_matrix,), "eps": (_real,), "t0": (_real,),
                  "mode": (_one_of("direct", "inverse"), "direct"),
                  "path": (_sub({"rate": (_real,), "B": (_matrix, None),
                                 "t_min": (_real, -15.0),
                                 "samples": (_samples, 151)}),)},
    "sternberg": {"mu": (_mu,)},
}

# the blocks are read by the commands that use them
_DOCUMENT = {"schema_version": (_version,),
             "field": (_one_of("real", "complex"), "real"),
             **{name: (_raw, None) for name in _BLOCKS}}


def _problem(doc):
    """The transport problem of the document's "problem" block."""
    b = _read(doc, "problem")
    n, m, N = b["n"], b["m"], b["N"]
    if b["A"].value_shape != (m, m):
        raise SchemaError(f"A must be matrix:{m}", "$.problem.A")
    if b["v"].value_shape != (m,):
        raise SchemaError(f"v must be vector:{m}", "$.problem.v")
    if not fits(n, N, n + m * (m + 1)):  # X, A and v padded to order N
        raise SchemaError(_TOO_LARGE, "$.problem.N")
    try:
        return ProblemData(VectorFieldJet(b["X"]), b["A"], b["v"],
                           b["lambda"], N)
    except (TransportKitError, ValueError) as exc:
        raise SchemaError(str(exc), "$.problem") from exc


def _load_document(filename):
    try:
        with open(filename, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {filename}: {exc.strerror}") from exc
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    return raw, _block(doc, "$", _DOCUMENT, {})


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


def _csv_text(prov, header, rows):
    buf = io.StringIO()
    buf.write(f"# tool: transportkit {__version__}\n")
    buf.write(f"# command: {prov['command']}\n")
    buf.write(f"# input_sha256: {prov['input_sha256']}\n")
    tol_text = " ".join(f"{k}={v}"
                        for k, v in sorted(prov["tolerances"].items()))
    buf.write(f"# tolerances: {tol_text}\n")
    if "timestamp" in prov:
        buf.write(f"# timestamp: {prov['timestamp']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if c is None else c for c in row])
    return buf.getvalue()


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
# subcommands: each takes (args, doc) and returns (tolerances, result,
# csv (header, rows) or None[, exit code])

def cmd_spectrum(args, doc):
    p = _problem(doc)
    table = eigenvalue_table(linearization_spectrum(p.X),
                             endo_spectrum(p.A.coeffs[0]),
                             args.max_re, args.tol)
    rows = [[e["re"], e["im"], e["multiplicity"],
             ";".join(f"{','.join(map(str, r['alpha']))}:{r['j']}"
                      for r in e["representations"])] for e in table]
    return ({"tol": args.tol, "max_re": args.max_re}, {"eigenvalues": table},
            (["re", "im", "multiplicity", "representations"], rows))


def cmd_solve_jet(args, doc):
    p = _problem(doc)
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
    return ({"tol": args.tol, "obstruction_tol": args.obstruction_tol},
            result, None, 0 if sol.solvable else 4)


def cmd_solve_grid(args, doc):
    p = _problem(doc)
    grid = _read(doc, "grid", n=p.n)
    cfg = grid.get("config", {})
    radius = cfg.pop("radius", math.inf)
    for key in ("rel_tol", "abs_tol", "tail_tol", "max_horizon"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    cfg = EvalConfig(**cfg)
    evaluate = _plan(FieldSampler.from_problem(p, radius=radius), p, cfg)

    fields = ["tail_estimate", "horizon", "rate", "mode", "split_order"]
    rows = []
    points = grid["points"]
    for y, res in zip(points, evaluate(points)):  # a failure stays in its row
        row = {"point": [float(c) for c in y], "u": None, "error": None,
               **dict.fromkeys(fields)}
        if isinstance(res, TransportKitError):
            row["error"] = str(res)
        else:
            row.update({k: getattr(res, k) for k in fields},
                       u=[float(c) for c in np.atleast_1d(res.u)])
        rows.append(row)
    header = ([f"y{i}" for i in range(p.n)] + [f"u{k}" for k in range(p.m)]
              + fields + ["error"])
    table = [r["point"] + (r["u"] or [None] * p.m) + [r[k] for k in fields]
             + [r["error"] or ""] for r in rows]
    tolerances = {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol,
                  "tail_tol": cfg.tail_tol, "max_horizon": cfg.max_horizon}
    return tolerances, {"points": rows}, (header, table)


def cmd_kernel(args, doc):
    p = _problem(doc)
    order = args.order if args.order is not None else p.N
    zero_v = Jet.zero(p.n, p.N, (p.m,),
                      dtype=np.complex128 if p.is_complex else np.float64)
    sol = solve_to_order(p.with_v(zero_v), order, tol=args.tol)
    result = {
        "resonance": _resonance_json(sol.resonance),
        "dimension": len(sol.kernel_extensions),
        "kernel": [jet_to_json(k) for k in sol.kernel_extensions],
    }
    return {"tol": args.tol}, result, None


def cmd_dual_kernel(args, doc):
    p = _problem(doc)
    duals = dual_kernel_basis(p, tol=args.tol)
    out = []
    for d in duals:
        enc = d.to_json()
        delta = d.to_delta_form()
        enc["delta_form"] = [
            {"alpha": list(alpha), "covector": _encode_value(np.atleast_1d(xi))}
            for alpha, xi in delta.items()]
        out.append(enc)
    return {"tol": args.tol}, {"dimension": len(out), "duals": out}, None


def cmd_solvable(args, doc):
    p = _problem(doc)
    res = solvability_test(p, tol=args.tol)
    return ({"tol": args.tol},
            {"solvable": res.solvable,
             "obstructions": [_encode_number(o) for o in res.obstructions]},
            None)


def cmd_heat(args, doc):
    heat = _read(doc, "heat", field="real")
    n, m, K, N = heat["n"], heat["m"], heat["K"], heat["N"]
    if not fits(n, N, max(n, K.coeffs[0].size)):  # K and monomials to order N
        raise SchemaError(_TOO_LARGE, "$.heat.N")
    problem = HeatProblem(n=n, m=m, K=K, J=heat["J"], N=N)
    quad_tol = heat["quad_tol"]
    if not quad_tol > 0:
        raise SchemaError("quadrature tolerance must be positive, got "
                          f"{quad_tol}", "$.heat.quad_tol")
    points = heat.get("points")
    if points is None and args.output == "csv":
        raise ValidationError(
            'csv output needs a "points" list in the heat block')
    result = {"coefficients": [jet_to_json(Phi)
                               for Phi in heat_coefficients_jet(problem)]}
    if points is None:
        return {"quad_tol": quad_tol}, result, None
    result["numeric"] = numeric = []
    for q in points:
        vals = heat_coefficients_numeric(problem, q, tol=quad_tol)
        numeric.append({"point": [float(c) for c in q],
                        "values": [v.tolist() for v in vals]})
    header = [f"q{i}" for i in range(n)] + ["j"] \
        + [f"phi_{r}{c}" for r in range(m) for c in range(m)]
    rows = [entry["point"] + [j] + [c for row in mat for c in row]
            for entry in numeric for j, mat in enumerate(entry["values"])]
    return {"quad_tol": quad_tol}, result, (header, rows)


def cmd_wkb(args, doc):
    wkb = _read(doc, "wkb", n=1, field="real")
    res = wkb_expand(WKBProblem(V=wkb["V"], level=wkb["level"], J=wkb["J"],
                                N=wkb["N"]))
    result = {
        "phi": jet_to_json(res.phi),
        "mu": res.mu,
        "level": res.level,
        "lambda": [float(lam) for lam in res.lambdas],
        "a": [jet_to_json(a) for a in res.amplitudes],
    }
    rows = [[j, float(lam)] for j, lam in enumerate(res.lambdas)]
    return {}, result, (["j", "lambda_j"], rows)


def cmd_verify_estimates(args, doc):
    est = _read(doc, "estimates")
    A0, path = est["A0"], est["path"]
    rate, t_min = path["rate"], path["t_min"]
    if rate <= 0:
        raise SchemaError("rate must be positive (the perturbation is "
                          "A0 + exp(rate * t) B for t <= 0)",
                          "$.estimates.path.rate")
    B = path.get("B", np.zeros_like(A0))
    if B.shape != A0.shape:
        raise SchemaError("B must match the shape of A0", "$.estimates.path.B")
    if t_min >= 0:
        raise SchemaError("t_min must be negative", "$.estimates.path.t_min")
    mpath = MatrixPath(fn=lambda t: A0 + math.exp(rate * t) * B,
                       sample_times=np.linspace(t_min, 0.0, path["samples"]))
    check = (two_regime_bound if est["mode"] == "direct"
             else inverse_two_regime_bound)
    report = check(A0, mpath, est["eps"], est["t0"])
    return ({"ode_rel_tol": ODE_REL_TOL, "ode_abs_tol": ODE_ABS_TOL},
            report.to_json(),
            (["t", "measured", "bound"], [list(s) for s in report.samples]))


def cmd_sternberg(args, doc):
    if "sternberg" in doc:
        mu = _read(doc, "sternberg")["mu"]
    else:
        mu = linearization_spectrum(_problem(doc).X)
    violations = sternberg_resonance_check(mu, tol=args.tol)
    result = {
        "mu": [_encode_number(u) for u in mu],
        "violations": [{"j": j, "alpha": list(alpha)} for j, alpha in violations],
        "resonance_free": not violations,
    }
    return {"tol": args.tol}, result, None


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
        sp.set_defaults(func=func, output=output or "json")
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
        raw, doc = _load_document(args.file)
        tolerances, result, table, *code = args.func(args, doc)
        prov = _provenance(args, raw, tolerances)
        text = (_csv_text(prov, *table) if args.output == "csv" else
                json.dumps({"provenance": prov, "result": result},
                           sort_keys=True, indent=2) + "\n")
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        return code[0] if code else 0
    except TransportKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
