"""End-to-end tests for the command-line interface.

Closed forms used as expected values:

* Euler field in two variables, scalar A = 0: the operator spectrum is
  the set of monomial degrees, with multiplicity 1, 2, 3 at 0, 1, 2.
* Same problem with v = y1^2 and lambda = 0: u = y1^2 / 2, constant
  kernel, one dual functional (evaluation at the origin).
* y u' + a u = y^2 has the decaying solution u = y^2 / (2 + a); with
  a = 1 the flow integrates it directly, with a = -1/2 the remainder
  only decays after splitting off the quadratic head.
* Gradient field of (y1^2)/2 + y1^2 y2 + y2^2: linearization spectrum
  (1, 2), so lambda = 2 collects alpha = (2, 0) and alpha = (0, 1).
* Harmonic potential mu^2 x^2: lambda_0 = (2 level + 1) mu, every
  correction vanishes; adding 0.1 x^4 shifts level 0 by 3/4 * 0.1.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

import transportkit
from transportkit import (
    FieldSampler,
    Jet,
    ProblemData,
    VectorFieldJet,
    evaluate_solution,
    jet_from_json,
    solve_to_order,
)
from transportkit import applications, flow, taylor
from transportkit.applications import HeatProblem, heat_coefficients_numeric
from transportkit.cli import _build_parser, main
from transportkit.jets import monomial_rank


def scalar_term(alpha, c):
    return {"alpha": list(alpha), "coeff": c}


def euler_doc(v_terms, lam=0.0, N=3):
    jet = lambda terms, shape: {"n": 2, "N": N, "shape": shape, "terms": terms}
    return {
        "schema_version": 1,
        "problem": {
            "n": 2, "m": 1, "N": N,
            "X": [jet([scalar_term((1, 0), 1.0)], "scalar"),
                  jet([scalar_term((0, 1), 1.0)], "scalar")],
            "A": jet([], "matrix:1"),
            "v": jet(v_terms, "vector:1"),
            "lambda": lam,
        },
    }


def radial_doc(a, v_terms, N=4, grid=None):
    jet = lambda terms, shape: {"n": 1, "N": N, "shape": shape, "terms": terms}
    doc = {
        "schema_version": 1,
        "problem": {
            "n": 1, "m": 1, "N": N,
            "X": [jet([scalar_term((1,), 1.0)], "scalar")],
            "A": jet([scalar_term((0,), [[a]])], "matrix:1"),
            "v": jet(v_terms, "vector:1"),
            "lambda": 0.0,
        },
    }
    if grid is not None:
        doc["grid"] = grid
    return doc


@pytest.fixture
def run(tmp_path, capsys):
    """Write the document, run the CLI, return (exit code, stdout, stderr)."""

    def go(command, doc, *flags):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code = main([command, str(path), "--no-timestamp", *flags])
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return go


def result_of(out):
    return json.loads(out)["result"]


DELETE = object()


def single_fault(command, where, value):
    """A valid document for command with the value at where replaced
    (or deleted, for DELETE)."""
    if command == "verify-estimates":
        doc = {"schema_version": 1,
               "estimates": {"A0": [[1.0, 1.0], [0.0, 1.0]], "eps": 0.25,
                             "t0": -1.0, "mode": "direct",
                             "path": {"rate": 1.0, "t_min": -6.0,
                                      "samples": 11}}}
    elif command == "heat":
        doc = {"schema_version": 1,
               "heat": {"n": 2, "m": 1, "J": 1, "N": 3, "points": [[0.3, 0.2]],
                        "K": {"n": 2, "N": 3, "shape": "scalar",
                              "terms": [scalar_term((2, 0), 1.0)]}}}
    elif command == "sternberg":
        doc = {"schema_version": 1, "sternberg": {"mu": [1.0, 2.5]}}
    elif command == "wkb":
        doc = {"schema_version": 1,
               "wkb": {"level": 0, "J": 1, "N": 6,
                       "V": {"n": 1, "N": 6, "shape": "scalar",
                             "terms": [scalar_term((2,), 1.0)]}}}
    else:
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])], N=3,
                         grid={"points": [[0.1]], "config": {}})
        doc["field"] = "real"
    target = doc
    for key in where[:-1]:
        target = target[key]
    if value is DELETE:
        del target[where[-1]]
    else:
        target[where[-1]] = value
    return doc


# one document per message the command line writes itself; the texts are
# part of the interface and are compared byte for byte
GOLDEN = [
    ("solve-jet", ("bogus",), 1, (), "$: unknown key 'bogus'"),
    ("solve-jet", ("schema_version",), DELETE, (),
     "$: missing required key 'schema_version'"),
    ("solve-jet", ("schema_version",), 2, (),
     "$.schema_version: unsupported schema_version (expected 1)"),
    ("solve-jet", ("field",), "quaternion", (),
     '$.field: field must be "real" or "complex"'),
    ("solve-jet", ("problem",), DELETE, (),
     '$: this command needs a "problem" block'),
    ("solve-jet", ("problem",), None, (), "$.problem: expected an object"),
    ("solve-jet", ("problem", "lambda"), DELETE, (),
     "$.problem: missing required key 'lambda'"),
    ("solve-jet", ("problem", "n"), 1.5, (),
     "$.problem.n: expected an integer"),
    ("solve-jet", ("problem", "N"), 0, (), "$.problem.N: must be >= 1"),
    ("solve-jet", ("problem", "lambda"), "x", (),
     "$.problem.lambda: expected a number"),
    ("solve-jet", ("problem", "lambda"), 10**400, (),
     "$.problem.lambda: expected a finite number"),
    ("solve-jet", ("problem", "lambda"), {"re": 0.0, "im": 1.0}, (),
     '$.problem.lambda: complex value in a file with "field": "real"'),
    ("solve-jet", ("problem", "lambda"), {"re": 0.0}, (),
     "$.problem.lambda: missing required key 'im'"),
    ("solve-jet", ("problem", "X"), [], (),
     "$.problem.X: X must be a list of 1 component jets"),
    ("solve-jet", ("problem", "A"),
     {"n": 1, "N": 3, "shape": "matrix:2", "terms": []}, (),
     "$.problem.A: A must be matrix:1"),
    ("solve-jet", ("problem", "v"),
     {"n": 1, "N": 3, "shape": "vector:2", "terms": []}, (),
     "$.problem.v: v must be vector:1"),
    ("solve-jet", ("problem", "X", 0), {"n": 1, "N": 0, "terms": []}, (),
     "$.problem: vector field jets need order N >= 1 to carry a linear part"),
    ("solve-jet", ("problem", "X", 0), [], (),
     "$.problem.X[0]: expected an object"),
    ("solve-jet", ("problem", "v", "n"), 2, (),
     "$.problem.v.n: jet must have n=1 variables"),
    ("solve-jet", ("problem", "v", "N"), -1, (),
     "$.problem.v.N: must be >= 0"),
    ("solve-jet", ("problem", "v", "terms"), {}, (),
     "$.problem.v.terms: expected a list of terms"),
    ("solve-jet", ("problem", "v", "terms", 0), "x", (),
     "$.problem.v.terms[0]: expected an object"),
    ("solve-jet", ("problem", "v", "terms", 0, "coeff"), DELETE, (),
     "$.problem.v.terms[0]: missing required key 'coeff'"),
    ("solve-jet", ("problem", "v", "terms", 0, "coeff"), [10**400], (),
     "$.problem.v.terms[0].coeff: expected finite coefficients"),
    ("solve-jet", ("problem", "v", "terms", 0, "coeff"),
     [{"re": 1.0, "im": 1.0}], (),
     '$.problem.v: complex coefficient in a file with "field": "real"'),
    ("solve-grid", ("grid",), DELETE, (), '$: this command needs a "grid" block'),
    ("solve-grid", ("grid", "config"), [], (),
     "$.grid.config: expected an object"),
    ("solve-grid", ("grid", "config", "bogus"), 1, (),
     "$.grid.config: unknown key 'bogus'"),
    ("solve-grid", ("grid", "config", "split_order"), 0, (),
     "$.grid.config: unknown key 'split_order'"),
    ("solve-grid", ("grid", "config", "radius"), True, (),
     "$.grid.config.radius: expected a number"),
    ("solve-grid", ("grid", "points"), [], (),
     "$.grid.points: expected a non-empty list of points"),
    ("solve-grid", ("grid", "points", 0), [0.1, 0.2], (),
     "$.grid.points[0]: expected a point with 1 coordinates"),
    ("solve-grid", ("grid", "points", 0, 0), "x", (),
     "$.grid.points[0][0]: expected a number"),
    ("heat", ("heat",), DELETE, (), '$: this command needs a "heat" block'),
    ("heat", ("heat", "J"), -1, (), "$.heat.J: must be >= 0"),
    ("heat", ("heat", "K", "n"), 1, (),
     "$.heat.K.n: jet must have n=2 variables"),
    ("heat", ("heat", "K", "terms", 0, "coeff"), {"re": 1.0, "im": 1.0}, (),
     '$.heat.K: complex coefficient in a file with "field": "real"'),
    ("heat", ("heat", "points"), DELETE, ("--output", "csv"),
     'csv output needs a "points" list in the heat block'),
    ("wkb", ("bogus",), 1, (), "$: unknown key 'bogus'"),
    ("verify-estimates", ("estimates",), DELETE, (),
     '$: this command needs an "estimates" block'),
    ("verify-estimates", ("estimates", "A0"), "x", (),
     "$.estimates.A0: expected a numeric matrix"),
    ("verify-estimates", ("estimates", "A0"), [[1.0, 2.0]], (),
     "$.estimates.A0: expected a square matrix"),
    ("verify-estimates", ("estimates", "A0"), [[10**400]], (),
     "$.estimates.A0: expected finite matrix entries"),
    ("verify-estimates", ("estimates", "eps"), None, (),
     "$.estimates.eps: expected a number"),
    ("verify-estimates", ("estimates", "mode"), "both", (),
     '$.estimates.mode: mode must be "direct" or "inverse"'),
    ("verify-estimates", ("estimates", "path"), None, (),
     "$.estimates.path: expected an object"),
    ("verify-estimates", ("estimates", "path", "rate"), 0, (),
     "$.estimates.path.rate: rate must be positive (the perturbation is "
     "A0 + exp(rate * t) B for t <= 0)"),
    ("verify-estimates", ("estimates", "path", "B"), [[1.0]], (),
     "$.estimates.path.B: B must match the shape of A0"),
    ("verify-estimates", ("estimates", "path", "t_min"), 0, (),
     "$.estimates.path.t_min: t_min must be negative"),
    ("verify-estimates", ("estimates", "path", "samples"), 1, (),
     "$.estimates.path.samples: must be >= 2"),
    ("sternberg", ("sternberg", "mu"), 1.0, (),
     "$.sternberg.mu: mu must be a list of numbers"),
    ("sternberg", ("sternberg", "mu", 0), [1.0], (),
     "$.sternberg.mu[0]: expected a number"),
]


class TestSchemaValidation:
    def test_unknown_key_reports_path(self, run):
        doc = euler_doc([])
        doc["problem"]["bogus"] = 1
        code, _, err = run("solve-jet", doc)
        assert code == 2
        assert "$.problem" in err

    def test_missing_block(self, run):
        code, _, err = run("wkb", {"schema_version": 1})
        assert code == 2
        assert "wkb" in err

    def test_schema_version_required(self, run):
        code, _, err = run("solve-jet", {"problem": {}})
        assert code == 2

    def test_wrong_schema_version(self, run):
        doc = euler_doc([])
        doc["schema_version"] = 2
        code, _, err = run("solve-jet", doc)
        assert code == 2
        assert "schema_version" in err

    def test_invalid_json_text(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve-jet", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema_version": 1, "field": "r\xe9al"}')
        assert main(["solve-jet", str(path)]) == 2
        assert "$: invalid JSON: 'utf-8' codec" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve-jet", "/nonexistent/problem.json"]) == 2

    def test_complex_lambda_needs_complex_field(self, run):
        doc = euler_doc([], lam={"re": 1.0, "im": 2.0})
        code, _, err = run("solve-jet", doc)
        assert code == 2
        assert "field" in err
        doc["field"] = "complex"
        code, out, _ = run("solve-jet", doc)
        assert code == 0
        assert result_of(out)["resonance"] is None

    def test_real_document_reads_a_zero_imaginary_part(self, run):
        # {"re": 2, "im": 0} is the real 2 in a document of real field
        plain = radial_doc(0.0, [scalar_term((1,), [1.0])])
        plain["problem"]["lambda"] = 2.0
        paired = json.loads(json.dumps(plain))
        paired["problem"]["lambda"] = {"re": 2.0, "im": 0}
        code, out, err = run("solve-jet", paired)
        assert (code, err) == (0, "")
        assert result_of(out) == result_of(run("solve-jet", plain)[1])
        assert result_of(out)["resonance"]["lambda"] == 2.0

    def test_component_count_mismatch(self, run):
        doc = euler_doc([])
        doc["problem"]["X"] = doc["problem"]["X"][:1]
        code, _, err = run("solve-jet", doc)
        assert code == 2
        assert "$.problem.X" in err

    def test_wrong_value_shape(self, run):
        doc = euler_doc([])
        doc["problem"]["v"]["shape"] = "vector:2"
        code, _, err = run("solve-jet", doc)
        assert code == 2
        assert "$.problem.v" in err

    @pytest.mark.parametrize("command", ["solve-jet", "solvable"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_lambda(self, run, command, value):
        code, out, err = run(command, euler_doc([], lam=value))
        assert code == 2
        assert out == ""
        assert "$.problem.lambda: expected a finite number" in err
        assert "Traceback" not in err

    def test_nonfinite_jet_coefficient(self, run):
        doc = euler_doc([scalar_term((2, 0), [float("nan")])])
        code, out, err = run("solve-jet", doc)
        assert code == 2
        assert out == ""
        assert "$.problem.v.terms[0].coeff: expected finite coefficients" in err

    def test_nonfinite_grid_point(self, run):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid={"points": [[0.1], [float("nan")]]})
        code, out, err = run("solve-grid", doc)
        assert code == 2
        assert out == ""
        assert "$.grid.points[1][0]: expected a finite number" in err

    def test_nonfinite_estimates_matrix(self, run):
        doc = {"schema_version": 1,
               "estimates": {"A0": [[1.0, float("inf")], [0.0, 1.0]],
                             "eps": 0.25, "t0": -1.0,
                             "path": {"rate": 1.0}}}
        code, out, err = run("verify-estimates", doc)
        assert code == 2
        assert out == ""
        assert "$.estimates.A0: expected finite matrix entries" in err

    @pytest.mark.parametrize("where", ["t_min", "A0", "coeff"])
    def test_integer_beyond_float_range(self, run, where):
        big = 10**400
        if where == "coeff":
            command = "solve-jet"
            doc = euler_doc([scalar_term((2, 0), [big])])
            path = "$.problem.v.terms[0].coeff: expected finite coefficients"
        else:
            command = "verify-estimates"
            doc = {"schema_version": 1,
                   "estimates": {"A0": [[1.0, 0.0], [0.0, 1.0]], "eps": 0.25,
                                 "t0": -1.0, "path": {"rate": 1.0}}}
            if where == "A0":
                doc["estimates"]["A0"][0][1] = big
                path = "$.estimates.A0: expected finite matrix entries"
            else:
                doc["estimates"]["path"]["t_min"] = -big
                path = "$.estimates.path.t_min: expected a finite number"
        code, out, err = run(command, doc)
        assert code == 2
        assert out == ""
        assert path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag", [
        ("solve-jet", "--tol"), ("solve-jet", "--obstruction-tol"),
        ("spectrum", "--max-re"), ("solve-grid", "--rel-tol"),
        ("solve-grid", "--abs-tol"), ("solve-grid", "--tail-tol"),
        ("solve-grid", "--max-horizon")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_flag(self, run, capsys, command, flag, value):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid={"points": [[0.1]]})
        with pytest.raises(SystemExit) as exc:
            run(command, doc, f"{flag}={value}")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite number" in err
        assert "Traceback" not in err

    def test_non_numeric_flag(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            run("spectrum", euler_doc([]), "--max-re", "abc")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --max-re: expected a finite number, got 'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag", [
        (command, "--tol") for command in (
            "spectrum", "solve-jet", "solve-grid", "kernel", "dual-kernel",
            "solvable", "heat", "wkb", "verify-estimates", "sternberg")]
        + [("solve-jet", "--obstruction-tol")])
    def test_negative_tolerance_flag(self, run, capsys, command, flag):
        # X = y, lambda = 2, v = y: resonant at degree 2 and solvable; a
        # negative tolerance used to hide the resonance or the solvability.
        # The commands that read no tolerance take no --tol at all.
        doc = radial_doc(0.0, [scalar_term((1,), [1.0])])
        doc["problem"]["lambda"] = 2.0
        with pytest.raises(SystemExit) as exc:
            run(command, doc, flag, "-1")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if command in ("solve-grid", "heat", "wkb", "verify-estimates"):
            assert "unrecognized arguments: --tol" in err
        else:
            assert f"argument {flag}: expected a nonnegative number" in err
        assert "Traceback" not in err

    def test_point_dimension_checked(self, run):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid={"points": [[0.1, 0.2]]})
        code, _, err = run("solve-grid", doc)
        assert code == 2
        assert "$.grid.points[0]" in err

    @pytest.mark.parametrize("command,where,value,message", [
        # values JSON has a type for, which used to be truncated or read as 1
        ("solve-jet", ("problem", "v", "terms", 0, "alpha", 0), 1.5,
         "$.problem.v: terms[0].alpha must be a list of integers"),
        ("solve-jet", ("problem", "v", "terms", 0, "alpha", 0), True,
         "$.problem.v: terms[0].alpha must be a list of integers"),
        ("solve-jet", ("problem", "v", "terms", 0, "alpha", 0), [1.0],
         "$.problem.v: terms[0].alpha must be a list of integers"),
        ("solve-jet", ("problem", "v", "terms", 0, "coeff", 0), True,
         "$.problem.v: terms[0].coeff must hold numbers or {re, im} objects"),
        ("verify-estimates", ("estimates", "A0", 0, 1), True,
         "$.estimates.A0: expected a numeric matrix"),
        ("verify-estimates", ("estimates", "A0", 0, 1), "1.5",
         "$.estimates.A0: expected a numeric matrix"),
        ("solve-jet", ("schema_version",), True,
         "$.schema_version: unsupported schema_version (expected 1)"),
        # sizes that used to reach an allocation or a long computation
        ("solve-jet", ("problem", "v", "N"), 2_000_000,
         "$.problem.v: the jet needs more than 1048576 coefficients"),
        ("solve-jet", ("problem", "N"), 2_000_000,
         "$.problem.N: needs more than 1048576 coefficients at this order"),
        ("verify-estimates", ("estimates", "path", "samples"), 10**12,
         "$.estimates.path.samples: must be <= 262144"),
        ("heat", ("heat", "N"), 67, "$.heat.N: must be <= 66"),
        ("wkb", ("wkb", "N"), 3000, "$.wkb.N: must be <= 66"),
        ("sternberg", ("sternberg", "mu"), [], "$.sternberg.mu: mu must not be empty"),
        # nesting that used to exhaust the interpreter stack
        ("solve-jet", ("problem", "v", "terms", 0, "coeff"),
         json.loads("[" * 600 + "1.0" + "]" * 600),
         "$.problem.v.terms[0].coeff: expected a scalar, vector or matrix"),
        # a repeated multi-index used to keep the last term silently
        ("solve-jet", ("problem", "v", "terms"),
         [scalar_term((2,), [1.0]), scalar_term((2,), [5.0])],
         "$.problem.v: terms[1].alpha repeats the multi-index of terms[0]"),
    ])
    def test_rejected_at_the_schema(self, run, command, where, value, message):
        doc = single_fault(command, where, value)
        code, out, err = run(command, doc)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command,where,value,flags,message", GOLDEN)
    def test_golden_message(self, run, command, where, value, flags, message):
        doc = single_fault(command, where, value)
        code, out, err = run(command, doc, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSpectrum:
    def test_euler_multiplicities(self, run):
        code, out, _ = run("spectrum", euler_doc([]), "--max-re", "2")
        assert code == 0
        table = result_of(out)["eigenvalues"]
        assert [e["re"] for e in table] == [0.0, 1.0, 2.0]
        assert [e["multiplicity"] for e in table] == [1, 2, 3]
        assert table[2]["representations"][0]["alpha"] == [2, 0]

    def test_gradient_field_cluster(self, run):
        jet = lambda terms, shape: {"n": 2, "N": 3, "shape": shape,
                                    "terms": terms}
        doc = {
            "schema_version": 1,
            "problem": {
                "n": 2, "m": 1, "N": 3,
                "X": [jet([scalar_term((1, 0), 1.0),
                           scalar_term((1, 1), 2.0)], "scalar"),
                      jet([scalar_term((2, 0), 1.0),
                           scalar_term((0, 1), 2.0)], "scalar")],
                "A": jet([], "matrix:1"),
                "v": jet([], "vector:1"),
                "lambda": 0.0,
            },
        }
        code, out, _ = run("spectrum", doc, "--max-re", "2.5")
        assert code == 0
        table = {e["re"]: e for e in result_of(out)["eigenvalues"]}
        assert table[2.0]["multiplicity"] == 2
        reps = [tuple(r["alpha"]) for r in table[2.0]["representations"]]
        assert reps == [(0, 1), (2, 0)]  # graded-lex within the cluster

    def test_csv_output(self, run):
        code, out, _ = run("spectrum", euler_doc([]), "--max-re", "1",
                        "--output", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "re,im,multiplicity,representations"
        assert len(lines) == 3

    def test_rejects_nonpositive_source(self, run):
        doc = euler_doc([])
        doc["problem"]["X"][0]["terms"] = [scalar_term((1, 0), -1.0)]
        code, _, err = run("spectrum", doc)
        assert code == 2


class TestSolveJet:
    def test_euler_quadratic(self, run):
        code, out, _ = run("solve-jet", euler_doc([scalar_term((2, 0), [1.0])]))
        assert code == 0
        res = result_of(out)
        assert res["solvable"] is True
        assert res["resonance"]["multiplicity"] == 1
        assert res["particular"]["terms"] == [
            {"alpha": [2, 0], "coeff": [0.5]}]
        assert len(res["kernel"]) == 1

    def test_particular_round_trips(self, run):
        code, out, _ = run("solve-jet", euler_doc([scalar_term((2, 0), [1.0])]))
        u = jet_from_json(result_of(out)["particular"])
        v = Jet.zero(2, 3, (1,)).coeffs.copy()
        v[monomial_rank(2, 3)[(2, 0)]] = 1.0
        p = ProblemData(VectorFieldJet.euler(2, 3), Jet.zero(2, 3, (1, 1)),
                        Jet(2, 3, v), 0.0, 3)
        direct = solve_to_order(p, 3).particular
        assert np.allclose(u.coeffs, direct.coeffs)

    def test_unsolvable_exits_4_with_report(self, run):
        code, out, _ = run("solve-jet", euler_doc([scalar_term((0, 0), [1.0])]))
        assert code == 4
        res = result_of(out)
        assert res["solvable"] is False
        assert res["particular"] is None
        assert res["obstructions"] == [1.0]

    def test_order_flag(self, run):
        code, out, _ = run("solve-jet", euler_doc([scalar_term((2, 0), [1.0])]),
                        "--order", "5")
        assert code == 0
        assert result_of(out)["order"] == 5

    def test_a_singular_slice_exits_3_naming_its_degree(self, run):
        # y u' + A u = v with A(0) = [[1, 2], [2, 4]] at lambda = 0: --tol 0
        # misses the eigenvalue 0 of A(0) by rounding, so the degree-0
        # slice A(0) is factored, and its second pivot is exactly zero
        jet = lambda terms, shape: {"n": 1, "N": 3, "shape": shape,
                                    "terms": terms}
        doc = {"schema_version": 1, "problem": {
            "n": 1, "m": 2, "N": 3, "lambda": 0.0,
            "X": [jet([scalar_term((1,), 1.0)], "scalar")],
            "A": jet([scalar_term((0,), [[1.0, 2.0], [2.0, 4.0]])],
                     "matrix:2"),
            "v": jet([scalar_term((0,), [1.0, 1.0])], "vector:2")}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run("solve-jet", doc, "--tol", "0")
        assert (code, out) == (3, "")
        assert err == ("error: the degree-0 slice is singular: pivot 2 is "
                       "exactly zero\n")
        assert not [w for w in caught if w.category is LinAlgWarning]


class TestOverflowingJetSolve:
    """A jet solve whose operator, right-hand side or solution overflows
    exits 3, or fails each row of solve-grid, with no warning and no
    traceback."""

    @staticmethod
    def doc(x2):
        """X = y + x2 y^2, A = 2 + 1e300 y, v = 1 + 1e300 y, lambda = 0."""
        jet = lambda terms, shape: {"n": 1, "N": 6, "shape": shape,
                                    "terms": terms}
        return {"schema_version": 1, "problem": {
            "n": 1, "m": 1, "N": 6, "lambda": 0.0,
            "X": [jet([scalar_term((1,), 1.0), scalar_term((2,), x2)],
                      "scalar")],
            "A": jet([scalar_term((0,), [[2.0]]),
                      scalar_term((1,), [[1e300]])], "matrix:1"),
            "v": jet([scalar_term((0,), [1.0]), scalar_term((1,), [1e300])],
                     "vector:1")},
            "grid": {"points": [[1e-3], [-2e-3]]}}

    # at 1e300 the degree-2 right-hand side overflows; at 1.5e308 so does
    # 2 x2, an entry of the degree-3 slice
    CASES = pytest.mark.parametrize("x2,message", [
        (1e300, "the degree-2 right-hand side is not finite"),
        (1.5e308, "the degree-3 slice of the operator is not finite"),
    ], ids=["rhs", "slice"])

    @CASES
    @pytest.mark.parametrize("command", ["solve-jet", "kernel"])
    def test_exits_3(self, run, command, x2, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(command, self.doc(x2))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_an_overflow_in_the_last_degree_exits_3(self, run):
        # y u' = (1 + 1e-5) u + 1e305 y: u = -1e310 y overflows in the last
        # slice solve, where no later right-hand side would see it
        jet = lambda terms, shape: {"n": 1, "N": 1, "shape": shape,
                                    "terms": terms}
        doc = {"schema_version": 1, "problem": {
            "n": 1, "m": 1, "N": 1, "lambda": 1 + 1e-5,
            "X": [jet([scalar_term((1,), 1.0)], "scalar")],
            "A": jet([], "matrix:1"),
            "v": jet([scalar_term((1,), [1e305])], "vector:1")}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("solve-jet", doc)
        assert (code, out) == (3, "")
        assert err == "error: the order-1 solution is not finite\n"

    @CASES
    def test_solve_grid_fails_each_row(self, run, x2, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("solve-grid", self.doc(x2), "--output",
                                 "json")
        assert (code, err) == (0, "")
        assert [(row["u"], row["error"]) for row in result_of(out)[
            "points"]] == [(None, message)] * 2


class TestSolveGrid:
    def grid(self, **config):
        return {"points": [[0.1], [0.5], [1.0]], "config": config}

    def test_direct_closed_form(self, run):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid=self.grid(rel_tol=1e-10))
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        for row in result_of(out)["points"]:
            y = row["point"][0]
            assert row["mode"] == "direct"
            assert row["error"] is None
            assert abs(row["u"][0] - y * y / 3.0) < 1e-8

    def test_split_closed_form(self, run):
        doc = radial_doc(-0.5, [scalar_term((2,), [1.0])],
                         grid=self.grid(rel_tol=1e-10))
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        for row in result_of(out)["points"]:
            y = row["point"][0]
            assert row["mode"] == "split"
            assert abs(row["u"][0] - y * y / 1.5) < 1e-8

    def test_a_split_past_max_order_is_an_error_row(self, run):
        # A = -64.5 needs split order 65: every row says so, where a bare
        # ValueError used to end the command with a traceback (exit 1)
        doc = radial_doc(-64.5, [scalar_term((2,), [1.0])], grid=self.grid())
        code, out, err = run("solve-grid", doc, "--output", "json")
        assert (code, err) == (0, "")
        assert [row["error"] for row in result_of(out)["points"]] == \
            ["requested order 65 exceeds the solver cap 64"] * 3

    def test_csv_shape(self, run):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid=self.grid())
        code, out, _ = run("solve-grid", doc)
        assert code == 0
        comments = [l for l in out.splitlines() if l.startswith("#")]
        assert any("input_sha256" in l for l in comments)
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0].split(",")[:2] == ["y0", "u0"]
        assert len(rows) == 4

    def test_a_start_that_is_not_finite_fails_its_row_only(self, run):
        # v = y^2 - y^3 is inf - inf at 1e200, with no radius to refuse the
        # point: its row fails, the other row is that of its point alone,
        # and nothing reaches stderr
        v = [scalar_term((2,), [1.0]), scalar_term((3,), [-1.0])]
        both = radial_doc(1.0, v, grid={"points": [[0.5], [1e200]]})
        code, out, err = run("solve-grid", both, "--output", "json")
        assert (code, err) == (0, "")
        good, bad = result_of(out)["points"]
        assert bad["error"] == "integrator failed: the integrand is not finite"
        alone = radial_doc(1.0, v, grid={"points": [[0.5]]})
        (row,) = result_of(run("solve-grid", alone, "--output", "json")[1])[
            "points"]
        assert good == row

    def test_a_split_head_that_overflows_fails_its_row_only(self, run):
        # A = -2.5 splits at order 3, whose head -2 y^2 - 2 y^3 overflows at
        # 1e200 with no radius to refuse the point: its row fails, the other
        # row is that of its point alone, and nothing reaches stderr
        v = [scalar_term((2,), [1.0]), scalar_term((3,), [-1.0])]
        both = radial_doc(-2.5, v, grid={"points": [[0.5], [1e200]]})
        code, out, err = run("solve-grid", both, "--output", "json")
        assert (code, err) == (0, "")
        good, bad = result_of(out)["points"]
        assert bad["error"] == "u is not finite: the split head overflows at this point"
        alone = radial_doc(-2.5, v, grid={"points": [[0.5]]})
        (row,) = result_of(run("solve-grid", alone, "--output", "json")[1])[
            "points"]
        assert good == row

    def test_stiff_polynomial_field_is_accepted(self, run):
        # X = y + 1e9 y^3: the sampler is the document's own polynomial, so
        # no finite-difference check may refuse it; inside the radius of
        # convergence (about 3e-5) the order-7 jet solution is accurate
        grid = {"points": [[3e-6], [-2e-6], [1e-6]],
                "config": {"radius": 1e-4, "rel_tol": 1e-10,
                           "abs_tol": 1e-20, "tail_tol": 1e-18}}
        doc = radial_doc(1.0, [scalar_term((1,), [1.0])], N=7, grid=grid)
        doc["problem"]["X"][0]["terms"].append(scalar_term((3,), 1e9))
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        X = VectorFieldJet([Jet.from_terms(1, 7, {(1,): 1.0, (3,): 1e9})])
        p = ProblemData(X, Jet.constant(1, 7, np.eye(1)),
                        Jet.from_terms(1, 7, {(1,): [1.0]}, shape=(1,)),
                        0.0, 7)
        jet_u = solve_to_order(p, 7).particular
        for row in result_of(out)["points"]:
            assert row["mode"] == "direct"
            expected = jet_u.evaluate(np.array(row["point"]))[0]
            assert row["u"][0] == pytest.approx(expected, rel=1e-8)

    def test_resonant_point_gives_the_family_member(self, run):
        # y u' - u = y^2 at lambda = 0 is resonant at degree 1 with
        # solutions y^2 + c y; the minimum-norm head picks c = 0
        doc = radial_doc(-1.0, [scalar_term((2,), [1.0])],
                         grid=self.grid(rel_tol=1e-10))
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        for row in result_of(out)["points"]:
            y = row["point"][0]
            assert (row["mode"], row["error"]) == ("split", None)
            assert abs(row["u"][0] - y * y) < 1e-8

    def test_flag_overrides_file_config(self, run):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid=self.grid(max_horizon=200.0))
        code, out, _ = run("solve-grid", doc, "--output", "json",
                        "--max-horizon", "3.0")
        assert code == 0
        for row in result_of(out)["points"]:
            assert row["horizon"] >= -3.0

    @pytest.mark.parametrize("key,value", [
        ("rel_tol", 0.0), ("abs_tol", -1.0), ("abs_tol", 0.0), ("tail_tol", 0.0),
        ("max_horizon", 0.0), ("max_horizon", -3.0), ("max_horizon", 1e-300),
        ("max_horizon", 1e-200), ("max_horizon", 1.0), ("rel_tol", 1e-20)])
    @pytest.mark.parametrize("where", ["flag", "document"])
    def test_bad_config_value_exits_2(self, run, key, value, where):
        # a max_horizon below 2 ends every point before its earliest stop
        if where == "flag":
            doc = radial_doc(1.0, [scalar_term((2,), [1.0])], grid=self.grid())
            flags = (f"--{key.replace('_', '-')}={value}",)
        else:
            doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                             grid=self.grid(**{key: value}))
            flags = ()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run("solve-grid", doc, *flags)
        assert code == 2
        assert out == ""
        assert f"error: {key} must be" in err
        assert "Traceback" not in err
        assert "UserWarning" not in err
        assert not [w for w in caught if issubclass(w.category, UserWarning)]

    def test_problem_prepared_once_per_document(self, run, monkeypatch):
        calls = {"solve_to_order": 0, "resonance_degree": 0}
        for module, name in ((flow, "solve_to_order"),
                             (taylor, "resonance_degree")):
            def counting(*args, _name=name, _fn=getattr(module, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(module, name, counting)
        # each document, direct or split, makes one jet solve for the
        # closure, which enumerates the resonances once
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])], grid=self.grid())
        code, out, _ = run("solve-grid", doc, "--output", "json")
        rows = result_of(out)["points"]
        assert code == 0 and [r["mode"] for r in rows] == ["direct"] * 3
        assert calls == {"solve_to_order": 1, "resonance_degree": 1}
        doc = radial_doc(-0.5, [scalar_term((2,), [1.0])], grid=self.grid())
        code, out, _ = run("solve-grid", doc, "--output", "json")
        rows = result_of(out)["points"]
        assert code == 0 and [r["mode"] for r in rows] == ["split"] * 3
        assert calls == {"solve_to_order": 2, "resonance_degree": 2}
        # each row is bit for bit one plan evaluated on the document's
        # points; the points share solvers, so against evaluate_solution at
        # each point mode and split_order are equal and u agrees to
        # rel_tol max(1, |u|) (measured: 9.6e-14)
        p = ProblemData(VectorFieldJet.euler(1, 4),
                        Jet.constant(1, 4, np.array([[-0.5]])),
                        Jet.from_terms(1, 4, {(2,): [1.0]}, shape=(1,)), 0.0, 4)
        f = FieldSampler.from_problem(p)
        cfg = flow.EvalConfig()
        results = flow._plan(f, p, cfg)([row["point"] for row in rows])
        for row, res in zip(rows, results):
            assert row["u"] == res.u.tolist() and res.n_points == 3
            assert [row[k] for k in ("tail_estimate", "horizon")] == \
                [float(res.tail_estimate), res.horizon]
            alone = evaluate_solution(f, p, row["point"])
            assert (row["mode"], row["split_order"]) == \
                (alone.mode, alone.split_order) == ("split", res.split_order)
            tol = cfg.rel_tol * max(1.0, float(np.max(np.abs(alone.u))))
            assert np.max(np.abs(res.u - alone.u)) <= tol

    def test_one_point_leaving_the_region_mid_flight(self, run):
        # X = y + y^2: the backward flow from -1.5 crosses |y| = 3 at
        # t = -ln 2, after the point passed the radius check; 0.3 and -0.5
        # flow into the source.  Their rows agree with a run without -1.5
        # to rel_tol max(1, |u|) (measured: 1.9e-13)
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid={"points": [[0.3], [-1.5], [-0.5]],
                               "config": {"radius": 3.0}})
        doc["problem"]["X"][0]["terms"].append(scalar_term((2,), 1.0))
        code, out, _ = run("solve-grid", doc, "--output", "json")
        rows = result_of(out)["points"]
        assert code == 0 and rows[1]["u"] is None
        prefix = "trajectory left the declared region of radius 3 at t = "
        assert rows[1]["error"].startswith(prefix)
        assert float(rows[1]["error"][len(prefix):]) < -math.log(2.0)
        doc["grid"]["points"] = [[0.3], [-0.5]]
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        for row, ref in zip(rows[::2], result_of(out)["points"]):
            assert (row["error"], row["mode"]) == (None, "direct")
            tol = 1e-9 * max(1.0, abs(ref["u"][0]))
            assert abs(row["u"][0] - ref["u"][0]) <= tol

    @pytest.mark.parametrize("contracting", [False, True])
    def test_problem_error_in_each_row_after_its_own_checks(
            self, run, contracting):
        # X = y, A = -1, lambda = 0 is resonant at degree 1, where v = y is
        # obstructed; X = -y has no expanding source
        doc = radial_doc(-1.0, [scalar_term((1,), [1.0])],
                         grid=self.grid(radius=0.7))
        if contracting:
            doc["problem"]["X"][0]["terms"][0]["coeff"] = -1.0
            message = ("flow evaluation needs an expanding source: "
                       "min Re mu = -1 for the linearization of X")
        else:
            message = ("lambda = 0 is resonant and v is obstructed: "
                       "dual kernel pairings 1")
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        assert [(r["u"], r["error"]) for r in result_of(out)["points"]] == [
            (None, message), (None, message),
            (None, "evaluation point outside the declared region")]

    @pytest.mark.parametrize("a", [1.0, -0.5], ids=["direct", "split"])
    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_non_expanding_source_is_an_error_row(self, run, x, a):
        doc = radial_doc(a, [scalar_term((2,), [1.0])], grid=self.grid())
        doc["problem"]["X"][0]["terms"][0]["coeff"] = x
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        for row in result_of(out)["points"]:
            assert (row["u"], row["mode"]) == (None, None)
            assert row["error"] == ("flow evaluation needs an expanding "
                                    f"source: min Re mu = {x:g} for the "
                                    "linearization of X")

    @pytest.mark.parametrize("via_flag", [False, True])
    def test_a_short_max_horizon_ends_rows_with_their_estimates(
            self, tmp_path, capfd, via_flag):
        # the golden grid's points close near t = -7.5 and -8.0; stopped at
        # max_horizon = 3 with their closure estimates above tail_tol, they
        # end with errors that name the estimates
        doc = json.loads((Path(__file__).parent / "data" / "cli_golden"
                          / "grid.json").read_text())
        flags = ["--max-horizon", "3"] if via_flag else []
        if not via_flag:
            doc["grid"]["config"]["max_horizon"] = 3.0
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        code = main(["solve-grid", str(path), "--no-timestamp", "--output",
                     "json", *flags])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        rows = result_of(out)["points"]
        pattern = r"the jet closure estimate (\S+) is above tail_tol at t = -3\.0"
        for row in rows[:2]:
            assert (row["u"], row["tail_estimate"], row["horizon"]) == (None,) * 3
            assert float(re.fullmatch(pattern, row["error"])[1]) > 1e-12
        assert rows[2]["error"] == "evaluation point outside the declared region"

    def test_tiny_tolerances_fail_in_their_rows(self, capfd):
        # at abs_tol = tail_tol = 1e-300 DOP853's step size underflows; the
        # overflows on the way are no numpy warnings, so nothing reaches
        # stderr and the suite's error::RuntimeWarning filter raises nothing
        path = Path(__file__).parent / "data" / "cli_golden" / "grid.json"
        code = main(["solve-grid", str(path), "--no-timestamp", "--output",
                     "json", "--abs-tol", "1e-300", "--tail-tol", "1e-300"])
        out, err = capfd.readouterr()
        assert (code, err) == (0, "")
        assert [r["error"] for r in result_of(out)["points"]] == 2 * [
            "integrator failed: Required step size is less than spacing "
            "between numbers."] + [
            "evaluation point outside the declared region"]

    def test_grid_block_required(self, run):
        code, _, err = run("solve-grid", radial_doc(1.0, []))
        assert code == 2
        assert "grid" in err


class TestKernelCommands:
    def test_kernel_constants(self, run):
        # the kernel is the same whether v is zero or obstructed
        for v_terms in ([], [scalar_term((0, 0), [1.0])]):
            code, out, _ = run("kernel", euler_doc(v_terms))
            assert code == 0
            res = result_of(out)
            assert res["dimension"] == 1
            assert res["kernel"][0]["terms"] == [
                {"alpha": [0, 0], "coeff": [1.0]}]

    def test_dual_kernel_delta_form(self, run):
        code, out, _ = run("dual-kernel", euler_doc([]))
        assert code == 0
        res = result_of(out)
        assert res["dimension"] == 1
        assert res["duals"][0]["delta_form"] == [
            {"alpha": [0, 0], "covector": [1.0]}]

    def test_solvable_both_ways_exit_zero(self, run):
        code, out, _ = run("solvable", euler_doc([scalar_term((2, 0), [1.0])]))
        assert code == 0
        assert result_of(out)["solvable"] is True
        code, out, _ = run("solvable", euler_doc([scalar_term((0, 0), [1.0])]))
        assert code == 0
        res = result_of(out)
        assert res["solvable"] is False
        assert res["obstructions"] == [1.0]

    def test_solvable_and_solve_jet_share_the_resonance_tolerance(self, run):
        # y u' = 2.0005 u + y^2: at --tol 1e-3 lambda is the degree-2
        # resonance and v = y^2 is obstructed; at the default it is not
        doc = radial_doc(0.0, [scalar_term((2,), [1.0])])
        doc["problem"]["lambda"] = 2.0005
        for flags, obstructions in [((), []), (("--tol", "1e-3"), [1.0])]:
            code, out, _ = run("solve-jet", doc, *flags)
            jet = result_of(out)
            assert code == (4 if obstructions else 0)
            code, out, _ = run("solvable", doc, *flags)
            assert code == 0
            assert result_of(out) == {"solvable": jet["solvable"],
                                      "obstructions": jet["obstructions"]}
            assert jet["obstructions"] == obstructions

    def test_nonresonant_kernel_empty(self, run):
        code, out, _ = run("kernel", euler_doc([], lam=0.5))
        assert code == 0
        assert result_of(out)["dimension"] == 0


class TestHeat:
    def doc(self, **extra):
        heat = {
            "n": 2, "m": 1, "J": 2, "N": 7,
            "K": {"n": 2, "N": 7, "shape": "scalar",
                  "terms": [scalar_term((2, 0), 1.0)]},
        }
        heat.update(extra)
        return {"schema_version": 1, "heat": heat}

    def test_first_coefficient(self, run):
        code, out, _ = run("heat", self.doc())
        assert code == 0
        coeffs = result_of(out)["coefficients"]
        assert len(coeffs) == 3
        assert coeffs[0]["terms"] == [{"alpha": [0, 0], "coeff": [[1.0]]}]
        assert coeffs[1]["terms"] == [
            {"alpha": [2, 0], "coeff": [[-1.0 / 3.0]]}]

    def test_numeric_points(self, run):
        code, out, _ = run("heat", self.doc(points=[[0.3, -0.2]]))
        assert code == 0
        vals = result_of(out)["numeric"][0]["values"]
        assert abs(vals[1][0][0] + 0.03) < 1e-10

    def test_csv_needs_points(self, run):
        code, _, err = run("heat", self.doc(), "--output", "csv")
        assert code == 2

    def test_csv_table(self, run):
        code, out, _ = run("heat", self.doc(points=[[0.3, -0.2]]),
                        "--output", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "q0,q1,j,phi_00"
        assert len(rows) == 4

    def test_several_points_match_the_api(self, run):
        points = [[0.3, -0.2], [-0.5, 0.1], [0.0, 0.8]]
        h = HeatProblem(n=2, m=1, K=Jet.from_terms(2, 7, {(2, 0): 1.0}), J=2,
                        N=7)
        want = [heat_coefficients_numeric(h, np.array(q)) for q in points]
        code, out, _ = run("heat", self.doc(points=points))
        assert code == 0
        numeric = result_of(out)["numeric"]
        assert [e["point"] for e in numeric] == points
        assert [e["values"] for e in numeric] == [[v.tolist() for v in vals]
                                                  for vals in want]
        code, out, _ = run("heat", self.doc(points=points), "--output", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows == [",".join(map(str, q + [j, float(v[0, 0])]))
                        for q, vals in zip(points, want)
                        for j, v in enumerate(vals)]

    def test_one_bad_point_exits_3(self, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("heat", self.doc(points=[[0.3, -0.2], [1e200, 0.0],
                                                          [0.1, 0.1]]))
        assert code == 3 and out == ""
        assert err == "error: Phi_1 is not finite at the point [1e+200, 0.0]\n"

    def test_the_ladder_is_built_once_per_call(self, run, monkeypatch):
        # one ladder serves the coefficients and the values of all points,
        # so L is applied J times; the per-point loop applied it J (2 P + 1)
        # times, and a ladder for each of the two, 2 J
        calls = []

        def counted(K, Phi):
            calls.append(1)
            return apply_L(K, Phi)

        apply_L = applications._apply_L
        monkeypatch.setattr(applications, "_apply_L", counted)
        points = [[0.1 * k, -0.2] for k in range(5)]
        code, _, _ = run("heat", self.doc(points=points))
        assert code == 0 and len(calls) == 2  # J = 2

    def test_budget_violation_exits_2(self, run):
        code, _, err = run("heat", self.doc(N=3))
        assert code == 2

    def test_quad_tol_is_an_unknown_key(self, run):
        # the quadrature rule is exact, so it has no tolerance to set
        code, out, err = run("heat", self.doc(points=[[0.3, -0.2]],
                                              quad_tol=1e-10))
        assert code == 2 and out == ""
        assert err == "error: $.heat: unknown key 'quad_tol'\n"

    @staticmethod
    def doc_1d(K_terms, J, N, points=None):
        heat = {"n": 1, "m": 1, "J": J, "N": N,
                "K": {"n": 1, "N": N, "shape": "scalar",
                      "terms": [scalar_term(a, c) for a, c in K_terms]}}
        if points is not None:
            heat["points"] = points
        return {"schema_version": 1, "heat": heat}

    # the golden heat block at a point of 1e200, and K = 1e200 + y^2, whose
    # Phi_2 coefficients overflow
    @pytest.mark.parametrize("args,message", [
        (([((2,), 1.0), ((3,), 0.2)], 1, 4, [[1e200]]),
         "Phi_1 is not finite at the point [1e+200]"),
        (([((0,), 1e200), ((2,), 1.0)], 2, 5),
         "Phi_2 is not finite: the ladder overflows"),
    ], ids=["point", "potential"])
    def test_overflow_in_the_ladder_exits_3(self, run, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("heat", self.doc_1d(*args))
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"


class TestWKB:
    def doc(self, quartic=0.0, level=0):
        terms = [scalar_term((2,), 1.0)]
        if quartic:
            terms.append(scalar_term((4,), quartic))
        return {
            "schema_version": 1,
            "wkb": {
                "level": level, "J": 2, "N": 8,
                "V": {"n": 1, "N": 8, "shape": "scalar", "terms": terms},
            },
        }

    def test_harmonic_series(self, run):
        code, out, _ = run("wkb", self.doc(level=1))
        assert code == 0
        res = result_of(out)
        assert res["mu"] == 1.0
        assert res["level"] == 1
        assert abs(res["lambda"][0] - 3.0) < 1e-12
        assert all(abs(l) < 1e-10 for l in res["lambda"][1:])
        assert len(res["a"]) == 3

    def test_quartic_first_correction(self, run):
        code, out, _ = run("wkb", self.doc(quartic=0.1))
        assert code == 0
        lam = result_of(out)["lambda"]
        assert abs(lam[1] - 0.075) < 1e-10

    def test_csv_lists_corrections(self, run):
        code, out, _ = run("wkb", self.doc(), "--output", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "j,lambda_j"
        assert len(rows) == 4

    def test_degenerate_minimum_exits_2(self, run):
        doc = self.doc()
        doc["wkb"]["V"]["terms"] = [scalar_term((4,), 1.0)]
        code, _, err = run("wkb", doc)
        assert code == 2


class TestVerifyEstimates:
    def doc(self, mode="direct", B=None, eps=0.25, t0=-1.0):
        est = {
            "A0": [[1.0, 1.0], [0.0, 1.0]],
            "eps": eps, "t0": t0, "mode": mode,
            "path": {"rate": 1.0, "t_min": -12.0, "samples": 61},
        }
        if B is not None:
            est["path"]["B"] = B
        return {"schema_version": 1, "estimates": est}

    def test_constant_path_direct(self, run):
        code, out, _ = run("verify-estimates", self.doc())
        assert code == 0
        res = result_of(out)
        assert res["kind"] == "direct"
        assert res["violated"] is False
        assert abs(res["M"] - 1.569775307914901) < 1e-9
        assert len(res["samples"]) == 61

    def test_decaying_perturbation(self, run):
        code, out, _ = run("verify-estimates",
                        self.doc(B=[[0.02, 0.0], [0.01, -0.02]]))
        assert code == 0
        res = result_of(out)
        assert res["violated"] is False
        assert all(s["measured"] <= s["bound"] for s in res["samples"])

    def test_inverse_mode(self, run):
        code, out, _ = run("verify-estimates", self.doc(mode="inverse"))
        assert code == 0
        res = result_of(out)
        assert res["kind"] == "inverse"
        assert res["violated"] is False

    def test_hypothesis_violation_exits_3(self, run):
        code, _, err = run("verify-estimates",
                           self.doc(B=[[10.0, 0.0], [0.0, 10.0]]))
        assert code == 3
        assert "not below" in err

    def test_csv_samples(self, run):
        code, out, _ = run("verify-estimates", self.doc(), "--output", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "t,measured,bound"
        assert len(rows) == 62
        assert "# tolerances: ode_abs_tol=1e-13 ode_rel_tol=1e-10\n" in out

    @pytest.mark.parametrize("mode", ["direct", "inverse"])
    @pytest.mark.parametrize("est", [
        # C = M M exp(-t0 M sup|A - A0|) overflows: sup|A - A0| = 1e3
        {"A0": [[1.0]], "eps": 0.5, "t0": -1.0,
         "path": {"rate": 100.0, "B": [[1e3]], "t_min": -10.0,
                  "samples": 11}},
        # the envelope and the transition norm overflow by t = -15
        {"A0": [[-100.0]], "eps": 0.5, "t0": -1.0,
         "path": {"rate": 1.0, "B": [[0.0]]}}], ids=["C", "envelope"])
    def test_overflow_exits_3(self, run, est, mode):
        est = dict(est, mode=mode)
        code, _, err = run("verify-estimates",
                           {"schema_version": 1, "estimates": est})
        assert code == 3
        assert "not finite" in err
        assert "Traceback" not in err

    def test_nonnegative_rate_rejected(self, run):
        doc = self.doc()
        doc["estimates"]["path"]["rate"] = -1.0
        code, _, err = run("verify-estimates", doc)
        assert code == 2
        assert "$.estimates.path.rate" in err


    @pytest.mark.parametrize("case", range(4))
    def test_matches_recorded_output(self, run, case):
        # Recorded before M came from the Gram-based norm of one shared
        # eigendecomposition: two criterion-06 families (perfbench/recipes.py
        # estimate_family), each direct and inverse.  The transition norms
        # are untouched; M, C and the bounds may move in their last bits.
        path = Path(__file__).parent / "data" / "verify_estimates_parent.json"
        recorded = json.loads(path.read_text())[case]
        code, out, _ = run("verify-estimates", recorded["document"])
        assert code == recorded["exit_code"] == 0
        res, old = result_of(out), recorded["output"]["result"]
        for key in ("violated", "kind", "ell", "eps", "t0"):
            assert res[key] == old[key]
        for key in ("M", "C"):
            assert res[key] == pytest.approx(old[key], rel=1e-15, abs=0.0)
        assert len(res["samples"]) == len(old["samples"])
        for got, want in zip(res["samples"], old["samples"]):
            assert (got["t"], got["measured"]) == (want["t"], want["measured"])
            assert got["bound"] == pytest.approx(want["bound"], rel=1e-15,
                                                 abs=0.0)

class TestSternberg:
    def test_explicit_spectrum(self, run):
        doc = {"schema_version": 1, "sternberg": {"mu": [1.0, 2.0]}}
        code, out, _ = run("sternberg", doc)
        assert code == 0
        res = result_of(out)
        assert res["resonance_free"] is False
        assert res["violations"] == [{"alpha": [2, 0], "j": 1}]

    def test_resonance_free_spectrum(self, run):
        doc = {"schema_version": 1, "sternberg": {"mu": [1.0, 2.5]}}
        code, out, _ = run("sternberg", doc)
        assert code == 0
        assert result_of(out)["resonance_free"] is True

    def test_many_equal_frequencies(self, run):
        # every coincidence mu_j = mu_i has degree 1, so 300 equal entries
        # are resonance free
        doc = {"schema_version": 1, "sternberg": {"mu": [1.0] * 300}}
        code, out, _ = run("sternberg", doc)
        assert code == 0
        assert result_of(out)["resonance_free"] is True

    def test_spectrum_from_problem_field(self, run):
        code, out, _ = run("sternberg", euler_doc([]))
        assert code == 0
        res = result_of(out)
        assert res["mu"] == [1.0, 1.0]
        assert res["resonance_free"] is True


class TestResourceCeilings:
    """Inputs that pass the schema but would build more than MAX_COEFFS
    index triples or multi-indices exit 2 before allocating them."""

    TABLE = ("the product table of 3-variable jets of order 27 needs more "
             "than 1048576 index triples")

    @staticmethod
    def euler3_doc(N, a=1.0):
        """y . grad u + a u = y1^2 in three variables, at order N."""
        jet = lambda terms, shape: {"n": 3, "N": N, "shape": shape,
                                    "terms": terms}
        X = [jet([scalar_term(tuple(int(i == j) for j in range(3)), 1.0)],
                 "scalar") for i in range(3)]
        return {"schema_version": 1, "problem": {
            "n": 3, "m": 1, "N": N, "lambda": 0.0, "X": X,
            "A": jet([scalar_term((0, 0, 0), [[a]])], "matrix:1"),
            "v": jet([scalar_term((2, 0, 0), [1.0])], "vector:1")}}

    def test_solve_jet_product_table(self, run):
        code, out, err = run("solve-jet", self.euler3_doc(27))
        assert (code, out, err) == (2, "", f"error: {self.TABLE}\n")

    def test_solve_grid_keeps_the_error_in_its_row(self, run):
        # a = -1/2 splits off a head of order 1, and the remainder is
        # computed at order 26 + 1
        doc = self.euler3_doc(26, a=-0.5)
        doc["grid"] = {"points": [[0.1, 0.0, 0.0]]}
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        (row,) = result_of(out)["points"]
        assert (row["u"], row["error"]) == (None, self.TABLE)

    def test_solve_grid_direct_mode_past_the_product_table(self, run):
        # the jet that closes the flow integral is solved at order 8, not
        # at the document's 27; u = y1^2 / 3
        doc = self.euler3_doc(27)
        doc["grid"] = {"points": [[0.1, 0.0, 0.0], [0.2, -0.1, 0.3]]}
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        rows = result_of(out)["points"]
        assert [(r["error"], r["mode"]) for r in rows] == [(None, "direct")] * 2
        assert [r["u"] for r in rows] == [pytest.approx([0.01 / 3], abs=1e-12),
                                          pytest.approx([0.04 / 3], abs=1e-12)]

    def test_heat_monomial_table(self, run):
        # K is a constant, but the heat expansion to order 1 would build
        # 20,001 multi-indices of 20,000 entries each
        K = {"n": 20000, "N": 0, "shape": "scalar", "terms": []}
        doc = {"schema_version": 1, "heat": {"n": 20000, "m": 1, "J": 0,
                                             "N": 1, "K": K}}
        code, out, err = run("heat", doc)
        assert (code, out, err) == (
            2, "", "error: $.heat.N: needs more than 1048576 coefficients "
                   "at this order\n")

    @pytest.mark.parametrize("command,doc,flags,message", [
        # mu_2 / mu_1 = 1449: every alpha of degree <= 1449 in 2 variables
        ("sternberg", {"schema_version": 1,
                       "sternberg": {"mu": [6.9e-4, 1.0]}}, (),
         "resonance enumeration up to degree 1449 in 2 variables visits "
         "more than 1048576 multi-indices"),
        ("spectrum", euler_doc([]), ("--max-re", "1447"),
         "resonance enumeration up to degree 1447 in 2 variables visits "
         "more than 1048576 multi-indices"),
        ("solve-jet", euler_doc([], lam=1e300), (),
         "resonance enumeration up to degree 1048576 in 2 variables visits "
         "more than 1048576 multi-indices"),
    ])
    def test_resonance_enumeration(self, run, command, doc, flags, message):
        code, out, err = run(command, doc, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_sternberg_enumeration_work(self, run):
        # 45,451 multi-indices, each n = 300 products and paired with all
        # 300 entries of mu: about 27 million operations, refused at once
        doc = {"schema_version": 1, "sternberg": {"mu": [1.0] * 299 + [2.0]}}
        start = time.perf_counter()
        code, out, err = run("sternberg", doc)
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (
            2, "", "error: resonance enumeration up to degree 2 in 300 "
                   "variables and 300 rho values takes over 4194304 "
                   "operations\n")
        assert elapsed < 1.0


class TestOutputContract:
    def test_document_file_is_closed(self, run):
        # an unclosed input file shows as a ResourceWarning when it is freed
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run("spectrum", doc)
        assert code == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(euler_doc([scalar_term((2, 0), [1.0])])))
        outs = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            assert main(["solve-jet", str(path), "--no-timestamp",
                         "--out", str(target)]) == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    def test_provenance_hash_matches_input(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(euler_doc([])))
        assert main(["solvable", str(path), "--no-timestamp"]) == 0
        doc = json.loads(capsys.readouterr().out)
        import hashlib
        assert doc["provenance"]["input_sha256"] == \
            hashlib.sha256(path.read_bytes()).hexdigest()
        assert doc["provenance"]["tool"] == "transportkit"
        assert "timestamp" not in doc["provenance"]

    def test_timestamp_present_by_default(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(euler_doc([])))
        assert main(["solvable", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "timestamp" in doc["provenance"]

    def test_csv_timestamp_line(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(euler_doc([])))
        assert main(["spectrum", str(path), "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:5]] == [
            "# tool", "# command", "# input_sha256", "# tolerances",
            "# timestamp"]
        assert lines[5] == "re,im,multiplicity,representations"

    @pytest.mark.parametrize("command,flags,expected", [
        ("solve-jet", ("--tol", "1e-7"),
         {"tol": 1e-7, "obstruction_tol": 1e-9}),
        ("solve-jet", ("--obstruction-tol", "0.001"),
         {"tol": 1e-9, "obstruction_tol": 0.001}),
        ("kernel", ("--tol", "0"), {"tol": 0.0}),
        ("sternberg", ("--tol", "2.5e-8"), {"tol": 2.5e-8})])
    def test_explicit_tolerance_in_the_provenance(self, run, command, flags,
                                                  expected):
        code, out, _ = run(command, euler_doc([]), *flags)
        assert code == 0
        assert json.loads(out)["provenance"]["tolerances"] == expected

    def test_parser_built_once_and_reused(self, tmp_path, capsys):
        from transportkit import cli
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(radial_doc(
            1.0, [scalar_term((2,), [1.0])],
            grid={"points": [[0.1], [0.5]]})))
        calls = [["solve-jet", "--order", "2"], ["solve-jet"],
                 ["solve-grid", "--output", "json"], ["solve-grid"],
                 ["solve-grid", "--rel-tol", "nan"], ["kernel", "--bogus"],
                 ["solvable"], ["spectrum", "--max-re", "3"], ["--version"]]

        def outputs(fresh_parser):
            seen = []
            for argv in calls:
                if fresh_parser:
                    cli._build_parser.cache_clear()
                if argv[0].startswith("-"):
                    full = argv
                else:
                    full = [argv[0], str(path), "--no-timestamp", *argv[1:]]
                try:
                    code = main(full)
                except SystemExit as exc:
                    code = exc.code
                cap = capsys.readouterr()
                seen.append((code, cap.out, cap.err))
            return seen

        separate = outputs(fresh_parser=True)
        cli._build_parser.cache_clear()
        shared = outputs(fresh_parser=False)
        assert shared == separate
        assert [s[0] for s in shared] == [0, 0, 0, 0, 2, 2, 0, 0, 0]
        assert cli._build_parser.cache_info().misses == 1

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(euler_doc([])))
        # the child imports the package from where this process found it,
        # also when only pytest's pythonpath setting put it on sys.path
        src = str(Path(transportkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "transportkit", "solvable", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["solvable"] is True


# a changed valid value for every flag that sets something
CHANGED = {"--tol": "1e-8", "--obstruction-tol": "1e-8", "--max-re": "3",
           "--order": "5", "--rel-tol": "1e-8", "--abs-tol": "1e-11",
           "--tail-tol": "1e-11", "--max-horizon": "150"}


def test_every_flag_reaches_the_output():
    # a flag that changes nothing is a setting that nothing reads: each
    # command runs on its golden document with the default and with a
    # changed value of each flag, and the JSON outputs must differ
    from test_cli_golden import CASES, run_case
    (commands,) = [action.choices for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    unread = []
    for command, parser in commands.items():
        doc = next(doc for doc, name, _, _ in CASES if name == command)
        options = parser._option_string_actions
        json_flags = ("--output", "json") if "--output" in options else ()
        default = run_case(doc, command, json_flags)
        for flag in options:
            if not flag.startswith("--") or flag in (
                    "--help", "--out", "--no-timestamp", "--output"):
                continue
            changed = run_case(doc, command, (*json_flags, flag, CHANGED[flag]))
            if changed == default:
                unread.append(f"{command} {flag}")
    assert unread == []
