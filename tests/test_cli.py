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

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transportkit
from transportkit import (
    Jet,
    ProblemData,
    VectorFieldJet,
    jet_from_json,
    solve_to_order,
)
from transportkit.cli import main
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

    def test_point_dimension_checked(self, run):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid={"points": [[0.1, 0.2]]})
        code, _, err = run("solve-grid", doc)
        assert code == 2
        assert "$.grid.points[0]" in err


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

    def test_resonant_point_reports_error_not_abort(self, run):
        doc = radial_doc(-1.0, [scalar_term((2,), [1.0])],
                         grid=self.grid())
        code, out, _ = run("solve-grid", doc, "--output", "json")
        assert code == 0
        for row in result_of(out)["points"]:
            assert row["u"] is None
            assert "resonant" in row["error"]

    def test_flag_overrides_file_config(self, run):
        doc = radial_doc(1.0, [scalar_term((2,), [1.0])],
                         grid=self.grid(max_horizon=200.0))
        code, out, _ = run("solve-grid", doc, "--output", "json",
                        "--max-horizon", "3.0")
        assert code == 0
        for row in result_of(out)["points"]:
            assert row["horizon"] >= -3.0

    def test_grid_block_required(self, run):
        code, _, err = run("solve-grid", radial_doc(1.0, []))
        assert code == 2
        assert "grid" in err


class TestKernelCommands:
    def test_kernel_constants(self, run):
        code, out, _ = run("kernel", euler_doc([]))
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

    def test_budget_violation_exits_2(self, run):
        code, _, err = run("heat", self.doc(N=3))
        assert code == 2


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

    def test_nonnegative_rate_rejected(self, run):
        doc = self.doc()
        doc["estimates"]["path"]["rate"] = -1.0
        code, _, err = run("verify-estimates", doc)
        assert code == 2
        assert "$.estimates.path.rate" in err


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

    def test_spectrum_from_problem_field(self, run):
        code, out, _ = run("sternberg", euler_doc([]))
        assert code == 0
        res = result_of(out)
        assert res["mu"] == [1.0, 1.0]
        assert res["resonance_free"] is True


class TestOutputContract:
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
