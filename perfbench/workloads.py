"""The three closed-loop workloads: set-up, one call, and its output check.

Each workload builds a list of calls during set-up (inputs, references and
warm-up) and then answers ``run_call(call) -> (attempted, failed)``, where
an op is one grid point (grid_sweep), one ``solve_to_order`` (jet_ladder)
or one document (envelope_check).  A call that raises, exits with an
unexpected code or fails its check counts every op in it as failed; the
run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback

import numpy as np

import recipes

GRID_TOL = 1e-5  # criterion-04 agreement between flow and order-10 jet


def _report(workload, call_label, message):
    print(f"[{workload}] {call_label}: {message}", file=sys.stderr)


def _run_cli(tk, argv):
    """cli.main with stdout and stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tk.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


class GridSweep:
    """solve-grid over criterion-04 documents; the only pool-using workload."""

    name = "grid_sweep"

    def __init__(self, tiny):
        self.docs = recipes.TINY_GRID_DOCS if tiny else recipes.GRID_DOCS
        self.n_points = 2 if tiny else 3
        self.max_abs_err = 0.0

    def setup(self, tk, rng, workdir):
        self.calls = self._documents(tk, rng, workdir, "grid", self.n_points)
        # Warm-up inputs come from a fixed seed, so set-up cost does not
        # follow the workload seed.  One point of each (n, m, mode) fills
        # the jet tables of every order the flow evaluator uses.
        warm_docs = {doc[:3]: doc for doc in self.docs}.values()
        for call in self._documents(tk, np.random.default_rng(0), workdir,
                                    "warm", 1, warm_docs):
            self.run_call(tk, call)

    def _documents(self, tk, rng, workdir, prefix, n_points, docs=None):
        calls = []
        K = recipes.GRID_STRATA
        for i, (n, m, indefinite, k) in enumerate(docs or self.docs):
            p = recipes.flow_problem(tk, rng, n, m, indefinite, k, K)
            jet_u = tk.solve_to_order(p, 10).particular
            points = recipes.ball_points(rng, p.n, n_points)
            expected = [np.atleast_1d(jet_u.evaluate(y)) for y in points]
            path = workdir / f"{prefix}_{i}.json"
            _write_json(path, recipes.grid_document(tk, p, points))
            calls.append((str(path), "split" if indefinite else "direct",
                          expected))
        return calls

    def run_call(self, tk, call):
        path, mode, expected = call
        total = len(expected)
        try:
            code, out, err = _run_cli(tk, ["solve-grid", path, "--no-timestamp",
                                           "--output", "json"])
            if code != 0:
                _report(self.name, path, f"exit {code}: {err.strip()}")
                return total, total
            rows = json.loads(out)["result"]["points"]
            if len(rows) != total:
                _report(self.name, path, f"{len(rows)} rows for {total} points")
                return total, total
        except Exception:
            _report(self.name, path, traceback.format_exc())
            return total, total
        failed = 0
        for k, (row, want) in enumerate(zip(rows, expected)):
            if row["error"] is not None or row["mode"] != mode:
                _report(self.name, f"{path}[{k}]",
                        f"mode {row['mode']} (want {mode}), error {row['error']}")
                failed += 1
                continue
            err = float(np.max(np.abs(np.asarray(row["u"]) - want)))
            self.max_abs_err = max(self.max_abs_err, err)
            if not err <= GRID_TOL:
                _report(self.name, f"{path}[{k}]", f"|u - jet u| = {err:.3e}")
                failed += 1
        return total, failed


class JetLadder:
    """solve_to_order on an (n, m, N) ladder, three criterion-03 kinds per rung."""

    name = "jet_ladder"

    def __init__(self, tiny):
        self.ladder = recipes.TINY_LADDER if tiny else recipes.LADDER
        self.max_abs_err = 0.0

    def setup(self, tk, rng, workdir):
        self.calls = []
        for n, m, N in self.ladder:
            for kind in recipes.LADDER_KINDS:
                p = recipes.fredholm_problem(tk, rng, n, m, N, kind)
                ref = recipes.ladder_reference(tk, p, kind != "nonresonant")
                self.calls.append(((n, m, N, kind), p, ref))
            # one operator application fills the (n, N) product tables
            tk.apply_operator(p, p.v)
        # warm-up inputs come from a fixed seed, as in the other workloads
        warm_rng = np.random.default_rng(0)
        n, m, N = self.ladder[0]
        for kind in recipes.LADDER_KINDS:
            p = recipes.fredholm_problem(tk, warm_rng, n, m, N, kind)
            ref = recipes.ladder_reference(tk, p, kind != "nonresonant")
            self.run_call(tk, ((n, m, N, kind), p, ref))

    def run_call(self, tk, call):
        label, p, ref = call
        try:
            sol = tk.solve_to_order(p, p.N)
            problems = []
            if sol.solvable != ref["solvable"]:
                problems.append(f"solvable={sol.solvable}, dense lstsq says "
                                f"{ref['solvable']}")
            if sol.solvable:
                x = np.asarray(sol.particular.coeffs).reshape(-1)
                resid = float(np.linalg.norm(ref["L"] @ x - ref["v"]))
                scale = ref["L_norm"] * float(np.linalg.norm(x)) \
                    + float(np.linalg.norm(ref["v"]))
                if not resid <= 1e-8 * scale:
                    problems.append(f"residual {resid:.3e} vs scale {scale:.3e}")
            if len(sol.kernel_extensions) != ref["nullity"]:
                problems.append(f"{len(sol.kernel_extensions)} kernel extensions, "
                                f"dense left nullity {ref['nullity']}")
        except Exception:
            _report(self.name, label, traceback.format_exc())
            return 1, 1
        if problems:
            _report(self.name, label, "; ".join(problems))
            return 1, 1
        return 1, 0


class EnvelopeCheck:
    """verify-estimates over criterion-06 families, alternating direct/inverse."""

    name = "envelope_check"

    def __init__(self, tiny):
        self.n_families = 1 if tiny else 12
        self.max_abs_err = 0.0

    def setup(self, tk, rng, workdir):
        self.calls = []
        for i in range(self.n_families):
            m = 2 if i % 3 else 3
            A0, B, eps, t0 = recipes.estimate_family(tk, rng, m, i,
                                                     self.n_families)
            for mode in ("direct", "inverse"):
                path = workdir / f"envelope_{i}_{mode}.json"
                _write_json(path, recipes.envelope_document(A0, B, eps, t0, mode))
                self.calls.append((str(path), mode))
        # warm-up inputs come from a fixed seed, as in the other workloads
        A0, B, eps, t0 = recipes.estimate_family(tk, np.random.default_rng(0), 2)
        for mode in ("direct", "inverse"):
            path = workdir / f"warm_{mode}.json"
            _write_json(path, recipes.envelope_document(A0, B, eps, t0, mode))
            self.run_call(tk, (str(path), mode))

    def run_call(self, tk, call):
        path, mode = call
        try:
            code, out, err = _run_cli(tk, ["verify-estimates", path,
                                           "--no-timestamp"])
            if code != 0:
                _report(self.name, path, f"exit {code}: {err.strip()}")
                return 1, 1
            result = json.loads(out)["result"]
        except Exception:
            _report(self.name, path, traceback.format_exc())
            return 1, 1
        if (result["violated"] is not False or result["kind"] != mode
                or len(result["samples"]) != recipes.ENVELOPE_SAMPLES):
            _report(self.name, path, f"violated={result['violated']}, "
                    f"kind={result['kind']}, samples={len(result['samples'])}")
            return 1, 1
        return 1, 0


WORKLOADS = {w.name: w for w in (GridSweep, JetLadder, EnvelopeCheck)}
