"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` once untraced and once traced.  Each run
must print every metric named in BENCHMARK.json, finite and with its unit,
and must record no failed op.  The test also checks the dense reference
operator against ``opmatrix.assemble``, and checks that the benchmark
refuses to run where the package sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 170
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_workloads(bench):
    """Every implemented workload, including those BENCHMARK.json leaves out."""
    for name in sorted(WORKLOADS):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, name, trace)
            assert proc.returncode == 0, (name, trace, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (name, trace, proc.stderr)
            assert result["failed"] == 0 and result["attempted"] >= 1
            metrics = result["metrics"]
            for m in bench[group]:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], m["name"]
                assert math.isfinite(got["value"]), m["name"]
            if trace == 0:
                assert metrics["ok_frac"]["value"] == 1.0
            print(f"ok  {name} trace={trace} "
                  f"attempted={result['attempted']}")


def check_dense_reference():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import transportkit as tk

    import recipes

    rng = np.random.default_rng(0)
    for n, m, N in recipes.TINY_LADDER + ((3, 2, 3),):
        for kind in recipes.LADDER_KINDS:
            p = recipes.fredholm_problem(tk, rng, n, m, N, kind)
            want = tk.assemble(p).entries - p.lam * np.eye(p.m * tk.jets.P_dim(n, N))
            got = recipes.dense_operator(tk, p)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (n, m, N, kind)
    print("ok  dense reference operator matches opmatrix.assemble")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "jet_ladder", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok  refuses to run without the package sources")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_sources()
    check_dense_reference()
    check_workloads(bench)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
