"""transportkit benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout that holds this file.  One client in one process issues each call
after the previous one returns.  The measured phase runs whole passes over
the workload's calls until ``--seconds`` have elapsed, so every run sees the
same mix of calls.  BLAS runs on one thread, so that the only threads
beside the client are the program's own (the ``solve-grid`` pool).

``--trace 0`` prints the end-to-end metrics.  Their times are paced: a
reference task runs between calls and every time is scaled by how fast the
host ran it (see ``pace.py``); the raw figures are recorded beside them.  ``--trace 1`` is a separate
pass: it times the same passes untraced and then traced.  It prints the
per-layer metrics from the spans, and the tracing overhead.  The last line
of standard output is the result object; the line before it records the
machine, the versions and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Before numpy loads: OpenBLAS otherwise starts a worker per core, and its
# spinning workers double the cores the client occupies even on the 3x3
# matrices of envelope_check.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from pace import NOMINAL_S, Pace, paces  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7
SETUP_TASKS = 5  # reference tasks between two set-ups
MIN_TOP_COVER = 0.9  # top-level spans must cover the traced phase


def _fresh_import():
    """Import transportkit from the checkout with empty module-level caches."""
    for key in [k for k in sys.modules
                if k == "transportkit" or k.startswith("transportkit.")]:
        del sys.modules[key]
    tk = importlib.import_module("transportkit")
    importlib.import_module("transportkit.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(tk.__file__).resolve().parents:
        raise SystemExit(f"transportkit imported from {tk.__file__}, "
                         f"not from {src}")
    return tk


def _setup(name, seed, tiny, workdir):
    """One full set-up: import, inputs, references, warm-up.  Returns (s, tk, wl)."""
    start = time.perf_counter()
    tk = _fresh_import()
    wl = WORKLOADS[name](tiny)
    wl.setup(tk, np.random.default_rng(seed), workdir)
    return time.perf_counter() - start, tk, wl


def _passes(tk, wl, seconds, passes=None, pace=None):
    """Whole passes until `seconds` elapsed (or exactly `passes` passes).

    With a `pace`, its reference task runs before every call and once after
    the last.  Returns (wall, call times, correct ops per call, attempted,
    failed, number of passes, reference task times).
    """
    samples, oks, attempted, failed, n_passes, tasks = [], [], 0, 0, 0, []
    start = time.perf_counter()
    while True:
        for call in wl.calls:
            if pace is not None:
                tasks.append(pace.task())
            t0 = time.perf_counter()
            a, f = wl.run_call(tk, call)
            samples.append(time.perf_counter() - t0)
            attempted += a
            failed += f
            oks.append(a - f)
        n_passes += 1
        if passes is not None and n_passes >= passes:
            break
        if passes is None and time.perf_counter() - start >= seconds:
            break
    if pace is not None:
        tasks.append(pace.task())
    return (time.perf_counter() - start, samples, oks, attempted, failed,
            n_passes, tasks)


def _pass_rates(times, oks, per_pass):
    """Correct ops per second of call time, for each whole pass."""
    return [sum(oks[i:i + per_pass]) / sum(times[i:i + per_pass])
            for i in range(0, len(times), per_pass)]


def _paced_setups(name, seed, tiny, workdir, pace):
    """SETUP_REPS set-ups, each with reference tasks before and after it.

    Returns (paced set-up times, raw set-up times, tk, wl).
    """
    blocks = [[pace.task() for _ in range(SETUP_TASKS)]]
    raw = []
    for _ in range(SETUP_REPS):
        t, tk, wl = _setup(name, seed, tiny, workdir)
        raw.append(t)
        blocks.append([pace.task() for _ in range(SETUP_TASKS)])
    paced = [t * NOMINAL_S / statistics.fmean(blocks[r] + blocks[r + 1])
             for r, t in enumerate(raw)]
    return paced, raw, tk, wl


def _tail(samples):
    """Highest percentile with at least ten calls beyond it: (value, percentile)."""
    ordered = sorted(samples)
    k = len(ordered)
    if k <= 10:
        return ordered[-1], 100.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def _environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):  # layout differs across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "TRANSPORT_THREADS": os.environ.get("TRANSPORT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, bench, workdir):
    if args.trace:
        setup_s, tk, wl = _setup(args.workload, args.seed, args.tiny, workdir)
        wall_u, _, _, a_u, f_u, passes, _ = _passes(tk, wl, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install(tk)
        try:
            wall_t, _, _, a_t, f_t, _, _ = _passes(tk, wl, 0.0, passes=passes)
        finally:
            tracer.uninstall()
        values, by_name = tracing.layer_metrics(tracer.spans, wall_t, wall_u)
        values["flow.max_abs_err"] = wl.max_abs_err
        attempted, failed = a_u + a_t, f_u + f_t
        correct = failed == 0 and values["trace.top_cover_frac"] >= MIN_TOP_COVER
        info = {"passes_each": passes, "spans": len(tracer.spans),
                "untraced_wall_s": wall_u, "traced_wall_s": wall_t,
                "setup_s": setup_s,
                "spans_by_name": {k: {"calls": v["calls"], "s": v["s"],
                                      "self_s": v["self_s"]}
                                  for k, v in sorted(by_name.items())}}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        pace = Pace()
        setups, raw_setups, tk, wl = _paced_setups(
            args.workload, args.seed, args.tiny, workdir, pace)
        elapsed, raw, oks, attempted, failed, passes, tasks = _passes(
            tk, wl, args.seconds, pace=pace)
        samples = [t / p for t, p in zip(raw, paces(tasks, len(raw)))]
        per_pass = len(wl.calls)
        tail, pct = _tail(samples)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(_pass_rates(samples, oks, per_pass)),
            "call_p50_s": statistics.median(samples),
            "call_tail_s": tail,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": _peak_rss_mb(),
        }
        correct = failed == 0
        info = {"passes": passes, "calls": len(samples), "elapsed_s": elapsed,
                "call_tail_percentile": pct,
                "pace_mean": statistics.fmean(tasks) / NOMINAL_S,
                "raw": {"setup_s": statistics.median(raw_setups),
                        "ops_per_s": statistics.median(
                            _pass_rates(raw, oks, per_pass)),
                        "call_p50_s": statistics.median(raw),
                        "call_tail_s": _tail(raw)[0]},
                "setup_reps_s": setups}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                environment=_environment())
    print(json.dumps(info))
    bad = [k for k in units if not (k in values and math.isfinite(values[k]))]
    if bad:
        raise SystemExit(f"metrics missing or not finite: {bad}")
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                        for k in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "transportkit" / "__init__.py").is_file():
        print(f"error: no transportkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # the CLI's default thread pool is part of what grid_sweep measures
    os.environ.pop("TRANSPORT_THREADS", None)
    warnings.simplefilter("ignore")

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
