"""Machine pace: a fixed reference task timed between the workload's calls.

The benchmark shares a few cores of a host with other jobs, and the host's
speed drifts by a quarter or more over tens of seconds.  That drift moves
every wall time of a run together, so medians over one run cannot remove
it.  The benchmark therefore runs a short reference task that never touches
transportkit (scipy ``expm`` and 2-norms on 3x3 matrices, one RK45
``solve_ivp`` with a numpy right-hand side, and a JSON round trip: the kinds
of work the workloads do) between consecutive calls.  The pace of call i is
the mean time of the reference tasks around it, divided by ``NOMINAL_S``;
a time divided by its pace is the time the call would have taken on a host
that runs the reference task in ``NOMINAL_S``.  A change to
transportkit moves the call times and leaves the reference task alone, so it
shows in full in the paced figures.

The pace is a mean, not a median: the host's slowdowns come as short
stalls, which hit a task in proportion to its length, so the mean of the
tasks sees them at the rate the calls do.  A median skips the stalled tasks
and, when the host is fast but uneven, reads faster than the calls ran.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

# Typical reference-task time on the 2-core Xeon (KVM guest) the bounds were
# set on; it only scales the paced figures to seconds of that machine.
NOMINAL_S = 0.036
# Reference tasks whose mean sets the pace of one call: the five before and
# the five after it.
WINDOW = 10


class Pace:
    """The reference task, on fixed inputs made once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((3, 3)) for _ in range(8)]
        self._jac = np.array([[-1.0, 2.0, 0.1], [-2.0, -1.0, 0.3],
                              [0.0, 0.5, -0.5]])
        self._doc = {"points": rng.standard_normal((40, 3)).tolist()}

    def task(self) -> float:
        """Run the reference task once; returns its wall time in seconds."""
        start = time.perf_counter()
        for k in range(120):
            np.linalg.norm(expm(-0.01 * (k % 97) * self._mats[k % 8]), 2)
        jac = self._jac
        solve_ivp(lambda _t, y: jac @ y + 0.1 * np.sin(y), (0.0, 20.0),
                  np.ones(3), rtol=1e-8, atol=1e-11)
        for _ in range(40):
            json.loads(json.dumps(self._doc))
        return time.perf_counter() - start


def paces(task_times, n_calls):
    """Pace of each call, given the task times interleaved with the calls.

    ``task_times[i]`` ran just before call i and ``task_times[n_calls]``
    after the last call.
    """
    half = WINDOW // 2
    out = []
    for i in range(n_calls):
        around = task_times[max(0, i + 1 - half):i + 1 + half]
        out.append(statistics.fmean(around) / NOMINAL_S)
    return out
