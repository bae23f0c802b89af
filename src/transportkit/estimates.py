"""Exponential bounds for linear transition systems dE/dt = A(t) E.

The machinery revolves around two scalars of the frozen matrix A0:

* ell(A0), the smallest real part among its eigenvalues, and
* M(A0, eps) = sup_{t <= 0} |exp(t (A0 - ell + eps))|,

from which a perturbation bound (for paths A(t) with bounded deviation
from A0) and a two-regime bound (deviation merely small for t <= t0,
bounded overall) follow.  The same machinery applied to -A(t)^T bounds
the inverse transition matrix from below.

Conventions: operator 2-norm throughout, so every constant here is
norm-dependent.  Time paths live on t <= 0 and are given as a callable
plus an explicit grid of sample times; suprema over the path are taken
on that grid, and the reported bounds are verified on it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import HypothesisViolationError, NumericError, ValidationError

__all__ = [
    "MatrixPath",
    "LemmaBound",
    "EstimateReport",
    "ell",
    "compute_M",
    "perturbation_bound",
    "two_regime_bound",
    "inverse_two_regime_bound",
]

_GRID_POINTS = 512
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ell(A0) -> float:
    """Smallest real part among the eigenvalues of A0."""
    A0 = np.asarray(A0)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ValidationError(f"A0 must be a square matrix, got {A0.shape}")
    return float(np.min(np.linalg.eigvals(A0).real))


def _golden_max(fn, a: float, b: float, iters: int = 80) -> float:
    """Maximum of a unimodal fn on [a, b] by golden-section search."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        if b - a < 1e-12 * max(1.0, abs(a)):
            break
    return max(f1, f2)


def compute_M(A0, eps: float) -> float:
    """sup over t <= 0 of |exp(t (A0 - (ell(A0) - eps) id))| (2-norm).

    The shifted matrix has all eigenvalue real parts >= eps, so the norm
    decays eventually; the sup is found on a log-spaced grid over an
    adaptively chosen window, refined by golden-section search around the
    best grid candidates.  Always >= 1 (the value at t = 0).
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    A0 = np.asarray(A0, dtype=float)
    S = A0 - (ell(A0) - eps) * np.eye(A0.shape[0])

    def f(t: float) -> float:
        return float(np.linalg.norm(expm(t * S), 2))

    # window [-T, 0]: beyond -T the norm is safely below the t=0 value
    T = 10.0 / eps
    while (f(-T) >= 0.5 or f(-T) > f(-T / 2)) and T < 1e7:
        T *= 2.0
    ts = -T * np.geomspace(1e-7, 1.0, _GRID_POINTS)
    ts = np.concatenate([ts, [0.0]])
    ts.sort()
    vals = np.array([f(t) for t in ts])

    best = 1.0  # f(0) = |id| = 1
    order = np.argsort(vals)[::-1][:3]
    for idx in order:
        lo = ts[max(int(idx) - 1, 0)]
        hi = ts[min(int(idx) + 1, ts.size - 1)]
        best = max(best, vals[idx], _golden_max(f, lo, hi))
    return best


@dataclass(frozen=True)
class MatrixPath:
    """A matrix-valued path on t <= 0: a callable plus its sample grid.

    Suprema over the path (deviation from A0, hypothesis checks) are
    taken on sample_times; choose the grid dense enough for the path's
    variation.
    """

    fn: object
    sample_times: np.ndarray

    def __post_init__(self):
        ts = np.sort(np.asarray(self.sample_times, dtype=float))
        if ts.size < 2:
            raise ValidationError("a path needs at least two sample times")
        if ts[-1] > 0.0:
            raise ValidationError("sample times must satisfy t <= 0")
        object.__setattr__(self, "sample_times", ts)

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.fn(t), dtype=float)

    @classmethod
    def constant(cls, A0, t_min: float = -20.0, samples: int = 201) -> "MatrixPath":
        A0 = np.asarray(A0, dtype=float)
        return cls(fn=lambda _t: A0,
                   sample_times=np.linspace(t_min, 0.0, samples))

    def deviation(self, A0, t_max: float = 0.0) -> float:
        """sup over samples with t <= t_max of |A(t) - A0| (2-norm)."""
        A0 = np.asarray(A0, dtype=float)
        devs = [float(np.linalg.norm(self(t) - A0, 2))
                for t in self.sample_times if t <= t_max]
        if not devs:
            raise ValidationError(f"no sample times at or below {t_max}")
        return max(devs)


@dataclass(frozen=True)
class LemmaBound:
    """The one-regime perturbation bound t -> M exp(t (ell - eps - M dev))."""

    ell: float
    eps: float
    M_val: float
    deviation: float

    @property
    def rate(self) -> float:
        return self.ell - self.eps - self.M_val * self.deviation

    def __call__(self, t) -> np.ndarray:
        return self.M_val * np.exp(np.asarray(t, dtype=float) * self.rate)


def perturbation_bound(A0, path: MatrixPath, eps: float) -> LemmaBound:
    """Bound |E(t)| <= M exp(t (ell - eps - M sup|A - A0|)) for t <= 0.

    E is the transition solution of dE/dt = A(t) E with E(0) = id; the
    supremum of the deviation is taken over the path's sample grid.
    """
    A0 = np.asarray(A0, dtype=float)
    M_val = compute_M(A0, eps)
    return LemmaBound(ell=ell(A0), eps=eps, M_val=M_val,
                      deviation=path.deviation(A0))


def _transition_dense(path: MatrixPath, t_min: float, m: int,
                      rel_tol: float = 1e-10, abs_tol: float = 1e-13):
    """Dense solution of dE/dt = A(t) E on [t_min, 0], E(0) = id."""

    def rhs(tau, z):
        E = z.reshape(m, m)
        return (-path(-tau) @ E).reshape(-1)

    res = solve_ivp(rhs, (0.0, -t_min), np.eye(m).reshape(-1), method="RK45",
                    rtol=rel_tol, atol=abs_tol, dense_output=True)
    if not res.success:
        raise NumericError(f"transition integration failed: {res.message}")
    return lambda t: res.sol(-t).reshape(m, m)


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of a two-regime bound check.

    samples holds (t, measured, bound) triples on the path grid; for the
    direct kind the claim is measured < bound (norm of E under the
    envelope), for the inverse kind measured > bound (smallest singular
    value of E above the floor).  violated is True when any sample breaks
    the claim.
    """

    ell: float
    eps: float
    M_val: float
    t0: float
    C: float
    samples: tuple
    violated: bool
    kind: str  # "direct" or "inverse"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ell": self.ell,
            "eps": self.eps,
            "M": self.M_val,
            "t0": self.t0,
            "C": self.C,
            "violated": self.violated,
            "samples": [{"t": t, "measured": v, "bound": b}
                        for t, v, b in self.samples],
        }


def _check_hypothesis(A0, path: MatrixPath, eps: float, t0: float,
                      M_half: float) -> None:
    threshold = (eps / 2.0) / M_half
    for t in path.sample_times:
        if t > t0:
            continue
        dev = float(np.linalg.norm(path(t) - A0, 2))
        if dev >= threshold:
            raise HypothesisViolationError(
                f"|A(t) - A0| = {dev:.6g} is not below (eps/2)/M(A0, eps/2) "
                f"= {threshold:.6g} at t = {t:g}", t=float(t))


def _two_regime(A0, path: MatrixPath, eps: float, t0: float, *, kind: str,
                system, measure, envelope, breaks) -> EstimateReport:
    """Shared core of the direct and inverse two-regime bounds.

    system maps A0 and each A(t) to the matrices the envelope is built on;
    it must preserve 2-norm distances, so the deviation of the path is
    taken from (A0, A) itself.  E always solves dE/dt = A(t) E.  measure
    reads the checked number off E(t), envelope(t, ell, C) is the bound it
    is compared with, and breaks(measured, bound) marks a violation.
    """
    A0 = np.asarray(A0, dtype=float)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if t0 > 0:
        raise ValidationError("t0 must be nonpositive")
    B0 = system(A0)
    M_half = compute_M(B0, eps / 2.0)
    M_full = compute_M(B0, eps)
    _check_hypothesis(B0, MatrixPath(fn=lambda t: system(path(t)),
                                     sample_times=path.sample_times),
                      eps, t0, M_half)
    dev_all = path.deviation(A0)
    C = M_half * M_full * math.exp(-t0 * M_full * dev_all)
    lam = ell(B0)

    E = _transition_dense(path, float(path.sample_times[0]), A0.shape[0])
    samples = tuple((float(t), measure(E(t)), envelope(t, lam, C))
                    for t in path.sample_times)
    return EstimateReport(ell=lam, eps=eps, M_val=M_full, t0=float(t0), C=C,
                          samples=samples, kind=kind,
                          violated=any(breaks(v, b) for _, v, b in samples))


def two_regime_bound(A0, path: MatrixPath, eps: float, t0: float) -> EstimateReport:
    """Verify |E(t)| < C exp(t (ell(A0) - eps)) on the path grid.

    Hypothesis (checked, error when broken): |A(t) - A0| stays below
    (eps/2)/M(A0, eps/2) for every sample t <= t0.  The constant is
    C = M(A0, eps/2) M(A0, eps) exp(-t0 M(A0, eps) sup_{t<=0}|A - A0|).
    """
    return _two_regime(
        A0, path, eps, t0, kind="direct", system=lambda M: M,
        measure=lambda E: float(np.linalg.norm(E, 2)),
        envelope=lambda t, lam, C: C * math.exp(t * (lam - eps)),
        breaks=operator.gt)


def inverse_two_regime_bound(A0, path: MatrixPath, eps: float,
                             t0: float) -> EstimateReport:
    """Verify the lower bound s_min(E(t)) > (1/C) exp(t (-ell(-A0) + eps)).

    F = E^{-1} solves dF/dt = -F A(t); transposing gives the standard
    system with matrix -A(t)^T, so the direct machinery applied to
    (-A0^T, -A^T) bounds |F| above, which is the floor under s_min(E).
    The reported ell, M and C refer to that transformed system.
    """
    return _two_regime(
        A0, path, eps, t0, kind="inverse", system=lambda M: -M.T,
        measure=lambda E: float(np.linalg.svd(E, compute_uv=False)[-1]),
        envelope=lambda t, lam, C: (1.0 / C) * math.exp(t * (-lam + eps)),
        breaks=operator.lt)
