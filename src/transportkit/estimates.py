"""Exponential bounds for linear transition systems dE/dt = A(t) E.

The machinery revolves around two scalars of the frozen matrix A0:

* ell(A0), the smallest real part among its eigenvalues, and
* M(A0, eps) = sup_{t <= 0} |exp(t (A0 - ell + eps))|,

from which a perturbation bound (for paths A(t) with bounded deviation
from A0) and a two-regime bound (deviation merely small for t <= t0,
bounded overall) follow.  The same machinery applied to -A(t)^T bounds
the inverse transition matrix from below.

One eigendecomposition S0 = V diag(w) V^{-1} of S0 = A0 - ell id serves
every eps: exp(t (S0 + eps id)) = exp(t eps) V diag(exp(t w)) V^{-1} for a
whole array of times at once.  That formula loses about 1e-16 cond(V)
relative accuracy, so when cond(V) exceeds _EIG_COND_MAX = 1e3 (S0 close
to defective) the same arrays of times go through batched expm calls.
Each 2-norm of such a stack comes from its Gram matrix (see _norm2), and
a sup over t is a log grid refined in a few batched passes (_sup_norms).

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
_PASS_POINTS, _PASSES = 16, 9  # a bracket narrows by (2/15)^9, about 1e-8
# eigenvector condition number above which exp(tS) comes from expm
_EIG_COND_MAX = 1e3
ODE_REL_TOL, ODE_ABS_TOL = 1e-10, 1e-13  # of the transition integration


def ell(A0) -> float:
    """Smallest real part among the eigenvalues of A0."""
    A0 = np.asarray(A0)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ValidationError(f"A0 must be a square matrix, got {A0.shape}")
    if not np.all(np.isfinite(A0)):
        raise ValidationError("A0 must be finite")
    return float(np.min(np.linalg.eigvals(A0).real))


def _real_matrix(A0) -> np.ndarray:
    """A0 as a float array; a complex A0 is refused, not cast to its real part."""
    if np.iscomplexobj(A0):
        raise ValidationError("A0 must be real; the envelope bounds are "
                              "real arithmetic")
    return np.asarray(A0, dtype=float)


def _check_eps(eps) -> None:
    if not eps > 0:
        raise ValidationError("eps must be positive")
    if not math.isfinite(eps):
        raise ValidationError(f"eps must be finite, got {eps!r}")


def _norm2(E) -> np.ndarray:
    """Stacked 2-norms s sqrt(lambda_max(F^T F)), F = E / s, s = max |E_ij|:
    the scaling keeps F^T F from over- or underflowing; 0 where s = 0."""
    s = np.abs(E).max(axis=(-2, -1))
    F = E / np.where(s > 0.0, s, 1.0)[:, None, None]
    return s * np.sqrt(np.linalg.eigvalsh(F.swapaxes(-2, -1) @ F)[:, -1])


def _exp_norms(S):
    """The map ts -> |exp(t S)| (2-norm) for each t of an array ts.

    The stack exp(tS) comes from one eigendecomposition of S, or, when
    cond(V) > _EIG_COND_MAX, from one batched expm call (bit for bit the
    values of one call per time); see the module docstring.
    """
    w, V = np.linalg.eig(S)
    if np.linalg.cond(V) > _EIG_COND_MAX:
        def stack(ts):
            return expm(ts[:, None, None] * S)
    else:
        V_inv = np.linalg.inv(V)

        def stack(ts):
            return ((V * np.exp(ts[:, None] * w)[:, None, :]) @ V_inv).real

    return lambda ts: _norm2(stack(ts))


def _refine_max(fn, lo, hi) -> np.ndarray:
    """Maxima of fn on each bracket [lo_i, hi_i], in _PASSES passes.

    Each pass samples every bracket at _PASS_POINTS evenly spaced times in
    one call of fn, then shrinks it to the two neighbours of its best
    sample, so a bracket narrows by 2 / (_PASS_POINTS - 1) a pass.
    """
    u = np.linspace(0.0, 1.0, _PASS_POINTS)[:, None, None]
    best = np.full(lo.shape, -np.inf)
    for _ in range(_PASSES):
        xs = lo + u * (hi - lo)
        vals = fn(xs)
        best = np.maximum(best, vals.max(0))
        k = vals.argmax(0)[None]
        lo = np.take_along_axis(xs, np.maximum(k - 1, 0), 0)[0]
        hi = np.take_along_axis(xs, np.minimum(k + 1, _PASS_POINTS - 1), 0)[0]
    return best


def _sup_norms(A0, epss):
    """ell(A0) and [M(A0, eps) for eps in epss], each >= 1 (t = 0).

    |exp(t (S0 + eps id))| = exp(t eps) |exp(t S0)|, S0 = A0 - ell id, so one
    norm map of S0 serves every eps.  Per eps the sup is taken on a log grid
    over a doubling window, refined around the three best grid points; each
    doubling step, the grid and each pass of _refine_max is one norm call
    for all eps, 11 in all when the first window holds.
    """
    for eps in epss:
        _check_eps(eps)
    A0 = _real_matrix(A0)
    lam = ell(A0)
    g = _exp_norms(A0 - lam * np.eye(A0.shape[0]))
    eps = np.array(epss, dtype=float)[:, None]

    def f(ts):  # ts[..., i, j]: a time for eps[i]
        return np.exp(ts * eps) * g(ts.ravel()).reshape(ts.shape)

    # window [-T, 0]: beyond -T the norm is safely below the t=0 value
    T = 10.0 / eps
    grow = T < 1e7
    while grow.any():
        far, half = f(np.stack([-T, -T / 2.0]))
        grow &= ~((far < 0.5) & (far <= half))
        T[grow] *= 2.0
        grow &= T < 1e7
    ts = np.sort(np.concatenate([-T * np.geomspace(1e-7, 1.0, _GRID_POINTS),
                                 np.zeros_like(T)], axis=1))
    vals = f(ts)
    top = np.argsort(vals)[:, ::-1][:, :3]  # brackets: the grid neighbours
    refined = _refine_max(f, *np.take_along_axis(
        ts[None], np.clip(top + [[[-1]], [[1]]], 0, _GRID_POINTS), 2))
    return lam, np.hstack([np.ones_like(T), vals, refined]).max(1).tolist()


def compute_M(A0, eps: float) -> float:
    """sup over t <= 0 of |exp(t (A0 - (ell(A0) - eps) id))| (2-norm), always
    >= 1 (the value at t = 0); see _sup_norms."""
    return _sup_norms(A0, (eps,))[1][0]


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
        if not np.all(np.isfinite(ts)):
            raise ValidationError("sample times must be finite")
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

    def deviations(self, A0) -> np.ndarray:
        """|A(t) - A0| (2-norm) at each sample time, as one stacked norm."""
        stack = np.array([self(t) for t in self.sample_times])
        return np.linalg.norm(stack - A0, 2, axis=(1, 2))

    def deviation(self, A0) -> float:
        """sup over the samples of |A(t) - A0| (2-norm)."""
        return float(self.deviations(A0).max())


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
    A0 = _real_matrix(A0)
    lam, (M_val,) = _sup_norms(A0, (eps,))
    return LemmaBound(ell=lam, eps=eps, M_val=M_val,
                      deviation=path.deviation(A0))


@np.errstate(over="ignore", invalid="ignore")  # a failed integration raises below
def _shifted_norms(path: MatrixPath, system, lam: float, m: int):
    """|F(t)| on the path grid and the RHS count, where F(0) = id and
    dF/dt = (system(A(t)) - lam id) F: exp(lam t) F is the transition matrix
    of system(A(t)), and |F| is of order one for lam = ell(system(A0))."""
    shift = lam * np.eye(m)

    def rhs(tau, z):
        return ((shift - system(path(-tau))) @ z.reshape(m, m)).reshape(-1)

    ts = path.sample_times
    res = solve_ivp(rhs, (0.0, -ts[0]), np.eye(m).reshape(-1), method="DOP853",
                    rtol=ODE_REL_TOL, atol=ODE_ABS_TOL, dense_output=True)
    if not res.success:
        raise NumericError(f"transition integration failed: {res.message}")
    F = res.sol(-ts).T.reshape(-1, m, m)
    return np.linalg.svd(F, compute_uv=False)[:, 0], res.nfev


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
    nfev: int = 0  # RHS calls of the transition integration; not in to_json

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


def _two_regime(A0, path: MatrixPath, eps: float, t0: float, *, kind: str,
                system, measure, envelope, breaks) -> EstimateReport:
    """Shared core of the direct and inverse two-regime bounds.

    system maps A0 and each A(t) to the matrices the envelope is built on;
    it must preserve 2-norm distances, so the deviations |A(t) - A0| on
    the path grid are taken once from (A0, A) itself: the hypothesis reads
    those with t <= t0, and C their maximum.  The transition matrix of
    system(A(t)) has norm exp(lam t) |F(t)| (see _shifted_norms); measure
    maps that norm to the checked number, envelope(t, lam, C) is the bound
    it is compared with, and breaks(measured, bound) marks a violation.
    """
    A0 = _real_matrix(A0)
    _check_eps(eps)
    if not math.isfinite(t0):
        raise ValidationError(f"t0 must be finite, got {t0!r}")
    if t0 > 0:
        raise ValidationError("t0 must be nonpositive")
    lam, (M_half, M_full) = _sup_norms(system(A0), (eps / 2.0, eps))
    ts = path.sample_times
    devs = path.deviations(A0)
    threshold = (eps / 2.0) / M_half
    broken = np.flatnonzero((ts <= t0) & (devs >= threshold))
    if broken.size:
        t, dev = ts[broken[0]], devs[broken[0]]
        raise HypothesisViolationError(
            f"|A(t) - A0| = {dev:.6g} is not below (eps/2)/M(A0, eps/2) "
            f"= {threshold:.6g} at t = {t:g}", t=float(t))
    try:
        C = M_half * M_full * math.exp(-t0 * M_full * float(devs.max()))
        bounds = [envelope(t, lam, C) for t in ts]
    except OverflowError:
        C, bounds = math.inf, []
    norms, nfev = _shifted_norms(path, system, lam, A0.shape[0])
    with np.errstate(over="ignore", divide="ignore"):  # checked below
        scaled = np.exp(lam * ts) * norms
        measured = measure(scaled)
    if not np.isfinite([C, *bounds, *scaled, *measured]).all():
        raise NumericError("the bound or the transition norm is not finite")
    samples = tuple(zip(ts.tolist(), measured.tolist(), bounds))
    return EstimateReport(ell=lam, eps=eps, M_val=M_full, t0=float(t0), C=C,
                          samples=samples, kind=kind, nfev=nfev,
                          violated=any(breaks(v, b) for _, v, b in samples))


def two_regime_bound(A0, path: MatrixPath, eps: float, t0: float) -> EstimateReport:
    """Verify |E(t)| < C exp(t (ell(A0) - eps)) on the path grid.

    Hypothesis (checked, error when broken): |A(t) - A0| stays below
    (eps/2)/M(A0, eps/2) for every sample t <= t0.  The constant is
    C = M(A0, eps/2) M(A0, eps) exp(-t0 M(A0, eps) sup_{t<=0}|A - A0|).
    """
    return _two_regime(
        A0, path, eps, t0, kind="direct", system=lambda M: M,
        measure=lambda norm: norm,
        envelope=lambda t, lam, C: C * math.exp(t * (lam - eps)),
        breaks=operator.gt)


def inverse_two_regime_bound(A0, path: MatrixPath, eps: float,
                             t0: float) -> EstimateReport:
    """Verify the lower bound s_min(E(t)) > (1/C) exp(t (-ell(-A0) + eps)).

    F = E^{-1} solves dF/dt = -F A(t); transposing gives the standard
    system with matrix -A(t)^T, so the direct machinery applied to
    (-A0^T, -A^T) bounds |F| above, which is the floor under s_min(E).
    The reported ell, M and C refer to that transformed system, whose own
    integration gives s_min(E) = 1/|F| without an SVD of a near-singular E.
    """
    return _two_regime(
        A0, path, eps, t0, kind="inverse", system=lambda M: -M.T,
        measure=np.reciprocal,
        envelope=lambda t, lam, C: (1.0 / C) * math.exp(t * (-lam + eps)),
        breaks=operator.lt)
