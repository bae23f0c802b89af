"""End-to-end drivers: heat coefficients on flat space and 1D WKB series.

Heat side: on flat R^n with a matrix potential, the kernel coefficients
Phi_j of exp(-t(Delta + K)) satisfy the transport recursion

    D_X Phi_0 = 0,  Phi_0(0) = id,
    (D_X + j) Phi_j = -L Phi_{j-1},   L = Delta + K,

along the radial field X = sum_i x_i d_i.  X acts as the degree operator,
D_X x^alpha = |alpha| x^alpha, so lambda = -j is non-resonant for every
j >= 1 and each step divides degree k by k + j.  The Laplacian here is
the geometer's Delta = -sum of second partials; with the analyst's
convention K flips sign.

WKB side: for -hbar^2 u'' + V u = E u near a nondegenerate minimum
(V = mu^2 x^2 + higher, mu > 0), the ansatz e^{-phi/hbar} sum hbar^j a_j
with E = hbar lambda_0 + hbar^2 lambda_1 + ... reduces order by order to

    (d_X + phi'') a_j = lambda_0 a_j + a_{j-1}'' + sum_{i>=1} lambda_i a_{j-i},

where phi' = sqrt(V) (positive branch) and X = 2 phi' d_x.  lambda_0 =
(2 alpha + 1) mu selects the level; each lambda_j for j >= 1 is pinned by
the one-dimensional solvability condition and a_j by the gauge that its
component along the kernel direction vanishes.

Order bookkeeping is the binding constraint in both drivers: applying the
Laplacian (or a second derivative) costs two jet orders per step, so J
coefficients need N >= 2J + 1 (heat) respectively N >= 2J + max(alpha, 1)
+ 2 (WKB: the last transport solve, at order N - 2 - 2J, needs order at
least alpha to see the level and at least 1 to carry X's linearization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, OrderBudgetError, ValidationError
from .jets import MAX_COEFFS, Jet, VectorFieldJet, jet_mul, monomial_powers
from .opmatrix import ProblemData
from .spectral import NEAR_RESONANCE_TOL, RESONANCE_TOL, resonance_degree
from .taylor import MAX_ORDER, _factor

__all__ = [
    "HeatProblem",
    "heat_coefficients_jet",
    "heat_coefficients_numeric",
    "WKBProblem",
    "WKBExpansion",
    "wkb_expand",
]


@dataclass(frozen=True)
class HeatProblem:
    """Flat-space heat coefficient problem for L = Delta + K.

    K is an (m x m)-matrix-valued jet in n variables (a scalar jet is
    accepted when m = 1).  J is the number of coefficients past Phi_0,
    N the jet order budget; Phi_j comes out with order N - 2j.
    """

    n: int
    m: int
    K: Jet
    J: int
    N: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("need n >= 1 and m >= 1")
        if self.J < 0:
            raise ValidationError("J must be nonnegative")
        if self.N < 2 * self.J + 1:
            raise OrderBudgetError(
                f"order budget N={self.N} cannot carry J={self.J} "
                f"coefficients; need N >= {2 * self.J + 1}")
        K = self.K
        if K.n != self.n:
            raise ValidationError(f"K has {K.n} variables, expected {self.n}")
        if K.value_shape == () and self.m == 1:
            K = Jet(K.n, K.N, K.coeffs.reshape(-1, 1, 1))
        if K.value_shape != (self.m, self.m):
            raise ValidationError(
                f"K must be ({self.m} x {self.m})-valued, got {K.value_shape}")
        if K.is_complex:
            raise ValidationError("heat coefficients expect a real potential")
        object.__setattr__(self, "K", K.extend(self.N) if K.N < self.N
                           else K.project(self.N))


def _apply_L(K: Jet, Phi: Jet) -> Jet:
    """(Delta + K) Phi for a matrix jet Phi; order drops by 2."""
    M = Phi.N - 2
    out = jet_mul(K.project(M), Phi.project(M))
    for i in range(Phi.n):
        out = out - Phi.partial(i).partial(i)
    return out


@np.errstate(over="ignore", invalid="ignore")  # checked below
def _heat_ladder(h: HeatProblem) -> tuple:
    """Phi_0 .. Phi_J and the right-hand sides -L Phi_0 .. -L Phi_{J-1}."""
    Phi, rhs = [Jet.constant(h.n, h.N, np.eye(h.m))], []
    for j in range(1, h.J + 1):
        rhs.append(-_apply_L(h.K, Phi[-1]))
        if not np.isfinite(rhs[-1].coeffs).all():
            raise NumericError(f"Phi_{j} is not finite: the ladder overflows")
        degree = monomial_powers(h.n, rhs[-1].N).sum(axis=1)[:, None, None]
        Phi.append(Jet(h.n, rhs[-1].N, rhs[-1].coeffs / (degree + j), copy=False))
    return Phi, rhs


def heat_coefficients_jet(h: HeatProblem) -> list:
    """The jets Phi_0 .. Phi_J, with Phi_j of order N - 2j.

    Phi_0 is the constant identity: at lambda = 0 the radial field's
    kernel is the constants and the initial condition Phi_0(0) = id pins
    the member.  Later Phi_j solve (D_X + j) Phi_j = -L Phi_{j-1}; D_X
    multiplies degree k by k, so dividing degree k of the right-hand
    side by k + j, nonzero for j >= 1, gives the unique solution.
    Raises NumericError if a coefficient of Phi_j is not finite.
    """
    return _heat_ladder(h)[0]


def heat_coefficients_numeric(h: HeatProblem, q) -> list:
    """Phi_0(q) .. Phi_J(q), each (..., m, m), by quadrature of the recursion
    integral at a point q of shape (n,) or at each point of a stack (P, n).

    Along the straight segment s -> s q the recursion reads

        Phi_j(q) = -Phi_0(q) int_0^1 s^{j-1} Phi_0(sq)^{-1} (L Phi_{j-1})(sq) ds,

    with Phi_0 = id on the flat trivial bundle.  One ladder's jets supply
    the derivatives inside L, at all nodes of a block of points in one
    monomial product of at most MAX_COEFFS entries, or one point's.  The
    integrand is a polynomial in s of degree at most Lj.N + j - 1, with
    Lj = L Phi_{j-1}, and Gauss-Legendre with k = (Lj.N + j + 1) // 2
    nodes is exact to degree 2k - 1, so one rule gives the integral.
    Raises NumericError naming the first point, in input order, whose
    Phi_j(q) is not finite, and its smallest such j.

    >>> h = HeatProblem(n=1, m=1, K=Jet.from_terms(1, 4, {(2,): 1.0}), J=1, N=4)
    >>> heat_coefficients_numeric(h, [[0.3], [0.6]])[1].ravel()  # -q^2 / 3
    array([-0.03, -0.12])
    """
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != h.n:
        raise ValidationError(f"point must have shape ({h.n},) or (P, {h.n})")
    return _heat_values(h, _heat_ladder(h)[1], q)


@np.errstate(over="ignore", invalid="ignore")  # checked below
def _heat_values(h: HeatProblem, ladder_rhs: list, q: np.ndarray) -> list:
    """heat_coefficients_numeric at a checked q, from the ladder's rhs."""
    pts = q.reshape(-1, h.n)
    out = [np.tile(np.eye(h.m).ravel(), (len(pts), 1))]  # Phi_j(q): a row a point
    for j, rhs in enumerate(ladder_rhs, start=1):
        x, w = np.polynomial.legendre.leggauss((rhs.N + j + 1) // 2)
        s, w = 0.5 * (x + 1.0), 0.5 * w  # the rule on [0, 1]
        block = max(1, MAX_COEFFS // (len(s) * len(rhs.coeffs)))
        values = (rhs.evaluate(b[:, None] * s[:, None]).reshape(len(b), len(s), -1)
                  for b in np.split(pts, range(block, len(pts), block)))
        out.append(np.concatenate([w * s ** (j - 1) @ v for v in values]))
    bad = np.argwhere(~np.isfinite(out).all(axis=2).T)  # (point, j) in input order
    if len(bad):
        p, j = bad[0]
        raise NumericError(f"Phi_{j} is not finite at the point {pts[p].tolist()}")
    return [v.reshape(q.shape[:-1] + (h.m, h.m)) for v in out]


@dataclass(frozen=True)
class WKBProblem:
    """One-dimensional WKB data near a nondegenerate minimum at 0.

    V is a scalar jet in one variable with V(0) = 0, V'(0) = 0 and
    V''(0) > 0; level is the quantum number alpha; J the number of
    lambda terms past lambda_0; N the jet order budget, 2 J + max(level, 1)
    + 2 <= N <= MAX_ORDER + 2 (else OrderBudgetError).  The well frequency
    mu (V = mu^2 x^2 + ...) needs 2 mu > NEAR_RESONANCE_TOL and lambda_0 =
    (2 level + 1) mu <= RESONANCE_TOL / eps (4.5e6), else ValidationError.
    """

    V: Jet
    level: int
    J: int
    N: int

    def __post_init__(self):
        V = self.V
        if V.n != 1 or V.value_shape != ():
            raise ValidationError("V must be a scalar jet in one variable")
        if V.is_complex:
            raise ValidationError("V must be real")
        if self.level < 0 or self.J < 0:
            raise ValidationError("level and J must be nonnegative")
        # solve orders: N - 2 <= MAX_ORDER down to N - 2 - 2 J >= max(level, 1)
        need = 2 * self.J + max(self.level, 1) + 2
        if not need <= self.N <= MAX_ORDER + 2:
            raise OrderBudgetError(
                f"order budget N={self.N} for J={self.J} terms at level "
                f"{self.level}: need N >= {need} and N <= {MAX_ORDER + 2}")
        V = V.extend(self.N) if V.N < self.N else V.project(self.N)
        scale = max(1.0, V.norm())
        if abs(V.coefficient((0,))) > 1e-12 * scale \
                or abs(V.coefficient((1,))) > 1e-12 * scale:
            raise ValidationError("V must vanish to second order at 0")
        if V.coefficient((2,)) <= 0:
            raise ValidationError("V''(0) must be positive")
        object.__setattr__(self, "V", V)
        if 2 * self.mu <= NEAR_RESONANCE_TOL:  # an absolute tolerance
            raise ValidationError(
                f"the well frequency mu = {self.mu:.3g} is too small: levels "
                f"2 mu apart fall within the tolerance {NEAR_RESONANCE_TOL:g}")
        # the level is matched as alpha (2 mu) + mu, rounded by lambda_0 eps
        rounding = (2 * self.level + 1) * self.mu * np.finfo(float).eps
        if rounding > RESONANCE_TOL:
            raise ValidationError(
                f"the well frequency mu = {self.mu:.3g} is too large for level "
                f"{self.level}: lambda_0 rounds by up to {rounding:.3g}, above "
                f"the resonance tolerance {RESONANCE_TOL:g}")

    @property
    def mu(self) -> float:
        return math.sqrt(float(self.V.coefficient((2,))))


@dataclass(frozen=True)
class WKBExpansion:
    """Result of wkb_expand: phase jet, lambda series, amplitude jets.

    The physical eigenvalue series is E(hbar) = sum_j hbar^{j+1} lambda_j.
    """

    phi: Jet
    mu: float
    level: int
    lambdas: tuple
    amplitudes: tuple

    def eigenvalue(self, hbar: float) -> float:
        return sum(lam * hbar ** (j + 1) for j, lam in enumerate(self.lambdas))


def _sqrt_one_plus(w: Jet) -> Jet:
    """Binomial series for sqrt(1 + w), for a jet w vanishing at 0."""
    acc = Jet.constant(w.n, w.N, 1.0)
    power = acc
    coeff = 1.0
    for k in range(1, w.N + 1):
        coeff *= (0.5 - (k - 1)) / k
        power = jet_mul(power, w)
        acc = acc + coeff * power
    return acc


def wkb_expand(w: WKBProblem) -> WKBExpansion:
    """Phase, eigenvalue series and amplitude jets for one level.

    a_0 has a unit x^level coefficient (the series is a line: every a_j
    scales with a_0 while the lambda_j are invariant).
    """
    N, alpha, mu = w.N, w.level, w.mu
    V = w.V

    # eiconal: V = mu^2 x^2 (1 + shifted), phi' = mu x sqrt(1 + shifted);
    # shifted(0) = 0 exactly, or phi''(0) misses mu and level 0 by an ulp
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        shifted = Jet(1, N - 2, np.r_[0.0, V.coeffs[3:] / mu ** 2], copy=False)
        root = _sqrt_one_plus(shifted).extend(N - 1)
        phi_prime = jet_mul(Jet.coordinate(1, N - 1, 0), root) * mu
        eik = jet_mul(phi_prime.extend(N), phi_prime.extend(N)) - V
    if not eik.norm() <= 1e-9 * max(1.0, V.norm()):  # NaN fails too
        raise NumericError("eiconal self-check failed; V data inconsistent")
    phi = Jet(1, N, np.r_[0.0, phi_prime.coeffs / np.arange(1, N + 1)], copy=False)

    X = VectorFieldJet([2.0 * phi_prime])
    A = phi_prime.partial(0)
    lam0 = (2 * alpha + 1) * mu

    # one factorization at M0 serves every level: level j solves at M_j
    M0 = N - 2
    p0 = ProblemData.scalar(X, A, Jet.zero(1, M0), lam0, M0)
    solve = _factor(p0, *resonance_degree(p0), RESONANCE_TOL)
    sol0 = solve(p0.v)
    if len(sol0.kernel_extensions) != 1:
        raise NumericError(
            f"level {alpha} is degenerate (kernel dimension "
            f"{len(sol0.kernel_extensions)}); expected a simple level")
    ker0 = sol0.kernel_extensions[0]
    top = ker0.coefficient((alpha,))[0]
    if abs(top) < 1e-12:
        raise NumericError("kernel element has no x^alpha component")
    a0 = Jet(1, M0, ker0.coeffs / top, copy=False)
    (T,) = sol0.duals  # one rank decision on the square head block
    denom = T.pair(a0)
    if abs(denom) < 1e-12 * max(1.0, a0.norm()):
        raise NumericError("dual kernel does not see the amplitude")

    lambdas, amps = [lam0], [a0]  # vector:1 amplitudes, the solver's shape
    for j in range(1, w.J + 1):
        M_j = M0 - 2 * j
        base = amps[j - 1].partial(0).partial(0)
        for i in range(1, j):
            base = base + lambdas[i] * amps[j - i].project(M_j)
        lam_j = -T.pair(base) / denom
        sol_j = solve(base + lam_j * a0.project(M_j))
        if sol_j.particular is None:
            raise NumericError(
                f"transport equation at order {j} unsolvable despite the "
                f"lambda_{j} correction; obstructions {sol_j.obstructions}")
        a_j, ker_j = sol_j.particular, sol_j.kernel_extensions[0]
        c = np.vdot(ker_j.coeffs, a_j.coeffs) / np.vdot(ker_j.coeffs, ker_j.coeffs)
        amps.append(a_j - float(c.real) * ker_j)  # the gauge: no kernel part
        lambdas.append(lam_j)
    return WKBExpansion(phi=phi, mu=mu, level=alpha, lambdas=tuple(lambdas),
                        amplitudes=tuple(Jet(1, a.N, a.coeffs[:, 0]) for a in amps))
