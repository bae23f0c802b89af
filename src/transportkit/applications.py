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
coefficients need N >= 2J + 1 (heat) respectively N >= 2J + alpha + 2
(WKB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, OrderBudgetError, ValidationError
from .jets import (Jet, VectorFieldJet, _monomial_vector, jet_mul,
                   monomial_powers)
from .opmatrix import ProblemData
from .spectral import NEAR_RESONANCE_TOL, dual_kernel_basis
from .taylor import solve_to_order

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


def heat_coefficients_jet(h: HeatProblem) -> list:
    """The jets Phi_0 .. Phi_J, with Phi_j of order N - 2j.

    Phi_0 is the constant identity: at lambda = 0 the radial field's
    kernel is the constants and the initial condition Phi_0(0) = id pins
    the member.  Later Phi_j solve (D_X + j) Phi_j = -L Phi_{j-1}; D_X
    multiplies degree k by k, so dividing degree k of the right-hand
    side by k + j, nonzero for j >= 1, gives the unique solution.
    """
    out = [Jet.constant(h.n, h.N, np.eye(h.m))]
    for j in range(1, h.J + 1):
        rhs = -_apply_L(h.K, out[-1])
        degree = monomial_powers(h.n, rhs.N).sum(axis=1)[:, None, None]
        out.append(Jet(h.n, rhs.N, rhs.coeffs / (degree + j), copy=False))
    return out


def heat_coefficients_numeric(h: HeatProblem, q, *,
                              tol: float = 1e-10) -> list:
    """Phi_0(q) .. Phi_J(q) by quadrature of the recursion integral.

    Along the straight segment s -> s q the recursion reads

        Phi_j(q) = -Phi_0(q) int_0^1 s^{j-1} Phi_0(sq)^{-1} (L Phi_{j-1})(sq) ds,

    with Phi_0 = id on the flat trivial bundle.  The jets supply the
    derivatives inside L, at all nodes of a rule in one monomial product;
    Gauss-Legendre with node doubling supplies the s-integral.  Raises
    NumericError if doubling stalls above 512 nodes, and ValidationError
    unless tol is positive.
    """
    if not tol > 0:
        raise ValidationError(f"quadrature tolerance must be positive, got {tol}")
    q = np.asarray(q, dtype=float)
    if q.shape != (h.n,):
        raise ValidationError(f"point must have shape ({h.n},)")
    jets = heat_coefficients_jet(h)
    out = [np.eye(h.m)]
    for j in range(1, h.J + 1):
        Lj = _apply_L(h.K, jets[j - 1])
        val = None
        for nodes in (8, 16, 32, 64, 128, 256, 512, 1024):
            x, w = np.polynomial.legendre.leggauss(nodes)
            s, w = 0.5 * (x + 1.0), 0.5 * w  # the rule on [0, 1]
            values = np.tensordot(_monomial_vector(s[:, None] * q, Lj.N),
                                  Lj.coeffs, axes=1)  # L Phi_{j-1} at each node
            nxt = -np.tensordot(w * s ** (j - 1), values, axes=1)
            if val is not None and (np.max(np.abs(nxt - val))
                                    <= tol * (1.0 + np.max(np.abs(nxt)))):
                break
            val = nxt
        else:
            raise NumericError(
                f"quadrature for Phi_{j} did not settle by {nodes} nodes")
        out.append(nxt)
    return out


@dataclass(frozen=True)
class WKBProblem:
    """One-dimensional WKB data near a nondegenerate minimum at 0.

    V is a scalar jet in one variable with V(0) = 0, V'(0) = 0 and
    V''(0) > 0; level is the quantum number alpha; J the number of
    lambda terms past lambda_0; N the jet order budget.  The well
    frequency mu (V = mu^2 x^2 + higher) must exceed half of
    spectral.NEAR_RESONANCE_TOL, or ValidationError names it.
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
        need = 2 * self.J + self.level + 2
        if self.N < need:
            raise OrderBudgetError(
                f"order budget N={self.N} cannot carry J={self.J} terms at "
                f"level {self.level}; need N >= {need}")
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


def _antiderivative_1d(u: Jet) -> Jet:
    out = np.zeros(u.N + 2, dtype=u.dtype)
    out[1:] = u.coeffs / np.arange(1, u.N + 2)
    return Jet(1, u.N + 1, out, copy=False)


def _kernel_gauge(a: Jet, ker: Jet) -> Jet:
    c = np.vdot(ker.coeffs, a.coeffs) / np.vdot(ker.coeffs, ker.coeffs)
    return a - float(c.real) * ker


def wkb_expand(w: WKBProblem, *, amplitude_scale: float = 1.0) -> WKBExpansion:
    """Phase, eigenvalue series and amplitude jets for one level.

    amplitude_scale rescales a_0 (the series is a line: every a_j scales
    with it while the lambda_j are invariant).
    """
    N, alpha, mu = w.N, w.level, w.mu
    V = w.V

    # eiconal: V = mu^2 x^2 (1 + shifted), phi' = mu x sqrt(1 + shifted)
    shifted = Jet(1, N - 2, V.coeffs[2:] / mu ** 2, copy=False) \
        - Jet.constant(1, N - 2, 1.0)
    root = _sqrt_one_plus(shifted).extend(N - 1)
    phi_prime = jet_mul(Jet.coordinate(1, N - 1, 0), root) * mu
    eik = jet_mul(phi_prime.extend(N), phi_prime.extend(N)) - V
    if not eik.norm() <= 1e-9 * max(1.0, V.norm()):  # NaN fails too
        raise NumericError("eiconal self-check failed; V data inconsistent")
    phi = _antiderivative_1d(phi_prime)

    X = VectorFieldJet([2.0 * phi_prime])
    A = phi_prime.partial(0)
    lam0 = (2 * alpha + 1) * mu

    M0 = N - 2
    p0 = ProblemData.scalar(X, A, Jet.zero(1, M0), lam0, M0)
    sol0 = solve_to_order(p0, M0)
    if len(sol0.kernel_extensions) != 1:
        raise NumericError(
            f"level {alpha} is degenerate (kernel dimension "
            f"{len(sol0.kernel_extensions)}); expected a simple level")
    ker0 = sol0.kernel_extensions[0]
    top = ker0.coefficient((alpha,))[0]
    if abs(top) < 1e-12:
        raise NumericError("kernel element has no x^alpha component")
    a0 = Jet(1, M0, ker0.coeffs[:, 0] * (amplitude_scale / top), copy=False)

    duals = dual_kernel_basis(p0)
    if len(duals) != 1:
        raise NumericError("expected a one-dimensional dual kernel")
    T = duals[0]

    def pair(u: Jet) -> float:
        return float(T.pair(Jet(1, u.N, u.coeffs.reshape(-1, 1))))

    denom = pair(a0)
    if abs(denom) < 1e-12 * max(1.0, a0.norm()):
        raise NumericError("dual kernel does not see the amplitude")

    lambdas = [lam0]
    amps = [a0]
    for j in range(1, w.J + 1):
        M_j = M0 - 2 * j
        base = amps[j - 1].partial(0).partial(0)
        for i in range(1, j):
            base = base + lambdas[i] * amps[j - i].project(M_j)
        lam_j = -pair(base) / denom
        rhs = base + lam_j * a0.project(M_j)
        p_j = ProblemData.scalar(X, A, rhs, lam0, M_j)
        sol_j = solve_to_order(p_j, M_j)
        if sol_j.particular is None:
            raise NumericError(
                f"transport equation at order {j} unsolvable despite the "
                f"lambda_{j} correction; obstructions {sol_j.obstructions}")
        a_j = Jet(1, M_j, sol_j.particular.coeffs[:, 0], copy=False)
        ker_j = Jet(1, M_j, sol_j.kernel_extensions[0].coeffs[:, 0], copy=False)
        amps.append(_kernel_gauge(a_j, ker_j))
        lambdas.append(lam_j)
    return WKBExpansion(phi=phi, mu=mu, level=alpha,
                        lambdas=tuple(lambdas), amplitudes=tuple(amps))
