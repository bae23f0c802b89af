"""Spectral data of the transport operator: resonances, kernels, dual kernels.

On P_N tensor V the operator D_X + A has eigenvalues

    lambda = alpha . mu + rho_j

where mu are the eigenvalues of the linearization of X and rho those of
A(0).  When every Re mu_i >= nu > 0 only finitely many multi-indices can
hit a given lambda, so resonance enumeration terminates.  The geometric
multiplicity of lambda lies between 1 and the number of representations.

Kernel and dual kernel come from one SVD of the head block (degrees up to
the resonance degree) with a relative rank threshold, floored at the
resonance tolerance; dual kernels are
returned as distributions supported at the base point.  A distribution
stores one covector per multi-index and pairs against Taylor-normalized
jet coefficients:

    T(u) = sum_alpha t_alpha(u_alpha)

The delta-derivative form uses functionals u -> xi(D^alpha u(0)), which
multiply each Taylor coefficient by alpha!; converting to that form
therefore divides the stored covectors by alpha! (and multiplying by
alpha! converts back).  Keeping the Taylor-normalized form internally
avoids factorial growth in the linear algebra.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (NearResonanceWarning, RankAmbiguityWarning, ValidationError,
                     _stacklevel)
from .jets import (MAX_COEFFS, Jet, P_dim, VectorFieldJet, _compositions,
                   _encode_value, fits)
from .opmatrix import ProblemData, _row_blocks, _sparse_operator

__all__ = [
    "RESONANCE_TOL",
    "OBSTRUCTION_TOL",
    "NEAR_RESONANCE_TOL",
    "RANK_RTOL",
    "ResonanceEntry",
    "DualDistribution",
    "RankReport",
    "linearization_spectrum",
    "endo_spectrum",
    "enumerate_resonances",
    "resonance_degree",
    "eigenvalue_table",
    "nullspace",
    "kernel_basis",
    "dual_kernel_basis",
    "SolvabilityResult",
    "solvability_test",
    "sternberg_resonance_check",
]

RESONANCE_TOL = 1e-9
OBSTRUCTION_TOL = 1e-9  # relative: the pairings with v against ||v||
NEAR_RESONANCE_TOL = 1e-6
RANK_RTOL = 1e-10


def _sorted_spectrum(vals: np.ndarray) -> np.ndarray:
    """Deterministic order: ascending real part, then imaginary part.

    Sort keys are snapped at 1e-12 relative so eigensolver noise cannot
    split a conjugate pair whose real parts are equal in exact arithmetic.
    """
    vals = np.asarray(vals, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    re_key = np.round(vals.real / scale, 12)
    im_key = np.round(vals.imag / scale, 12)
    order = np.lexsort((im_key, re_key))
    return vals[order]


def linearization_spectrum(X: VectorFieldJet) -> np.ndarray:
    """Eigenvalues mu of the linearization of X, sorted by (Re, Im)."""
    return _sorted_spectrum(np.linalg.eigvals(X.linearization.astype(complex)))


def endo_spectrum(A0: np.ndarray) -> np.ndarray:
    """Eigenvalues rho of the endomorphism A(0), sorted by (Re, Im)."""
    A0 = np.asarray(A0, dtype=complex)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ValidationError("endo_spectrum expects a square matrix")
    return _sorted_spectrum(np.linalg.eigvals(A0))


@dataclass(frozen=True)
class ResonanceEntry:
    """All ways to write lambda = alpha . mu + rho_j within tolerance."""

    lam: complex
    representations: tuple  # of (alpha tuple, rho index)
    max_alpha_degree: int

    @property
    def multiplicity(self) -> int:
        return len(self.representations)


def _degree_bound(mu: np.ndarray, rho: np.ndarray, re_target: float,
                  tol: float):
    """Largest |alpha| that can reach Re(alpha.mu + rho_j) <= re_target + tol."""
    nu = float(np.min(mu.real))
    if nu <= 0:
        raise ValidationError(
            "resonance enumeration needs Re mu_i > 0 for every eigenvalue "
            f"of the linearization (got min Re mu = {nu})")
    slack = re_target - float(np.min(rho.real)) + tol
    if slack < 0:
        return -1
    # the cap keeps an unbounded ratio finite; _combinations refuses it
    return int(min(slack / nu, MAX_COEFFS))


def _combinations(mu: np.ndarray, rho: np.ndarray, re_target: float,
                  tol: float, min_degree: int = 0):
    """Yield (alpha, j, alpha . mu + rho_j) for |alpha| from min_degree up
    to _degree_bound, alpha in graded-lex order, then j over the rho
    indices.  More than MAX_COEFFS multi-indices, or 4 MAX_COEFFS operations
    (n products and one sum per j each), raise ValidationError before the first.
    """
    amax = _degree_bound(mu, rho, re_target, tol)
    if amax < 0:
        return
    if not fits(mu.shape[0], amax):
        raise ValidationError(
            f"resonance enumeration up to degree {amax} in {mu.shape[0]} "
            f"variables visits more than {MAX_COEFFS} multi-indices")
    if P_dim(mu.size, amax) * (mu.size + rho.size) > 4 * MAX_COEFFS:
        raise ValidationError(
            f"resonance enumeration up to degree {amax} in {mu.size} variables "
            f"and {rho.size} rho values takes over {4 * MAX_COEFFS} operations")
    # degree by degree, so that no table of multi-indices is built or cached
    for degree in range(min_degree, amax + 1):
        for alpha in _compositions(degree, mu.shape[0]):
            base = sum(a * u for a, u in zip(alpha, mu))
            for j in range(rho.shape[0]):
                yield alpha, j, base + rho[j]


def enumerate_resonances(mu, rho, lam, tol: float = RESONANCE_TOL):
    """Find every (alpha, j) with |alpha . mu + rho_j - lam| <= tol.

    Returns a ResonanceEntry, or None when lambda is non-resonant.
    Combinations missing lambda by less than NEAR_RESONANCE_TOL (but more
    than tol) trigger a NearResonanceWarning; a negative tolerance is a
    ValidationError.  Representations are listed in graded-lex order on
    alpha, then by rho index.
    """
    if not tol >= 0:
        raise ValidationError(f"tolerances must be nonnegative (tol={tol})")
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    lam = complex(lam)
    reps = []
    near = []
    for alpha, j, val in _combinations(mu, rho, lam.real,
                                       max(tol, NEAR_RESONANCE_TOL)):
        gap = abs(val - lam)
        if gap <= tol:
            reps.append((alpha, j))
        elif gap <= NEAR_RESONANCE_TOL:
            near.append((alpha, j, gap))
    for alpha, j, gap in near:
        warnings.warn(
            f"near resonance: alpha={alpha}, rho index {j} misses lambda "
            f"by {gap:.3e}", NearResonanceWarning, stacklevel=_stacklevel())
    if not reps:
        return None
    return ResonanceEntry(lam=lam, representations=tuple(reps),
                          max_alpha_degree=max(sum(a) for a, _ in reps))


def resonance_degree(p: ProblemData, tol: float = RESONANCE_TOL):
    """Resonance entry of p.lam (None when non-resonant) and its degree N*.

    N* is the largest |alpha| among the representations of lambda (0 when
    non-resonant), the smallest working order at which the jet solver
    sees all of them.
    """
    mu = linearization_spectrum(p.X)
    rho = endo_spectrum(p.A.coeffs[0])
    entry = enumerate_resonances(mu, rho, p.lam, tol)
    return entry, (entry.max_alpha_degree if entry is not None else 0)


def eigenvalue_table(mu, rho, max_re: float, tol: float = RESONANCE_TOL):
    """Eigenvalues alpha . mu + rho_j of D_X + A with Re <= max_re + tol.

    Sorted by (Re, Im); the sort is stable, so ties keep the enumeration's
    graded-lex order on alpha, then j.  A value within tol of the first
    value of the current cluster joins that cluster.
    Returns one dict per cluster with keys re, im, multiplicity and
    representations (a list of {"alpha": [...], "j": j}).
    """
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    found = [(complex(val), alpha, j)
             for alpha, j, val in _combinations(mu, rho, max_re, tol)
             if val.real <= max_re + tol]
    found.sort(key=lambda t: (t[0].real, t[0].imag))
    clusters = []
    for lam, alpha, j in found:
        rep = {"alpha": list(alpha), "j": j}
        if clusters and abs(lam - clusters[-1][0]) <= tol:
            clusters[-1][1].append(rep)
        else:
            clusters.append((lam, [rep]))
    return [{"re": lam.real, "im": lam.imag, "multiplicity": len(reps),
             "representations": reps} for lam, reps in clusters]


@dataclass(frozen=True)
class RankReport:
    """Diagnostics of an SVD rank decision."""

    singular_values: np.ndarray
    threshold: float
    rank: int
    nullity: int
    gap: float  # ratio of smallest kept to largest dropped singular value


def _svd_rank(mat: np.ndarray, floor: float = 0.0):
    """SVD of mat and its rank decision: (U, s, Vh, RankReport).

    The rank threshold is RANK_RTOL * sigma_max, raised to floor.  A gap
    below 1e3 between the singular values on either side of the threshold
    triggers RankAmbiguityWarning.
    """
    U, s, Vh = np.linalg.svd(mat)
    sigma_max = s[0] if s.size else 0.0
    threshold = max(RANK_RTOL * sigma_max, floor)
    rank = int(np.sum(s > threshold))
    nullity = mat.shape[1] - rank
    kept = s[rank - 1] if rank > 0 else np.inf
    dropped = s[rank] if rank < s.size else 0.0
    gap = float(kept / dropped) if dropped > 0 else math.inf
    if nullity > 0 and gap < 1e3:
        warnings.warn(
            f"rank decision ambiguous: singular-value gap {gap:.2e} around "
            f"threshold {threshold:.3e}", RankAmbiguityWarning,
            stacklevel=_stacklevel())
    return U, s, Vh, RankReport(singular_values=s, threshold=float(threshold),
                                rank=rank, nullity=nullity, gap=gap)


def nullspace(mat: np.ndarray):
    """Orthonormal right null basis, shape (dim, nullity), and its RankReport."""
    mat = np.asarray(mat)
    _, _, Vh, report = _svd_rank(mat)
    return _canonicalize_columns(Vh[report.rank:].conj().T), report


def _canonicalize_columns(basis: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry is real and positive (deterministic output)."""
    basis = np.array(basis)
    for k in range(basis.shape[1]):
        col = basis[:, k]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if pivot != 0:
            basis[:, k] = col * (abs(pivot) / pivot)
    if not np.iscomplexobj(basis):
        return basis
    if not np.any(basis.imag):  # also an empty basis
        return basis.real.copy()
    return basis


def kernel_basis(p: ProblemData, tol: float = RESONANCE_TOL):
    """Jets spanning the kernel of (D_X + A - lambda) on P_N tensor V.

    The working order is raised to the largest resonance degree when the
    stated N is below it, with no cap.  These are the kernel extensions
    of solve_to_order.  Returns [] for non-resonant lambda.
    """
    from .taylor import _factor  # taylor imports this module
    entry, n_star = resonance_degree(p, tol)
    if entry is None:
        return []
    q = p.at_order(max(p.N, n_star))
    return list(_factor(q, entry, n_star, tol)(q.v).kernel_extensions)


class DualDistribution(Jet):
    """A functional supported at the base point, of finite order.

    An (m,)-valued jet of order N = order: one covector t_alpha per row.
    Pairing: T(u) = sum_alpha t_alpha . u_alpha against Taylor-normalized
    coefficients of u.
    """

    __slots__ = ()

    def __init__(self, n: int, order: int, coeffs: np.ndarray, *, copy=True):
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 2 or coeffs.shape[0] != P_dim(n, order):
            raise ValidationError(
                f"dual coefficients must have shape (P_dim({n},{order}), m)")
        super().__init__(n, order, coeffs, copy=copy)

    @property
    def order(self) -> int:
        return self.N

    @property
    def m(self) -> int:
        return self._coeffs.shape[1]

    def pair(self, u: Jet):
        """Evaluate on a vector-valued jet of order >= self.order."""
        if u.n != self.n:
            raise ValidationError("variable count mismatch in dual pairing")
        if len(u.value_shape) != 1 or u.value_shape[0] != self.m:
            raise ValidationError("dual pairing needs a matching vector-valued jet")
        if u.N < self.order:
            u = u.extend(self.order)
        head = u.coeffs[:self._coeffs.shape[0]]
        val = np.sum(self._coeffs * head)  # bilinear pairing, no conjugation
        return complex(val) if np.iscomplexobj(val) else float(val)

    def to_delta_form(self) -> dict:
        """Coefficients against the functionals u -> D^alpha u(0).

        Those functionals act on a jet as alpha! times the Taylor
        coefficient, so the stored covectors are divided by alpha!.
        """
        return {alpha: c / math.prod(math.factorial(a) for a in alpha)
                for alpha, c in self.terms()}

    def to_json(self) -> dict:
        return {"n": self.n, "order": self.order, "m": self.m,
                "terms": [{"alpha": list(alpha), "covector": _encode_value(c)}
                          for alpha, c in self.terms()]}

    def __repr__(self):
        return f"DualDistribution(n={self.n}, order={self.order}, m={self.m})"


def _head_split(p: ProblemData, L, order: int, tol: float):
    """One SVD of the head block (degrees <= order) of D_X + A - lambda.

    L is the sparse operator of p at any working order >= max(order, 1);
    the basis is graded, so its leading rows of degree <= order are the
    head block (NumericError when not finite).  Returns (kernel, duals,
    solve): the right null basis as columns, the left null basis in the
    bilinear pairing (no conjugation) as a tuple of DualDistributions of
    the given order, and the minimum-norm solve of head x = b on the kept
    singular values, all by one rank decision.  tol is the resonance
    screen's tolerance and floors the rank threshold: the screen found an
    eigenvalue of the block within tol of 0, and sigma_min <= |eigenvalue|,
    so the block keeps a kernel even when it is all rounding residue and
    its own sigma_max is tiny.
    """
    h = P_dim(p.n, order) * p.m
    block = _row_blocks(L, np.array([0, h]), p.lam,
                        [f"the head block (degrees <= {order})"])[0][0]
    U, s, Vh, report = _svd_rank(block, tol)
    r = report.rank
    left = _canonicalize_columns(U[:, r:].conj())
    tiny = 10 * h * np.finfo(float).eps * np.abs(left).max(axis=0, initial=0.0)
    for part in (left.real, left.imag) if np.iscomplexobj(left) else (left,):
        part[np.abs(part) < tiny] = 0.0  # round-off, not support
    duals = tuple(DualDistribution(p.n, order, left[:, k].reshape(-1, p.m))
                  for k in range(left.shape[1]))

    def solve(b: np.ndarray) -> np.ndarray:
        return Vh[:r].conj().T @ ((U[:, :r].conj().T @ b) / s[:r])

    return _canonicalize_columns(Vh[r:].conj().T), duals, solve


def dual_kernel_basis(p: ProblemData, tol: float = RESONANCE_TOL):
    """Distributions spanning the kernel of the adjoint of (D_X + A - lambda).

    Above the largest resonance degree N' the operator is block lower
    triangular with invertible diagonal slices, so every left null vector
    vanishes there: the basis is the left null space of the head block
    (degrees <= N'), as distributions of order N': the duals of the jet
    solver's head screen, read off _head_split at order max(N', 1) with no
    slice solved.  [] for non-resonant lambda.
    """
    entry, n_prime = resonance_degree(p, tol)
    if entry is None:
        return []
    q = p.at_order(max(n_prime, 1))
    return list(_head_split(q, _sparse_operator(q), n_prime, tol)[1])


@dataclass(frozen=True)
class SolvabilityResult:
    solvable: bool
    obstructions: tuple  # values of the dual kernel basis on v


def solvability_test(p: ProblemData, tol: float = RESONANCE_TOL) -> SolvabilityResult:
    """Check whether every dual kernel functional annihilates v.

    tol is the resonance tolerance, as for solve_to_order; the aggregate
    criterion sqrt(sum |T_i(v)|^2) <= OBSTRUCTION_TOL * ||v|| matches the
    least-squares residual of the projected system because the T_i form an
    orthonormal basis of the left null space.
    """
    return _screen(dual_kernel_basis(p, tol), p.v, OBSTRUCTION_TOL)


def _screen(duals, v: Jet, tol: float) -> SolvabilityResult:
    """Pair v with each dual; solvable when their 2-norm is <= tol * ||v||."""
    obstructions = tuple(d.pair(v) for d in duals)
    scale = max(v.norm(), np.finfo(float).tiny)
    total = math.sqrt(sum(abs(o) ** 2 for o in obstructions))
    return SolvabilityResult(solvable=bool(total <= tol * scale),
                             obstructions=obstructions)


def sternberg_resonance_check(mu, tol: float = RESONANCE_TOL):
    """List (j, alpha) with |alpha| >= 2 and mu_j = alpha . mu within tol.

    An empty list means the linearization spectrum admits no resonant
    integer combinations, the obstruction relevant for smooth
    linearization of the field.  Some Re mu_i <= 0 is a ValidationError.
    """
    mu = np.asarray(mu, dtype=complex)
    # one enumeration of alpha . mu - mu_j for all j, stably sorted j first
    hits = _combinations(mu, -mu, 0.0, tol, min_degree=2)
    return sorted(((j, alpha) for alpha, j, val in hits if abs(val) <= tol),
                  key=lambda hit: hit[0])
