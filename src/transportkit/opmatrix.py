"""Matrix representation of the transport operator D_X + A on P_N tensor V.

The basis is the graded-lex monomial basis tensored with the value basis,
monomial index outer and value index inner (the value index varies fastest).
Because X vanishes at the base point, the operator never lowers degree, so
the matrix is block lower triangular with one block per degree; the degree-k
diagonal block is the action of D_0 + A(0) on homogeneous polynomials of
degree k, where D_0 is the linearization of X.

Assembly applies the operator to each basis jet with exact truncated
arithmetic, so integer inputs yield integer matrix entries.  The jet
solver builds only the diagonal slices (assemble_slice) and, for resonant
lambda, the head block of degrees <= N*; assemble of the whole operator
is the dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .jets import (
    Jet,
    P_dim,
    VectorFieldJet,
    degree_starts,
    jet_directional_derivative,
    jet_mul,
    monomial_rank,
    monomials,
)

__all__ = [
    "ProblemData",
    "OperatorMatrix",
    "assemble",
    "assemble_slice",
    "apply_operator",
    "jet_to_vec",
    "vec_to_jet",
]

# Guard for the dense-representation regime; beyond this the quadratic
# storage stops being a desk-scale object.
_MAX_DIM = 20_000


@dataclass(frozen=True)
class ProblemData:
    """A transport problem (D_X + A)u = lambda u + v truncated at order N.

    X is the vector field (vanishing at the base point, positive
    linearization spectrum expected by the solvers), A an (m x m)-valued
    jet, v an m-vector-valued jet, lam the eigenvalue shift.  Jets of
    lower order than N are treated as polynomial data and zero-padded.
    A real problem with complex lam is promoted to a complex problem.
    """

    X: VectorFieldJet
    A: Jet
    v: Jet
    lam: complex
    N: int

    def __post_init__(self):
        if len(self.A.value_shape) != 2:
            raise ShapeMismatchError("A must be a matrix-valued jet")
        if len(self.v.value_shape) != 1:
            raise ShapeMismatchError("v must be a vector-valued jet")
        if self.A.value_shape[0] != self.v.value_shape[0]:
            raise ShapeMismatchError(
                f"A acts on {self.A.value_shape[0]} components, "
                f"v has {self.v.value_shape[0]}")
        if self.X.n != self.A.n or self.X.n != self.v.n:
            raise ShapeMismatchError("X, A, v must share the variable count")
        if self.N < 1:
            raise ValidationError("order N must be at least 1")
        lam = complex(self.lam)
        X, A, v = self.X, self.A, self.v
        if lam.imag != 0.0 or any(j.is_complex for j in (A, v)) \
                or X.dtype == np.complex128:
            X, A, v = X.to_complex(), A.to_complex(), v.to_complex()
        if lam.imag == 0.0 and not A.is_complex:
            lam = lam.real
        # pad everything to the working order once
        object.__setattr__(self, "X", X.extend(self.N) if X.N < self.N
                           else X.project(self.N))
        object.__setattr__(self, "A", A.extend(self.N) if A.N < self.N
                           else A.project(self.N))
        object.__setattr__(self, "v", v.extend(self.N) if v.N < self.N
                           else v.project(self.N))
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.X.n

    @property
    def m(self) -> int:
        return self.A.value_shape[0]

    @property
    def is_complex(self) -> bool:
        return self.A.is_complex

    def at_order(self, N: int) -> "ProblemData":
        """The same problem truncated or zero-padded to working order N."""
        if N == self.N:
            return self
        return ProblemData(self.X, self.A, self.v, self.lam, N)

    def with_v(self, v: Jet) -> "ProblemData":
        return ProblemData(self.X, self.A, v, self.lam, self.N)

    def with_lam(self, lam) -> "ProblemData":
        return ProblemData(self.X, self.A, self.v, lam, self.N)

    @classmethod
    def scalar(cls, X: VectorFieldJet, a: Jet, v: Jet, lam, N: int) -> "ProblemData":
        """Convenience wrapper for scalar problems (m = 1)."""
        A = Jet(a.n, a.N, a.coeffs.reshape(-1, 1, 1))
        vv = Jet(v.n, v.N, v.coeffs.reshape(-1, 1))
        return cls(X, A, vv, lam, N)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of D_X + A in the graded monomial basis (lambda not included)."""

    entries: np.ndarray
    n: int
    N: int
    m: int
    basis: tuple = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def block(self, k_row: int, k_col: int) -> np.ndarray:
        """Sub-block coupling degree k_col into degree k_row."""
        r0, r1 = self.offsets[k_row], self.offsets[k_row + 1]
        c0, c1 = self.offsets[k_col], self.offsets[k_col + 1]
        return self.entries[r0:r1, c0:c1]


def jet_to_vec(u: Jet) -> np.ndarray:
    """Flatten a vector-valued jet into the basis order (monomial outer, value inner)."""
    return u.coeffs.reshape(-1)


def vec_to_jet(vec: np.ndarray, n: int, N: int, m: int) -> Jet:
    return Jet(n, N, np.asarray(vec).reshape(P_dim(n, N), m))


def _common_field(p: ProblemData, u: Jet):
    """p and u over one field: both promoted to complex when either is."""
    if u.is_complex and not p.is_complex:
        p = ProblemData(p.X, p.A.to_complex(), p.v, p.lam, p.N)
    if p.is_complex and not u.is_complex:
        u = u.to_complex()
    return p, u


def apply_operator(p: ProblemData, u: Jet) -> Jet:
    """(D_X + A) u by jet arithmetic at order min(p.N, u.N)."""
    order = min(p.N, u.N)
    q, uu = _common_field(p.at_order(order), u.project(order))
    return jet_directional_derivative(q.X, uu) + jet_mul(q.A, uu)


def assemble(p: ProblemData) -> OperatorMatrix:
    """Dense matrix of (D_X + A) on P_N tensor V.

    Column (alpha, j) holds the coefficients of (D_X + A)(y^alpha e_j).
    """
    n, N, m = p.n, p.N, p.m
    dim = m * P_dim(n, N)
    if dim > _MAX_DIM:
        raise ValidationError(
            f"operator dimension {dim} exceeds the dense-representation "
            f"limit {_MAX_DIM}")
    dtype = np.complex128 if p.is_complex else np.float64
    entries = np.zeros((dim, dim), dtype=dtype)
    basis = tuple((alpha, j) for alpha in monomials(n, N) for j in range(m))
    for col, (alpha, j) in enumerate(basis):
        unit = np.zeros((P_dim(n, N), m), dtype=dtype)
        unit[monomial_rank(n, N)[alpha], j] = 1.0
        image = apply_operator(p, Jet(n, N, unit, copy=False))
        entries[:, col] = jet_to_vec(image)
    return OperatorMatrix(entries=entries, n=n, N=N, m=m, basis=basis,
                          offsets=degree_starts(n, N) * m)


def assemble_slice(p: ProblemData, k: int) -> np.ndarray:
    """Matrix of D_0 + A(0) on the degree-k homogeneous slice tensor V.

    D_0 is the derivation generated by the linearization of X; the result
    equals the degree-k diagonal block of the full assembled matrix.
    """
    if not 0 <= k <= p.N:
        raise ValidationError(f"slice degree {k} outside [0, {p.N}]")
    n, m = p.n, p.m
    a = p.X.linearization
    A0 = p.A.coeffs[0]
    degree_k = [alpha for alpha in monomials(n, p.N) if sum(alpha) == k]
    rank = {alpha: i for i, alpha in enumerate(degree_k)}
    h = len(degree_k)
    dtype = np.complex128 if p.is_complex else np.float64
    out = np.zeros((h * m, h * m), dtype=dtype)
    for col_a, alpha in enumerate(degree_k):
        # D_0 y^alpha = sum_{i,j} alpha_j a[j,i] y^(alpha - e_j + e_i)
        for j in range(n):
            if alpha[j] == 0:
                continue
            for i in range(n):
                if a[j, i] == 0:
                    continue
                beta = list(alpha)
                beta[j] -= 1
                beta[i] += 1
                row_a = rank[tuple(beta)]
                for vi in range(m):
                    out[row_a * m + vi, col_a * m + vi] += alpha[j] * a[j, i]
        # A(0) acts on the value index
        for vi in range(m):
            for vj in range(m):
                out[col_a * m + vi, col_a * m + vj] += A0[vi, vj]
    return out
