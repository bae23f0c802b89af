"""Matrix representation of the transport operator D_X + A on P_N tensor V.

The basis is the graded-lex monomial basis tensored with the value basis,
monomial index outer and value index inner (the value index varies fastest).
Because X vanishes at the base point, the operator never lowers degree, so
the matrix is block lower triangular with one block per degree; the degree-k
diagonal block is the action of D_0 + A(0) on homogeneous polynomials of
degree k, where D_0 is the linearization of X.

One builder, _sparse_operator, scatters the index tables of the jet
product and derivative (jets._mul_table, jets._diff_table) into a
canonical CSR matrix, so integer inputs yield integer matrix entries.
The basis is graded, so the rows and columns of degree <= k are exactly
the operator at order k, and the rows of one degree are one contiguous
range of the CSR arrays: _row_blocks cuts the jet solver's resonant head
block and all its degree slices from the one matrix it factors per
operator in one pass, with no scipy.sparse slicing.  assemble is its dense
form, the public reference, and apply_operator its product with one
jet, so the package has one implementation of the operator; the
independent check on it, by jet arithmetic, is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .errors import NumericError, ShapeMismatchError, ValidationError
from .jets import (
    Jet,
    P_dim,
    VectorFieldJet,
    _diff_table,
    _mul_table,
    degree_starts,
    monomials,
)

__all__ = [
    "ProblemData",
    "OperatorMatrix",
    "assemble",
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
        jets = {"X": self.X, "A": self.A, "v": self.v}
        lam = complex(self.lam)
        cplx = lam.imag != 0.0 or any(j.is_complex for j in jets.values())
        # promote to one field and pad everything to the working order once
        for key, j in jets.items():
            j = j.to_complex() if cplx else j
            object.__setattr__(self, key, j.extend(self.N) if j.N < self.N
                               else j.project(self.N))
        object.__setattr__(self, "lam", lam if cplx else lam.real)

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
    """(D_X + A) u at order min(p.N, u.N), for an m-vector-valued jet u."""
    if u.n != p.n or u.value_shape != (p.m,):
        raise ShapeMismatchError(
            f"u must be a vector:{p.m} jet in {p.n} variables, got "
            f"value shape {u.value_shape} in {u.n}")
    order = min(p.N, u.N)
    q, uu = _common_field(p.at_order(order), u.project(order))
    return vec_to_jet(_sparse_operator(q) @ jet_to_vec(uu), q.n, order, q.m)


# an entry that overflows stays in the matrix, for _row_blocks to refuse
@np.errstate(over="ignore", invalid="ignore")
def _sparse_operator(p: ProblemData) -> csr_array:
    """(D_X + A) on P_N tensor V as a CSR matrix in the basis order (lambda not included).

    Column (beta, q) gains A_gamma[r, q] in row (gamma + beta, r) and,
    for gamma != 0, beta_i X^i_gamma in row (gamma + beta - e_i, q).
    """
    n, N, m = p.n, p.N, p.m
    ii, jj, kk = _mul_table(n, N)
    r = np.arange(m)
    rows, cols, vals = [], [], []
    # X(0) = 0; for gamma != 0 the cofactor y^delta = y^(beta - e_i) has
    # degree < N, and _diff_table lists beta at the rank of delta
    gamma, delta, row = (a[ii != 0] for a in (ii, jj, kk))
    for i in range(n):
        beta, beta_i = (a[delta] for a in _diff_table(n, N, i))
        rows.append(row[:, None] * m + r)
        cols.append(beta[:, None] * m + r)
        vals.append(np.repeat(beta_i * p.X.coeffs[gamma, i], m))
    rows.append(np.broadcast_to(kk[:, None, None] * m + r[:, None],
                                (kk.size, m, m)))
    cols.append(np.broadcast_to(jj[:, None, None] * m + r, (kk.size, m, m)))
    vals.append(p.A.coeffs[ii])
    rows, cols, vals = (np.concatenate([a.ravel() for a in parts])
                        for parts in (rows, cols, vals))
    keep = vals != 0
    dim = m * P_dim(n, N)
    # add repeated entries in the order D_0, ..., D_{n-1}, A, the order of
    # the jet-arithmetic oracle reference_apply_operator of the tests, so
    # the matrix is its action on each basis jet bit for bit
    keys, slot = np.unique(rows[keep] * dim + cols[keep], return_inverse=True)
    entries = np.zeros(keys.size, dtype=vals.dtype)
    np.add.at(entries, slot, vals[keep])
    row, col = np.divmod(keys, dim)  # sorted and unique: canonical CSR
    return csr_array((entries, col, np.searchsorted(row, np.arange(dim + 1))),
                     shape=(dim, dim))


def _row_blocks(L: csr_array, bounds, lam, names):
    """The rows of L between consecutive bounds, cut in one pass over its CSR arrays.

    For each range bounds[i]:bounds[i + 1] of the array bounds of degree
    offsets: its dense diagonal block minus lam, a view of one flat buffer,
    right of which the rows have no entry (the operator never lowers
    degree), and the entries left of it as (row - bounds[i], column, value)
    in CSR order.  NumericError names by names[i] the first range with an
    entry that is not finite.
    """
    sizes, ptr = np.diff(bounds), L.indptr[bounds[0]:bounds[-1] + 1]
    cols, vals = L.indices[ptr[0]:ptr[-1]], L.data[ptr[0]:ptr[-1]]
    row_seg = np.repeat(np.arange(sizes.size), sizes)  # the range of each row
    row_loc = np.arange(bounds[0], bounds[-1]) - bounds[row_seg]
    seg, loc = (np.repeat(a, np.diff(ptr)) for a in (row_seg, row_loc))
    if not np.isfinite(vals).all():
        raise NumericError(f"{names[seg[~np.isfinite(vals)][0]]} of the operator is "
                           "not finite")
    base = np.concatenate(([0], np.cumsum(sizes * sizes)))
    buf = np.zeros(base[-1], dtype=L.dtype)
    diag = cols >= bounds[seg]  # the keys are unique
    buf[(base[seg] + loc * sizes[seg] + cols - bounds[seg])[diag]] = vals[diag]
    buf[base[row_seg] + row_loc * (sizes[row_seg] + 1)] -= lam
    ends = np.concatenate(([0], np.cumsum(~diag)))[ptr[bounds - bounds[0]] - ptr[0]]
    left = loc[~diag], cols[~diag], vals[~diag]
    return [(buf[base[i]:base[i + 1]].reshape(h, h),
             tuple(a[ends[i]:ends[i + 1]] for a in left)) for i, h in enumerate(sizes)]


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
    basis = tuple((alpha, j) for alpha in monomials(n, N) for j in range(m))
    return OperatorMatrix(entries=_sparse_operator(p).toarray(), n=n, N=N,
                          m=m, basis=basis, offsets=degree_starts(n, N) * m)
