"""Truncated Taylor polynomials (jets) in n variables.

A jet of order N stores the coefficients of a polynomial modulo terms of
degree > N, i.e. an element of the quotient P_N = C^inf / m^(N+1) where m
is the ideal of functions vanishing at the base point.  Coefficients are
Taylor-normalized: the coefficient stored for the multi-index ``alpha`` is
``D^alpha u(0) / alpha!``, so a jet literally lists monomial coefficients.

Monomials are ordered graded-lexicographically: ascending total degree,
and within a degree the variable with the smallest index dominates.  For
two variables through degree 2 the basis reads

    1, y1, y2, y1^2, y1*y2, y2^2

Values may be scalars, vectors (length m) or square matrices (m x m);
the coefficient array has shape ``(P_dim(n, N), *value_shape)``.  Jets are
immutable: every operation returns a new jet and the coefficient buffer is
marked read-only.

A vector field X is an (n,)-valued jet (:class:`VectorFieldJet`); u, v and
the dual-kernel distributions (``spectral.DualDistribution``) are
(m,)-valued, and A is (m, m)-valued.

The scalar field is carried by the coefficient dtype (float64 or
complex128).  Mixing fields raises ``FieldMismatchError``; promote a real
jet explicitly with :meth:`Jet.to_complex`.

>>> y1 = Jet.coordinate(2, 2, 0)
>>> y2 = Jet.coordinate(2, 2, 1)
>>> float((y1 * y2).coefficient((1, 1)))
1.0
>>> u = Jet.from_terms(2, 2, {(0, 0): 1.0, (1, 0): 1.0})   # 1 + y1
>>> v = Jet.from_terms(2, 2, {(0, 0): 1.0, (1, 0): -1.0})  # 1 - y1
>>> (u * v) == Jet.from_terms(2, 2, {(0, 0): 1.0, (2, 0): -1.0})
True

Truncation is exact quotient arithmetic: multiplying representatives and
truncating equals multiplying in P_N, and directional derivatives along a
vector field with no constant term descend to P_N as well.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache

import numpy as np

from .errors import (FieldMismatchError, SchemaError, ShapeMismatchError,
                     ValidationError)

__all__ = [
    "P_dim",
    "monomials",
    "monomial_rank",
    "monomial_powers",
    "degree_starts",
    "grlex_key",
    "Jet",
    "VectorFieldJet",
    "jet_mul",
    "jet_to_json",
    "jet_from_json",
]


# The most coefficients jet_from_json allocates (8 MiB of float64), far
# above the P_dim(3, 64) = 47,905 rows of a three-variable jet at MAX_ORDER;
# also the most index triples _mul_table builds and the most multi-indices
# a resonance enumeration visits.
MAX_COEFFS = 1 << 20


def P_dim(n: int, N: int) -> int:
    """Dimension of the space of polynomials of degree <= N in n variables."""
    return math.comb(n + N, n)


def fits(n: int, N: int, width: int = 1) -> bool:
    """True when P_dim(n, N) rows of width entries stay within MAX_COEFFS."""
    # P_dim(n, N) >= C(2k, k) > MAX_COEFFS for k = min(n, N) >= 32
    return min(n, N) < 32 and P_dim(n, N) * width <= MAX_COEFFS


def grlex_key(alpha):
    """Sort key realizing the graded-lexicographic order on multi-indices."""
    return (sum(alpha), tuple(-a for a in alpha))


def _compositions(total: int, parts: int):
    """Weak compositions of `total` into `parts` slots, first slot largest
    first; lazy and without recursion, so that any n fits the stack."""
    alpha = [total] + [0] * (parts - 1)
    while True:
        yield tuple(alpha)
        # the last nonzero slot before the final one gives up a unit, and
        # the slot after it takes that unit and the final slot's share
        i = parts - 2
        while i >= 0 and alpha[i] == 0:
            i -= 1
        if i < 0:
            return
        rest, alpha[-1] = alpha[-1] + 1, 0
        alpha[i] -= 1
        alpha[i + 1] = rest


@lru_cache(maxsize=None)
def monomials(n: int, N: int) -> tuple:
    """All multi-indices with |alpha| <= N in graded-lex order."""
    if n < 1 or N < 0:
        raise ValueError(f"need n >= 1 and N >= 0, got n={n}, N={N}")
    out = []
    for degree in range(N + 1):
        out.extend(_compositions(degree, n))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_rank(n: int, N: int) -> dict:
    """Map multi-index -> position in the graded-lex basis."""
    return {alpha: i for i, alpha in enumerate(monomials(n, N))}


@lru_cache(maxsize=None)
def monomial_powers(n: int, N: int) -> np.ndarray:
    """Exponent matrix, shape (P_dim, n); row i is the i-th multi-index."""
    E = np.array(monomials(n, N), dtype=np.int64).reshape(P_dim(n, N), n)
    E.setflags(write=False)
    return E


@lru_cache(maxsize=None)
def _power_index(n: int, N: int):
    """Flat positions of y_j**alpha_j in an (n, N + 1) power table, shape
    (P_dim, n), the table's exponents 0..N and its width n (N + 1).

    The exponents are floats: float ** int would cast them on every call
    to the same values.  The width, unlike -1, reshapes an empty stack.
    """
    idx = monomial_powers(n, N) + (N + 1) * np.arange(n)
    exponents = np.arange(N + 1, dtype=float)
    idx.setflags(write=False)
    exponents.setflags(write=False)
    return idx, exponents, n * (N + 1)


def _monomial_vector(point: np.ndarray, N: int) -> np.ndarray:
    """All monomials point**alpha with |alpha| <= N, in graded-lex order.

    point has shape (..., n); the result has shape (..., P_dim), one row
    per point.  One power table y_j**k (k <= N) is gathered per
    multi-index and multiplied along the variables; the values are those
    of ``prod(point**alpha)`` bit for bit, with or without batch axes.
    """
    idx, exponents, width = _power_index(point.shape[-1], N)
    table = (point[..., None] ** exponents).reshape(point.shape[:-1] + (width,))
    # the ufunc reduction np.prod runs, without its per-call dispatch cost
    return np.multiply.reduce(table.take(idx, axis=-1), axis=-1)


@lru_cache(maxsize=None)
def degree_starts(n: int, N: int) -> np.ndarray:
    """Offsets of each degree block; entry k is the rank of the first degree-k monomial."""
    starts = np.array([0] + [P_dim(n, k) for k in range(N + 1)], dtype=np.int64)
    starts.setflags(write=False)
    return starts


@lru_cache(maxsize=None)
def _mul_table(n: int, N: int):
    """Index triples (i, j, k) with monomial_i * monomial_j = monomial_k, degrees <= N.

    Sorted by i, then j.  The basis is graded, so monomial i pairs with
    exactly the prefix j < degree_starts(n, N)[N + 1 - deg i].  The
    triples are the monomials of degree <= N in 2n variables; more than
    MAX_COEFFS of them raise ValidationError before anything is allocated.
    """
    if not fits(2 * n, N):
        raise ValidationError(
            f"the product table of {n}-variable jets of order {N} needs "
            f"more than {MAX_COEFFS} index triples")
    E = monomial_powers(n, N)
    counts = degree_starts(n, N)[N + 1 - E.sum(axis=1)]
    ii = np.repeat(np.arange(E.shape[0], dtype=np.intp), counts)
    jj = np.arange(ii.size, dtype=np.intp) - np.repeat(np.cumsum(counts) - counts,
                                                       counts)
    # exponent codes in base N + 1: product exponents are at most N, so
    # codes add without carry; Python ints where int64 would overflow
    base = N + 1
    weights = np.array([base ** t for t in range(n - 1, -1, -1)],
                       dtype=np.int64 if base ** n <= np.iinfo(np.int64).max
                       else object)
    codes = E @ weights
    order = np.argsort(codes)
    kk = order[np.searchsorted(codes, codes[ii] + codes[jj], sorter=order)]
    return ii, jj, kk


@lru_cache(maxsize=None)
def _diff_table(n: int, N: int, i: int):
    """For d/dy_i: ranks of the monomials y^beta with beta_i > 0, and beta_i.

    beta -> beta - e_i keeps the graded-lex order and maps these monomials
    onto the whole order N-1 basis, so the k-th of them differentiates to
    beta_i times the k-th monomial of order N-1.
    """
    E = monomial_powers(n, N)
    src = np.flatnonzero(E[:, i])
    return src, E[src, i].astype(np.float64)


def _as_value_shape(shape) -> tuple:
    if shape in ((), "scalar", None):
        return ()
    if isinstance(shape, tuple) and len(shape) in (1, 2):
        return shape
    raise ShapeMismatchError(f"unsupported value shape {shape!r}")


class Jet:
    """Immutable order-N Taylor polynomial with scalar, vector or matrix values."""

    __slots__ = ("n", "N", "_coeffs")

    def __init__(self, n: int, N: int, coeffs: np.ndarray, *, copy: bool = True):
        coeffs = np.array(coeffs, copy=copy)
        if coeffs.dtype not in (np.float64, np.complex128):
            coeffs = coeffs.astype(np.float64 if not np.iscomplexobj(coeffs)
                                   else np.complex128)
        if coeffs.shape[0] != P_dim(n, N):
            raise ShapeMismatchError(
                f"coefficient array has {coeffs.shape[0]} rows, "
                f"expected P_dim({n},{N}) = {P_dim(n, N)}")
        if coeffs.ndim - 1 not in (0, 1, 2):
            raise ShapeMismatchError(f"unsupported value shape {coeffs.shape[1:]}")
        if coeffs.ndim == 3 and coeffs.shape[1] != coeffs.shape[2]:
            raise ShapeMismatchError("matrix-valued jets must be square")
        coeffs.setflags(write=False)
        self.n = n
        self.N = N
        self._coeffs = coeffs

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, n: int, N: int, shape=(), dtype=np.float64) -> "Jet":
        vs = _as_value_shape(shape)
        return cls(n, N, np.zeros((P_dim(n, N),) + vs, dtype=dtype), copy=False)

    @classmethod
    def constant(cls, n: int, N: int, value, dtype=None) -> "Jet":
        value = np.asarray(value)
        if dtype is None:
            dtype = np.complex128 if np.iscomplexobj(value) else np.float64
        out = np.zeros((P_dim(n, N),) + value.shape, dtype=dtype)
        out[0] = value
        return cls(n, N, out, copy=False)

    @classmethod
    def coordinate(cls, n: int, N: int, i: int, dtype=np.float64) -> "Jet":
        if not 0 <= i < n:
            raise ValueError(f"coordinate index {i} out of range for n={n}")
        if N < 1:
            raise ValueError("coordinate jets need N >= 1")
        out = np.zeros(P_dim(n, N), dtype=dtype)
        alpha = tuple(1 if j == i else 0 for j in range(n))
        out[monomial_rank(n, N)[alpha]] = 1.0
        return cls(n, N, out, copy=False)

    @classmethod
    def from_terms(cls, n: int, N: int, terms: dict, shape=(), dtype=None) -> "Jet":
        """Build a jet from {multi-index: coefficient}; omitted indices are zero."""
        vs = _as_value_shape(shape)
        if dtype is None:
            cplx = any(np.iscomplexobj(np.asarray(v)) for v in terms.values())
            dtype = np.complex128 if cplx else np.float64
        out = np.zeros((P_dim(n, N),) + vs, dtype=dtype)
        rank = monomial_rank(n, N)
        for alpha, coeff in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha}")
            if sum(alpha) > N:
                raise ValueError(f"multi-index {alpha} exceeds order N={N}")
            out[rank[alpha]] = coeff
        return cls(n, N, out, copy=False)

    # -- basic introspection ------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def value_shape(self) -> tuple:
        return self._coeffs.shape[1:]

    @property
    def dtype(self):
        return self._coeffs.dtype

    @property
    def is_complex(self) -> bool:
        return self._coeffs.dtype == np.complex128

    def coefficient(self, alpha):
        alpha = tuple(int(a) for a in alpha)
        return self._coeffs[monomial_rank(self.n, self.N)[alpha]]

    def terms(self):
        """Yield (alpha, coefficient) for nonzero coefficients in graded-lex order."""
        for alpha, c in zip(monomials(self.n, self.N), self._coeffs):
            if np.any(c != 0):
                yield alpha, c

    def norm(self) -> float:
        """Euclidean norm of the coefficient array, as s |c / s| with
        s = max |c| so that no square overflows; s when 0, inf or NaN."""
        s = float(np.abs(self._coeffs).max())
        return s * float(np.linalg.norm(self._coeffs / s)) if 0 < s < math.inf else s

    # -- structural ops ------------------------------------------------

    def _like(self, N: int, coeffs: np.ndarray) -> "Jet":
        """A jet of this class in the same variables, owning coeffs."""
        return Jet(self.n, N, coeffs, copy=False)

    def project(self, K: int) -> "Jet":
        """Truncate to order K <= N (the quotient map P_N -> P_K)."""
        if K > self.N:
            raise ValueError(f"cannot project order-{self.N} jet up to order {K}")
        if K == self.N:
            return self
        return self._like(K, self._coeffs[:P_dim(self.n, K)].copy())

    def extend(self, K: int) -> "Jet":
        """Zero-pad to order K >= N, treating the jet as polynomial data."""
        if K < self.N:
            raise ValueError(f"extend target {K} below current order {self.N}")
        if K == self.N:
            return self
        out = np.zeros((P_dim(self.n, K),) + self.value_shape, dtype=self.dtype)
        out[:self._coeffs.shape[0]] = self._coeffs
        return self._like(K, out)

    def partial(self, i: int) -> "Jet":
        """Partial derivative d/dy_i as an order N-1 jet."""
        if self.N < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, fac = _diff_table(self.n, self.N, i)
        fac = fac.reshape((-1,) + (1,) * len(self.value_shape))
        return Jet(self.n, self.N - 1, self._coeffs[src] * fac, copy=False)

    def evaluate(self, point):
        """The value, shape (..., *value_shape), at a point of shape (n,) or
        at each of a stack (..., n): each point is a (1, P_dim) row of one
        batched product, so a stack has the bits of its points one by one.

        >>> Jet.from_terms(1, 2, {(2,): 1.0}).evaluate(np.array([[2.0], [3.0]]))
        array([4., 9.])
        """
        point = np.asarray(point)
        if point.ndim == 0 or point.shape[-1] != self.n:
            raise ShapeMismatchError(
                f"point of length n={self.n} expected, got shape {point.shape}")
        mono = _monomial_vector(point, self.N)[..., None, :]
        flat = self._coeffs.reshape(self._coeffs.shape[0], -1)
        return (mono @ flat).reshape(point.shape[:-1] + self.value_shape)

    def astype(self, dtype) -> "Jet":
        return self._like(self.N, self._coeffs.astype(dtype))

    def to_complex(self) -> "Jet":
        return self.astype(np.complex128)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Jet"):
        if self.n != other.n or self.N != other.N:
            raise ShapeMismatchError(
                f"incompatible jets: (n={self.n}, N={self.N}) vs "
                f"(n={other.n}, N={other.N})")
        if self.dtype != other.dtype:
            raise FieldMismatchError(
                "mixing real and complex jets; promote with .to_complex() first")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        if self.value_shape != other.value_shape:
            raise ShapeMismatchError(
                f"value shapes differ: {self.value_shape} vs {other.value_shape}")
        return Jet(self.n, self.N, self._coeffs + other._coeffs, copy=False)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Jet(self.n, self.N, -self._coeffs, copy=False)

    def _scale(self, c):
        if isinstance(c, (complex, np.complexfloating)) and not self.is_complex \
                and getattr(c, "imag", 0.0) != 0.0:
            raise FieldMismatchError(
                "complex scalar times real jet; promote with .to_complex() first")
        return Jet(self.n, self.N, self._coeffs * c, copy=False)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return self.__rmul__(other)  # a scalar, or NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.integer, np.floating,
                              np.complexfloating)):
            return self._scale(other)
        return NotImplemented

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.n == other.n and self.N == other.N
                and self.value_shape == other.value_shape
                and bool(np.array_equal(self._coeffs, other._coeffs)))

    def __hash__(self):
        return hash((self.n, self.N, self.value_shape, self._coeffs.tobytes()))

    def allclose(self, other: "Jet", rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        return (self.n == other.n and self.N == other.N
                and self.value_shape == other.value_shape
                and bool(np.allclose(self._coeffs, other._coeffs,
                                     rtol=rtol, atol=atol)))

    def __repr__(self):
        kind = {0: "scalar", 1: "vector", 2: "matrix"}[len(self.value_shape)]
        return (f"Jet(n={self.n}, N={self.N}, {kind}, "
                f"{sum(1 for _ in self.terms())} terms)")


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated Cauchy product.

    Supported value pairings: scalar*scalar, scalar*vector, scalar*matrix
    (either order), matrix*vector and matrix*matrix (in that order).
    """
    a._check_compatible(b)
    ii, jj, kk = _mul_table(a.n, a.N)
    sa, sb = a.value_shape, b.value_shape
    A = a.coeffs[ii]
    B = b.coeffs[jj]
    if sa == () or sb == ():  # the scalar broadcasts over the other's values
        prod = A.reshape(A.shape + (1,) * len(sb)) * B.reshape(B.shape + (1,) * len(sa))
        out_shape = sa or sb
    elif len(sa) == 2 and len(sb) in (1, 2):  # matrix times vector or matrix
        if sa[1] != sb[0]:
            raise ShapeMismatchError(f"matrix {sa} times {sb}")
        prod = np.einsum("tpq,tq...->tp...", A, B)
        out_shape = sa[:1] + sb[1:]
    else:
        raise ShapeMismatchError(f"unsupported product shapes {sa} x {sb}")
    out = np.zeros((P_dim(a.n, a.N),) + out_shape, dtype=prod.dtype)
    np.add.at(out, kk, prod)
    return Jet(a.n, a.N, out, copy=False)


class VectorFieldJet(Jet):
    """A vector field: an (n,)-valued jet of order >= 1 vanishing at 0.

    Column i holds the coefficients of d/dy_i.  project, extend and
    to_complex keep the class; arithmetic gives plain jets.
    """

    __slots__ = ()

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        n = components[0].n
        N = components[0].N
        for c in components:
            if c.value_shape != ():
                raise ShapeMismatchError("vector field components must be scalar jets")
            if c.n != n or c.N != N:
                raise ShapeMismatchError("vector field components must share (n, N)")
        if len(components) != n:
            raise ShapeMismatchError(
                f"{len(components)} components for n={n} variables")
        self._init(n, N, np.stack([c.coeffs for c in components], axis=1))

    def _init(self, n: int, N: int, coeffs: np.ndarray) -> "VectorFieldJet":
        """Check the order and the constant term, then set the coefficients."""
        if N < 1:
            raise ShapeMismatchError(
                "vector field jets need order N >= 1 to carry a linear part")
        nonzero = np.flatnonzero(coeffs[0])
        if nonzero.size:
            raise ValueError(
                f"component {nonzero[0]} has a nonzero constant term; "
                "the field must vanish at the base point")
        Jet.__init__(self, n, N, coeffs, copy=False)
        return self

    def _like(self, N: int, coeffs: np.ndarray) -> "VectorFieldJet":
        return object.__new__(type(self))._init(self.n, N, coeffs)

    @property
    def components(self) -> tuple:
        """The n scalar component jets."""
        return tuple(Jet(self.n, self.N, c) for c in self.coeffs.T)

    @property
    def linearization(self) -> np.ndarray:
        """Matrix a[i, j] = coefficient of y_j in component i."""
        return self.coeffs[1:self.n + 1].T

    @classmethod
    def euler(cls, n: int, N: int, dtype=np.float64) -> "VectorFieldJet":
        """The radial field sum_i y_i d/dy_i."""
        return cls.from_linear(np.eye(n, dtype=dtype), N)

    @classmethod
    def from_linear(cls, A: np.ndarray, N: int) -> "VectorFieldJet":
        """The linear field with dX(0) = A."""
        A = np.asarray(A)
        n = A.shape[0]
        # the degree-1 rows exist at order 1; _init refuses a lower order
        coeffs = np.zeros((P_dim(n, max(N, 1)), n), dtype=np.complex128
                          if np.iscomplexobj(A) else np.float64)
        coeffs[1:n + 1] = A.T
        return object.__new__(cls)._init(n, N, coeffs[:P_dim(n, N)])

    @classmethod
    def from_gradient(cls, phi: Jet) -> "VectorFieldJet":
        """The gradient field of a scalar jet (components d phi/d y_i, padded to order N)."""
        if phi.value_shape != ():
            raise ShapeMismatchError("gradient needs a scalar jet")
        return cls(tuple(phi.partial(i).extend(phi.N) for i in range(phi.n)))

    def __repr__(self):
        return f"VectorFieldJet(n={self.n}, N={self.N})"


# -- JSON encoding ----------------------------------------------------

def _encode_value(v):
    v = np.asarray(v)
    if v.ndim:
        return [_encode_value(x) for x in v]
    if np.iscomplexobj(v):
        return {"re": float(v.real), "im": float(v.imag)}
    return float(v)


def _fields(obj, path, required, optional=()):
    """Refuse obj unless it is an object with every required key and no
    key outside required and optional; the command line shares it."""
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown key {key!r}", path)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing required key {key!r}", path)


def _integer(x, path, minimum, maximum=None):
    if type(x) is not int:  # not true, not 1.0
        raise SchemaError("expected an integer", path)
    if x < minimum:
        raise SchemaError(f"must be >= {minimum}", path)
    if maximum is not None and x > maximum:
        raise SchemaError(f"must be <= {maximum}", path)
    return x


def _number(x, i):
    if type(x) not in (int, float):
        raise SchemaError(
            f"terms[{i}].coeff must hold numbers or {{re, im}} objects", "")
    if not abs(x) <= sys.float_info.max:  # NaN, inf or a huge integer
        raise SchemaError("expected finite coefficients", f"terms[{i}].coeff")
    return float(x)


def _decode_value(obj, i, depth=0):
    """The coefficient of term i: a number, {re, im}, or lists of them."""
    if isinstance(obj, list):
        if depth == 2:  # lists inside a matrix's rows
            raise SchemaError("expected a scalar, vector or matrix",
                              f"terms[{i}].coeff")
        items = [_decode_value(x, i, depth + 1) for x in obj]
        try:
            return np.array(items)
        except ValueError:
            raise SchemaError(f"terms[{i}].coeff is a ragged array", "") from None
    if isinstance(obj, dict) and obj.keys() == {"re", "im"}:
        return complex(_number(obj["re"], i), _number(obj["im"], i))
    return _number(obj, i)


def jet_to_json(u: Jet) -> dict:
    """Encode a jet; zero coefficients are omitted."""
    vs = u.value_shape
    if vs == ():
        shape = "scalar"
    elif len(vs) == 1:
        shape = f"vector:{vs[0]}"
    else:
        shape = f"matrix:{vs[0]}"
    return {
        "n": u.n,
        "N": u.N,
        "shape": shape,
        "terms": [{"alpha": list(alpha), "coeff": _encode_value(c)}
                  for alpha, c in u.terms()],
    }


def jet_from_json(obj: dict) -> Jet:
    """Decode the jet_to_json encoding; anything else raises SchemaError.

    A jet is {"n" >= 1, "N" >= 0, "terms"} and an optional "shape":
    "scalar" (the default), "vector:<m>" or "matrix:<m>".  Each term is
    {"alpha", "coeff"}: alpha n nonnegative integers of sum <= N, once
    per jet, and coeff a finite number or {re, im}, or a vector or
    matrix of them in the tagged shape.  Omitted terms are zero; any
    {re, im} makes the jet complex.  SchemaError is a ValueError, and its
    path (such as "terms[0].coeff", or empty when the message names the
    term) locates the fault: an unknown or missing key, NaN, Infinity,
    an integer beyond the float range, nesting past a matrix, or more
    than MAX_COEFFS coefficients or entries of the monomial table.
    """
    _fields(obj, "", ("n", "N", "terms"), ("shape",))
    n, N = _integer(obj["n"], "n", 1), _integer(obj["N"], "N", 0)
    shape_tag = obj.get("shape", "scalar")
    match = isinstance(shape_tag, str) and re.fullmatch(
        r"scalar|(vector|matrix):([1-9][0-9]*)", shape_tag)
    if not match:
        raise SchemaError('shape must be "scalar", "vector:<m>" or '
                          f'"matrix:<m>", got {shape_tag!r}', "")
    kind, m = match.groups()
    vs = () if kind is None else (int(m),) * (1 if kind == "vector" else 2)
    if not fits(n, N, max(n, math.prod(vs))):  # and the n-wide monomial table
        raise SchemaError(f"the jet needs more than {MAX_COEFFS} coefficients",
                          "")
    if not isinstance(obj["terms"], list):
        raise SchemaError("expected a list of terms", "terms")
    terms = {}
    for i, t in enumerate(obj["terms"]):
        _fields(t, f"terms[{i}]", ("alpha", "coeff"))
        alpha = t["alpha"]
        if not isinstance(alpha, list) or any(type(a) is not int
                                               for a in alpha):
            raise SchemaError(f"terms[{i}].alpha must be a list of integers",
                              "")
        alpha = tuple(alpha)
        if len(alpha) != n or min(alpha) < 0 or sum(alpha) > N:
            raise SchemaError(f"expected n={n} nonnegative integers of sum "
                              f"<= N={N}", f"terms[{i}].alpha")
        if alpha in terms:  # terms lists each multi-index once, in order
            raise SchemaError(f"terms[{i}].alpha repeats the multi-index of "
                              f"terms[{list(terms).index(alpha)}]", "")
        val = _decode_value(t["coeff"], i)
        if np.shape(val) != vs:
            raise SchemaError(f"coefficient shape {np.shape(val)} does not "
                              f"match {shape_tag}", f"terms[{i}].coeff")
        terms[alpha] = val
    return Jet.from_terms(n, N, terms, shape=vs)
