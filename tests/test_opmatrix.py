"""Operator matrix assembly and its degree blocks."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.sparse import coo_array

import transportkit
from transportkit.errors import NumericError, ShapeMismatchError
from transportkit.jets import Jet, P_dim, VectorFieldJet, degree_starts, monomials
from transportkit.opmatrix import (
    OperatorMatrix,
    ProblemData,
    apply_operator,
    _row_blocks,
    _sparse_operator,
    assemble,
    jet_to_vec,
)

from conftest import load_recipes, reference_apply_operator, reference_assemble


def gradient_example_problem(N=2, lam=0.0):
    """X = grad(y1^2/2 + y1^2 y2 + y2^2), scalar values, zero A and v."""
    phi = Jet.from_terms(2, N + 1, {(2, 0): 0.5, (2, 1): 1.0, (0, 2): 1.0})
    X = VectorFieldJet.from_gradient(phi).project(N)
    a = Jet.zero(2, N)
    v = Jet.zero(2, N)
    return ProblemData.scalar(X, a, v, lam, N)


# The 6x6 matrix of D_X on P_2 for the gradient field above, in the basis
# 1, y1, y2, y1^2, y1 y2, y2^2 (worked out by hand from D_X on each monomial).
GRADIENT_MATRIX = np.array([
    [0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 0],
    [0, 0, 1, 2, 0, 0],
    [0, 2, 0, 0, 3, 0],
    [0, 0, 0, 0, 0, 4],
], dtype=float)


def _random_problem(rng, n=2, m=2, N=3, complex_field=False):
    def draw(*shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_field else out

    comps = []
    for _ in range(n):
        c = draw(P_dim(n, N))
        c[0] = 0.0
        comps.append(Jet(n, N, c))
    X = VectorFieldJet(comps)
    A = Jet(n, N, draw(P_dim(n, N), m, m))
    v = Jet(n, N, draw(P_dim(n, N), m))
    return ProblemData(X, A, v, 0.0, N)


def test_gradient_example_matrix_exact():
    M = assemble(gradient_example_problem())
    assert M.entries.dtype == np.float64
    assert np.array_equal(M.entries, GRADIENT_MATRIX)
    # integers exactly representable, no drift
    assert np.all(M.entries == np.round(M.entries))


def test_euler_field_matrix_is_degree_diagonal():
    X = VectorFieldJet.euler(2, 3)
    p = ProblemData.scalar(X, Jet.zero(2, 3), Jet.zero(2, 3), 0.0, 3)
    M = assemble(p)
    want = np.diag([float(sum(alpha)) for alpha in monomials(2, 3)])
    assert np.array_equal(M.entries, want)


def test_matrix_matches_operator_application(rng):
    for (n, m, N), cplx in itertools.product([(1, 3, 5), (3, 2, 3), (2, 2, 1)],
                                             (False, True)):
        p = _random_problem(rng, n, m, N, complex_field=cplx)
        M = assemble(p)
        assert M.entries.dtype == (np.complex128 if cplx else np.float64)
        # entries are added in the oracle's order: equal bit for bit
        assert np.array_equal(M.entries, reference_assemble(p).entries)
        for _ in range(5):
            u = Jet(n, N, rng.standard_normal((P_dim(n, N), m)))
            np.testing.assert_allclose(
                M.entries @ jet_to_vec(u),
                jet_to_vec(reference_apply_operator(p, u)), rtol=0, atol=1e-13)


@pytest.mark.parametrize("seed", range(12))
def test_apply_operator_matches_jet_arithmetic(seed):
    # real, complex and mixed-field pairs of problem and jet, each applied
    # at the jet's order and at an order below the problem's
    rng = np.random.default_rng(700 + seed)
    n, m = (int(k) for k in rng.integers(1, 4, size=2))
    N = int(rng.integers(1, 9))
    p_cplx, u_cplx = [(False, False), (True, True), (False, True),
                      (True, False)][seed % 4]
    p = _random_problem(rng, n, m, N, complex_field=p_cplx)
    for order in (N, max(1, N - 2)):
        coeffs = rng.standard_normal((P_dim(n, order), m))
        if u_cplx:
            coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
        u = Jet(n, order, coeffs)
        got = apply_operator(p, u)
        want = reference_apply_operator(p, u)
        assert (got.n, got.N, got.value_shape, got.dtype) == \
            (want.n, want.N, want.value_shape, want.dtype)
        assert (got - want).norm() <= 1e-13 * want.norm()


@pytest.mark.parametrize("n,shape", [(2, ()), (2, (2, 2)), (2, (3,)),
                                     (1, (2,))])
def test_apply_operator_needs_a_vector_jet_of_the_problem(rng, n, shape):
    p = _random_problem(rng, n=2, m=2, N=3)
    with pytest.raises(ShapeMismatchError,
                       match="u must be a vector:2 jet in 2 variables"):
        apply_operator(p, Jet.zero(n, 3, shape))


def test_leading_block_is_lower_order_operator(rng):
    # the basis is graded: rows and columns of degree <= k are the order-k
    # operator, which is what lets the solver cut its head block from L
    for cplx in (False, True):
        p = _random_problem(rng, n=2, m=2, N=5, complex_field=cplx)
        L = _sparse_operator(p)
        for k in range(p.N + 1):
            h = P_dim(p.n, k) * p.m
            low = _sparse_operator(p.at_order(max(k, 1)))
            np.testing.assert_allclose(L[:h, :h].toarray(),
                                       low[:h, :h].toarray(),
                                       rtol=0, atol=1e-13)


def _recipe_operators():
    """Recipe problems with n <= 3, each also with a complex A, and ids."""
    recipes = load_recipes()
    rng = np.random.default_rng(17)
    cases = []
    for n, m, N in ((1, 2, 7), (2, 1, 6), (2, 2, 5), (3, 1, 4), (3, 2, 3)):
        for kind in recipes.LADDER_KINDS:
            p = recipes.fredholm_problem(transportkit, rng, n, m, N, kind)
            q = ProblemData(p.X, Jet(n, N, p.A.coeffs * (1 + 0.5j)), p.v,
                            p.lam, N)
            cases += [pytest.param(p, id=f"{kind}-{n}{m}{N}"),
                      pytest.param(q, id=f"{kind}-{n}{m}{N}-complex")]
    return cases


@pytest.mark.parametrize("p", _recipe_operators())
def test_sparse_operator_is_the_coo_built_matrix(p):
    # the CSR arrays are built straight from the sorted unique keys: they
    # are those the COO constructor makes from the same entries in any
    # order, and the matrix is the jet-arithmetic oracle bit for bit
    L = _sparse_operator(p)
    rows = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))
    order = np.random.default_rng(0).permutation(L.nnz)
    coo = coo_array((L.data[order], (rows[order], L.indices[order])),
                    shape=L.shape).tocsr()
    assert L.has_canonical_format
    for name in ("indptr", "indices", "data"):
        got, want = getattr(L, name), getattr(coo, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(L.toarray(), reference_assemble(p).entries)


@pytest.mark.parametrize("p", _recipe_operators()[::5])
def test_row_blocks_are_the_scipy_slices(p):
    # a union of degree slices, then every degree above it, cut from the
    # CSR arrays in one pass: each diagonal block minus lambda and the
    # entries left of it are those scipy.sparse slices out, bit for bit
    L = _sparse_operator(p)
    offsets = degree_starts(p.n, p.N) * p.m
    for k0 in range(p.N + 1):
        for k1 in range(k0, p.N + 1):
            bounds = np.r_[offsets[k0], offsets[k1 + 1:]]
            cut = _row_blocks(L, bounds, p.lam, [None] * (bounds.size - 1))
            assert len(cut) == bounds.size - 1
            for (block, (rows, cols, vals)), r0, r1 in zip(cut, bounds[:-1],
                                                           bounds[1:]):
                want = L[r0:r1, r0:r1].toarray() - p.lam * np.eye(r1 - r0)
                assert block.dtype == want.dtype
                assert np.array_equal(block, want)
                left = np.zeros((r1 - r0, r0), dtype=L.dtype)
                left[rows, cols] = vals
                assert np.array_equal(left, L[r0:r1, :r0].toarray())
                assert (L[r0:r1, r1:].nnz, rows.size) == (0, L[r0:r1, :r0].nnz)


def test_an_overflowing_entry_is_refused_by_its_reader():
    # 2 * 1.5e308 overflows in the entry of y^3 in D_X y^2, and 3 * 1.5e308
    # in that of y^4 in D_X y^3: the builder keeps both without a warning,
    # and a cut that reaches them names the lowest degree they sit in
    N = 4
    X = VectorFieldJet([Jet.from_terms(1, N, {(1,): 1.0, (2,): 1.5e308})])
    p = ProblemData.scalar(X, Jet.constant(1, N, 2.0), Jet.zero(1, N), 0.0, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        L = _sparse_operator(p)
    assert np.isinf(L[[3, 4], [2, 3]]).all()
    names = [f"degree {k}" for k in range(N + 1)]
    _row_blocks(L, np.arange(4), 0.0, names)
    for first in (0, 3):
        with pytest.raises(NumericError,
                           match="^degree 3 of the operator is not finite$"):
            _row_blocks(L, np.arange(first, N + 2), 0.0, names[first:])
    with pytest.raises(NumericError, match="^degrees <= 3 of the operator"):
        _row_blocks(L, np.array([0, 4, 5]), 0.0, ["degrees <= 3", "degree 4"])


def test_block_lower_triangular(rng):
    p = _random_problem(rng, n=3, m=2, N=3)
    M = assemble(p)
    for k_row in range(p.N + 1):
        for k_col in range(k_row + 1, p.N + 1):
            assert np.all(M.block(k_row, k_col) == 0.0)


def test_slice_k0_is_a0():
    p = _random_problem(np.random.default_rng(7), n=2, m=3, N=2)
    assert np.array_equal(assemble(p).block(0, 0), p.A.coeffs[0])


def test_slice_gradient_example_degree1():
    p = gradient_example_problem()
    assert np.array_equal(assemble(p).block(1, 1), np.diag([1.0, 2.0]))


def test_spectrum_is_eigenvalue_combinations(rng):
    # spectrum of the assembled matrix = {alpha . mu + rho_j}
    n, m, N = 2, 2, 3
    mu = np.array([1.0, 2.5])
    rho = np.array([0.5, 3.0])
    X = VectorFieldJet.from_linear(np.diag(mu), N)
    A0 = np.diag(rho)
    A = Jet.constant(n, N, A0)
    p = ProblemData(X, A, Jet.zero(n, N, (m,)), 0.0, N)
    M = assemble(p)
    got = np.sort_complex(np.linalg.eigvals(M.entries))
    want = np.sort_complex(np.array(
        [sum(a * u for a, u in zip(alpha, mu)) + r
         for alpha in monomials(n, N) for r in rho], dtype=complex))
    assert np.allclose(got, want, atol=1e-8)


def test_integer_inputs_give_integer_entries():
    M = assemble(gradient_example_problem())
    assert np.array_equal(M.entries, M.entries.astype(np.int64).astype(float))


def test_complex_promotion():
    p = gradient_example_problem(lam=1.0 + 2.0j)
    assert p.is_complex
    M = assemble(p)
    assert M.entries.dtype == np.complex128
    # real input stays real
    assert assemble(gradient_example_problem()).entries.dtype == np.float64


def test_vector_problem_basis_order(rng):
    # value index varies fastest: basis[(rank * m) + j] == (alpha, j)
    p = _random_problem(rng, n=2, m=2, N=2)
    M = assemble(p)
    mons = monomials(2, 2)
    for r, alpha in enumerate(mons):
        for j in range(2):
            assert M.basis[r * 2 + j] == (alpha, j)
