"""Operator matrix assembly and its degree blocks."""

import itertools

import numpy as np
import pytest

from transportkit.errors import ShapeMismatchError
from transportkit.jets import Jet, P_dim, VectorFieldJet, monomials
from transportkit.opmatrix import (
    OperatorMatrix,
    ProblemData,
    apply_operator,
    _sparse_operator,
    assemble,
    jet_to_vec,
)

from conftest import reference_apply_operator, reference_assemble


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
