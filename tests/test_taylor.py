"""Order-by-order solver tests.

Closed forms used as oracles:

* Euler field in 1D with constant coefficient a and v = y^k:
  y u' + a u = lam u + y^k  has the monomial solution u = y^k / (k + a - lam).
* The gradient example at lam = 2 has the one-dimensional kernel spanned by
  the unique extension of y1^2, computed by hand through degree 4:
  y1^2 - 2 y1^2 y2 + y1^4 + 2 y1^2 y2^2.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lu_solve
from scipy.sparse import csr_array

import transportkit
from transportkit import opmatrix, spectral, taylor
from transportkit.errors import (IllConditionedWarning, NearResonanceWarning,
                                 ValidationError)
from transportkit.jets import Jet, VectorFieldJet, degree_starts
from transportkit.opmatrix import ProblemData, apply_operator, jet_to_vec
from transportkit.spectral import resonance_degree
from transportkit.taylor import MAX_ORDER, JetSolution, residual, solve_to_order

from conftest import (load_recipes, projector_distance, reference_slice_lu,
                      reference_solve_family)
from test_acceptance import _random_fredholm_problem
from test_opmatrix import gradient_example_problem
from test_spectral import _random_resonant_problem, _rounding_residue_problem


def scalar_euler_problem(a: float, v: Jet, lam: float, N: int) -> ProblemData:
    X = VectorFieldJet.euler(1, N)
    A = Jet.constant(1, N, a)
    return ProblemData.scalar(X, A, v, lam, N)


class TestClosedForm1D:
    @pytest.mark.parametrize("k,a,lam", [(3, 0.5, 0.0), (1, 2.0, 0.0),
                                         (4, 0.25, 1.5), (2, -0.5, 0.25)])
    def test_monomial_solution_exact(self, k, a, lam):
        N = 6
        v = Jet.from_terms(1, N, {(k,): 1.0})
        sol = solve_to_order(scalar_euler_problem(a, v, lam, N), N)
        assert sol.solvable
        assert sol.resonance is None
        assert sol.kernel_extensions == ()
        expected = Jet.from_terms(1, N, {(k,): 1.0 / (k + a - lam)}, shape=(1,))
        assert sol.particular.allclose(expected, rtol=0, atol=1e-14)

    def test_euler_divides_by_degree(self):
        # a = 0, lam = 0 is resonant at alpha = 0 only; with v(0) = 0 the
        # minimum-norm solution is u_alpha = v_alpha / |alpha|
        N = 5
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(Jet.zero(1, N).coeffs.shape)
        coeffs[0] = 0.0
        v = Jet(1, N, coeffs)
        sol = solve_to_order(scalar_euler_problem(0.0, v, 0.0, N), N)
        assert sol.solvable
        for alpha, val in v.terms():
            k = sum(alpha)
            got = sol.particular.coefficient(alpha)[0]
            assert got == pytest.approx(val / k, abs=1e-13)
        # minimum-norm head: the free constant term stays zero
        assert sol.particular.coefficient((0,))[0] == pytest.approx(0.0, abs=1e-13)

    def test_constant_obstruction_blocks(self):
        N = 4
        v = Jet.constant(1, N, 1.0)
        sol = solve_to_order(scalar_euler_problem(0.0, v, 0.0, N), N)
        assert not sol.solvable
        assert sol.particular is None
        assert len(sol.obstructions) == 1
        assert abs(sol.obstructions[0]) == pytest.approx(1.0, abs=1e-12)
        # the homogeneous family is still reported
        assert len(sol.kernel_extensions) == 1


class TestGradientExampleKernel:
    def test_order_four_extension_matches_hand_computation(self):
        p = gradient_example_problem(N=4, lam=2.0)
        sol = solve_to_order(p.with_v(Jet.zero(2, 4, shape=(1,))), 4)
        assert len(sol.kernel_extensions) == 1
        ker = sol.kernel_extensions[0]
        expected = Jet.from_terms(2, 4, {
            (2, 0): 1.0,
            (2, 1): -2.0,
            (4, 0): 1.0,
            (2, 2): 2.0,
        }, shape=(1,))
        assert ker.allclose(expected, rtol=0, atol=1e-12)

    def test_kernel_extension_annihilated(self):
        p = gradient_example_problem(N=6, lam=2.0).with_v(
            Jet.zero(2, 6, shape=(1,)))
        sol = solve_to_order(p, 6)
        for ker in sol.kernel_extensions:
            r = residual(p, ker)
            assert r.norm() < 1e-12

    def test_order_raised_to_resonance_degree(self):
        # asking for order 0 still returns the degree-2 kernel
        p = gradient_example_problem(N=2, lam=2.0).with_v(
            Jet.zero(2, 2, shape=(1,)))
        sol = solve_to_order(p, 0)
        assert sol.working_order == 2
        assert sol.kernel_extensions[0].N == 2
        assert sol.kernel_extensions[0].coefficient((2, 0))[0] == pytest.approx(1.0)


class TestResidual:
    def test_particular_residual_vanishes(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            N = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n)) * 0.3 + np.eye(n) * (1 + rng.random())
            X = VectorFieldJet.from_linear(a, N)
            A = Jet.constant(n, N, rng.standard_normal((m, m)))
            v = Jet(n, N, rng.standard_normal((Jet.zero(n, N).coeffs.shape[0], m)))
            lam = -10.0 - rng.random()  # far below the spectrum: never resonant
            p = ProblemData(X, A, v, lam, N)
            sol = solve_to_order(p, N)
            assert sol.solvable
            assert residual(p, sol.particular).norm() < 1e-9

    def test_residual_complex_promotion(self):
        N = 3
        v = Jet.from_terms(1, N, {(2,): 1.0})
        p = scalar_euler_problem(1.0, v, 0.5 + 0.25j, N)
        sol = solve_to_order(p, N)
        assert sol.particular.is_complex
        assert residual(p, sol.particular).norm() < 1e-13
        # mixed fields are promoted rather than rejected: a real problem
        # with a complex candidate and a complex problem with a real one.
        # On c y^2 the operator minus lambda multiplies by 2 + 1 - lambda.
        p_real = scalar_euler_problem(1.0, v, 0.5, N)
        u_real = Jet.from_terms(1, N, {(2,): 0.25}, shape=(1,))
        for prob, u in ((p_real, sol.particular), (p, u_real)):
            r = residual(prob, u)
            assert r.is_complex
            c = u.coefficient((2,))[0]
            want = Jet.from_terms(1, N, {(2,): (3.0 - prob.lam) * c - 1.0},
                                  shape=(1,))
            assert r.allclose(want.to_complex(), rtol=0, atol=1e-14)

    def test_exact_solution_gives_zero_residual(self, rng):
        N = 4
        p = gradient_example_problem(N=N, lam=0.5)
        u_true = Jet(2, N, rng.standard_normal((15, 1)))
        v = apply_operator(p, u_true) - 0.5 * u_true
        p = p.with_v(v)
        sol = solve_to_order(p, N)
        assert sol.particular.allclose(u_true, rtol=1e-10, atol=1e-10)


class TestSolverPolicies:
    def test_linearity(self):
        N = 5
        v1 = Jet.from_terms(1, N, {(1,): 2.0, (3,): -1.0})
        v2 = Jet.from_terms(1, N, {(2,): 0.5, (5,): 4.0})
        a, lam = 0.75, 0.0
        s1 = solve_to_order(scalar_euler_problem(a, v1, lam, N), N)
        s2 = solve_to_order(scalar_euler_problem(a, v2, lam, N), N)
        s12 = solve_to_order(scalar_euler_problem(a, v1 + v2, lam, N), N)
        assert s12.particular.allclose(s1.particular + s2.particular,
                                       rtol=0, atol=1e-13)

    def test_order_cap(self):
        v = Jet.from_terms(1, 2, {(1,): 1.0})
        p = scalar_euler_problem(1.0, v, 0.0, 2)
        with pytest.raises(ValidationError):
            solve_to_order(p, MAX_ORDER + 1)

    @pytest.mark.parametrize("kwargs", [{"tol": -1.0},
                                        {"obstruction_tol": -1.0},
                                        {"obstruction_tol": float("nan")}])
    def test_negative_tolerances_rejected(self, kwargs):
        # X = y, lambda = 2, v = y: a negative tol used to hide the
        # resonance and send a singular slice to the LU solve
        v = Jet.from_terms(1, 4, {(1,): 1.0})
        p = scalar_euler_problem(0.0, v, 2.0, 4)
        assert solve_to_order(p, 4).solvable
        with pytest.raises(ValidationError, match="nonnegative"):
            solve_to_order(p, 4, **kwargs)

    def test_projection_consistency(self):
        # solving at high order then projecting equals solving at low order
        N_hi, N_lo = 8, 3
        v = Jet.from_terms(1, N_hi, {(1,): 1.0, (2,): -2.0, (7,): 3.0})
        a, lam = 0.3, 0.0
        hi = solve_to_order(scalar_euler_problem(a, v, lam, N_hi), N_hi)
        lo = solve_to_order(scalar_euler_problem(a, v.project(N_lo), lam, N_lo),
                            N_lo)
        assert hi.particular.project(N_lo).allclose(lo.particular,
                                                    rtol=0, atol=1e-13)

    def test_resonant_solvable_problem(self):
        # gradient example at lam = 2 with v in the range: v = (D_X - 2) u_true
        N = 4
        p = gradient_example_problem(N=N, lam=2.0)
        u_true = Jet.from_terms(2, N, {(0, 1): 1.0, (1, 1): -0.5}, shape=(1,))
        v = apply_operator(p, u_true) - 2.0 * u_true
        p = p.with_v(v)
        sol = solve_to_order(p, N)
        assert sol.solvable
        assert max(abs(o) for o in sol.obstructions) < 1e-10
        assert residual(p, sol.particular).norm() < 1e-10
        # solution agrees with u_true modulo the kernel direction
        diff = sol.particular - u_true
        ker = sol.kernel_extensions[0]
        c = diff.coefficient((2, 0))[0] / ker.coefficient((2, 0))[0]
        assert diff.allclose(c * ker, rtol=1e-8, atol=1e-10)

    def test_condition_report_populated(self):
        N = 3
        v = Jet.from_terms(1, N, {(1,): 1.0})
        sol = solve_to_order(scalar_euler_problem(1.0, v, 0.0, N), N)
        assert "head" in sol.condition_report
        assert all(f"slice_{k}" in sol.condition_report for k in range(1, N + 1))

    def test_solution_dataclass_flags(self):
        N = 2
        v = Jet.from_terms(1, N, {(1,): 1.0})
        sol = solve_to_order(scalar_euler_problem(1.0, v, 0.0, N), N)
        assert isinstance(sol, JetSolution)
        assert sol.solvable and sol.resonance is None and sol.obstructions == ()
        assert sol.duals == ()
        assert sol.working_order == N

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_duals_are_those_that_screened_v(self, lam):
        # the head screen's duals pair v into the obstructions, and
        # dual_kernel_basis reads the same duals at order max(N', 1)
        p = gradient_example_problem(N=5, lam=lam)
        sol = solve_to_order(p, 5)
        assert sol.duals and sol.obstructions == tuple(d.pair(p.v)
                                                       for d in sol.duals)
        assert len(sol.duals) == len(sol.kernel_extensions)
        basis = spectral.dual_kernel_basis(p)
        assert len(basis) == len(sol.duals)
        for d, e in zip(sol.duals, basis):
            assert d.order == e.order == sol.resonance.max_alpha_degree
            np.testing.assert_allclose(d.coeffs, e.coeffs, rtol=0, atol=1e-14)

    def test_dual_kernel_basis_factors_no_slice(self, monkeypatch):
        # at the degree-0 resonance the duals come from the head split at
        # order 1, bit for bit those of the jet solver there, and no degree
        # slice is factored
        p = gradient_example_problem(N=6, lam=0.0)
        want = solve_to_order(p, 1).duals
        factored, slice_lu = [], taylor._slice_lu

        def counting(*args, **kwargs):
            factored.append(args[0].shape)
            return slice_lu(*args, **kwargs)

        monkeypatch.setattr(taylor, "_slice_lu", counting)
        got = spectral.dual_kernel_basis(p)
        assert factored == []
        assert len(got) == len(want) == 1
        assert [d.order for d in got] == [d.order for d in want] == [0]
        assert all(np.array_equal(d.coeffs, e.coeffs)
                   for d, e in zip(got, want))

    def test_ill_conditioned_slice_warns(self):
        # y u' + A u = u + v with A = [[2, 1e4], [0, 2e-9]]: the degree-1
        # slice is 1 + A - lambda = A, with the eigenvalue 2e-9 on a block
        # of norm 1e4
        N = 3
        X = VectorFieldJet.euler(1, N)
        A = Jet.constant(1, N, np.array([[2.0, 1e4], [0.0, 2e-9]]))
        v = Jet.from_terms(1, N, {(1,): [1.0, 1.0]}, shape=(2,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_to_order(ProblemData(X, A, v, 1.0, N), N)
        assert sol.resonance is None  # 2e-9 is outside RESONANCE_TOL
        ill = [w for w in caught if w.category is IllConditionedWarning]
        assert [str(w.message).split(" condition")[0] for w in ill] == [
            "slice 1 solve"]
        assert sol.condition_report["slice_1"] > 1e12
        assert all(sol.condition_report[key] <= 1e12
                   for key in sol.condition_report if key != "slice_1")

    def test_resonant_solve_assembles_and_decomposes_once(self, monkeypatch):
        # one sparse operator per solve, at the working order, serves the
        # head block and every degree slice; one head SVD serves the
        # obstructions, the particular solution and the kernel
        orders, svds = [], []
        build, svd = opmatrix._sparse_operator, np.linalg.svd

        def counting_build(q):
            orders.append(q.N)
            return build(q)

        def counting_svd(*args, **kwargs):
            svds.append(args[0].shape)
            return svd(*args, **kwargs)

        assert not hasattr(taylor, "assemble")
        assert not hasattr(spectral, "assemble")
        # dual_kernel_basis reads its duals from the head split alone
        monkeypatch.setattr(taylor, "_sparse_operator", counting_build)
        monkeypatch.setattr(spectral, "_sparse_operator", counting_build)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        p = gradient_example_problem(N=6, lam=2.0)
        sol = solve_to_order(p, 6)
        assert sol.solvable and len(sol.kernel_extensions) == 1
        assert orders == [6] and svds == [(6, 6)]  # head: degrees <= 2
        orders.clear()
        sol = solve_to_order(replace(p, lam=0.5), 6)  # non-resonant: no head
        assert sol.solvable and orders == [6] and svds == [(6, 6)]  # no SVD
        orders.clear()
        assert len(spectral.dual_kernel_basis(p)) == 1
        assert orders == [2]  # max(N', 1)
        orders.clear()
        q = replace(p, lam=0.0)  # resonant at degree 0: N' = 0
        assert len(spectral.dual_kernel_basis(q)) == 1 and orders == [1]
        orders.clear()
        assert spectral.dual_kernel_basis(replace(p, lam=0.5)) == []
        assert orders == []


# -- one factorization, every order -----------------------------------------

def _projection_cases():
    """(problem, (resonant, solvable) at the problem's order), with ids."""
    recipes = load_recipes()
    rng = np.random.default_rng(31)
    cases = [pytest.param(
        recipes.fredholm_problem(transportkit, rng, n, m, 6, kind),
        (kind != "nonresonant", kind != "obstructed"), id=f"{kind}-n{n}-m{m}")
        for n in (1, 2) for m in (1, 2) for kind in recipes.LADDER_KINDS]
    p = _random_resonant_problem(np.random.default_rng(4), complex_field=True)
    return cases + [
        pytest.param(gradient_example_problem(N=6, lam=0.0), (True, True),
                     id="degree-0"),
        pytest.param(p.at_order(6), (True, False), id="complex")]


def _assert_identical(got, want):
    """Every field of two JetSolutions, bit for bit."""
    assert got.working_order == want.working_order
    assert got.resonance == want.resonance
    assert (got.particular is None) == (want.particular is None)
    if want.particular is not None:
        assert np.array_equal(got.particular.coeffs, want.particular.coeffs)
    for a, b in ((got.kernel_extensions, want.kernel_extensions),
                 (got.duals, want.duals)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.N == y.N and np.array_equal(x.coeffs, y.coeffs)
    assert np.array_equal(got.obstructions, want.obstructions)
    assert got.condition_report == want.condition_report


@pytest.mark.parametrize("p,kind", _projection_cases())
def test_lower_order_solve_is_the_projection(p, kind):
    # L is block lower triangular, so one factorization at order N solves
    # v.project(M) for every n_star <= M < N exactly as a solve at order M
    entry, n_star = resonance_degree(p)
    solve = taylor._factor(p, entry, n_star, spectral.RESONANCE_TOL)
    full = solve(p.v)
    _assert_identical(full, solve_to_order(p, p.N))
    assert (full.resonance is not None, full.solvable) == kind
    orders = range(max(n_star, 1), p.N)
    assert len(orders) >= 2
    for M in orders:
        _assert_identical(solve(p.v.project(M)), solve_to_order(p, M))


def _scipy_sliced_substitution(p, sol):
    """The substitution above sol's head with every slice cut from L by
    scipy.sparse indexing, as the solver once did: (U, condition_report),
    one column of U per jet of sol, the particular one first."""
    entry, n_star = resonance_degree(p)
    q = p.at_order(max(p.N, n_star))
    L = opmatrix._sparse_operator(q)
    offsets = degree_starts(q.n, q.N) * q.m
    first = n_star + 1 if entry is not None else 0
    jets = [sol.particular] * sol.solvable + list(sol.kernel_extensions)
    U = np.zeros((L.shape[0], len(jets)), dtype=L.dtype)
    h = int(offsets[first])
    U[:h] = np.column_stack([jet_to_vec(j) for j in jets])[:h]
    if entry is not None:
        ((head, _),) = opmatrix._row_blocks(L, np.array([0, h]), q.lam, ["head"])
        assert np.array_equal(head, L[:h, :h].toarray() - q.lam * np.eye(h))
    target = np.zeros_like(U)
    if sol.solvable:
        target[:, 0] = jet_to_vec(q.v)
    report = {}
    for k in range(first, q.N + 1):
        r0, r1 = int(offsets[k]), int(offsets[k + 1])
        rows = L[r0:r1]
        block = rows[:, r0:r1].toarray() - q.lam * np.eye(r1 - r0)
        lu, report[f"slice_{k}" if k else "head"] = reference_slice_lu(block)
        U[r0:r1] = lu_solve(lu, target[r0:r1] - rows @ U)
    return U, report


@pytest.mark.parametrize("p,kind", _projection_cases())
def test_substitution_is_that_of_scipy_slices(p, kind):
    # reading the slices from L's CSR arrays and factoring them with LAPACK
    # directly changes no bit of the particular solution, the kernel
    # extensions or the condition report
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_to_order(p, p.N)
        U, report = _scipy_sliced_substitution(p, sol)
    assert (sol.resonance is not None, sol.solvable) == kind
    jets = [sol.particular] * sol.solvable + list(sol.kernel_extensions)
    assert np.array_equal(U, np.column_stack([jet_to_vec(j) for j in jets]))
    assert sol.condition_report == report


@pytest.mark.parametrize("p,kind", _projection_cases())
def test_condition_is_the_lapack_estimate_of_kappa_1(p, kind):
    # gecon's estimate never exceeds the exact 1-norm condition number
    # (up to rounding) and, on these slices, comes within a factor of 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_to_order(p, p.N)
    entry, n_star = resonance_degree(p)
    L = opmatrix._sparse_operator(p).toarray()
    offsets = degree_starts(p.n, p.N) * p.m
    first = n_star + 1 if entry is not None else 0
    assert len(sol.condition_report) == p.N + 1 - first
    for k in range(first, p.N + 1):
        r0, r1 = int(offsets[k]), int(offsets[k + 1])
        kappa = np.linalg.cond(L[r0:r1, r0:r1] - p.lam * np.eye(r1 - r0), 1)
        cond = sol.condition_report[f"slice_{k}" if k else "head"]
        assert kappa / 10 <= cond <= kappa * (1 + 1e-9)


def test_solves_cut_no_sparse_slice(monkeypatch):
    # the head block and every degree slice come from L's CSR arrays:
    # scipy.sparse indexing is never reached
    def refuse(self, key):
        raise AssertionError(f"scipy.sparse slice {key}")

    monkeypatch.setattr(csr_array, "__getitem__", refuse)
    recipes = load_recipes()
    rng = np.random.default_rng(5)
    for kind in recipes.LADDER_KINDS:
        p = recipes.fredholm_problem(transportkit, rng, 2, 2, 6, kind)
        sol = solve_to_order(p, p.N)
        assert (sol.resonance is not None, sol.solvable) == (
            kind != "nonresonant", kind != "obstructed")
        assert len(spectral.dual_kernel_basis(p)) == len(sol.duals)


def test_slices_factor_without_scipy_wrappers_or_svd(monkeypatch):
    # a non-resonant order-10 solve factors each slice with LAPACK
    # getrf/gecon/getrs alone: scipy's LU wrappers, the SVD of
    # np.linalg.cond and np.linalg.svd are never reached
    def refuse(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return raising

    for module, name in ((scipy.linalg, "lu_factor"), (scipy.linalg, "lu_solve"),
                         (np.linalg, "cond"), (np.linalg, "svd")):
        monkeypatch.setattr(module, name, refuse(name))
    assert not hasattr(taylor, "lu_factor") and not hasattr(taylor, "lu_solve")
    p = load_recipes().flow_problem(transportkit, np.random.default_rng(3),
                                    2, 2, False)
    sol = solve_to_order(p, 10)
    assert sol.resonance is None and sol.working_order == 10
    assert len(sol.condition_report) == 11
    assert residual(p.at_order(10), sol.particular).norm() <= 1e-12 * p.v.norm()


def test_kernel_basis_is_uncapped_and_factors_nothing_off_resonance(
        monkeypatch):
    factored, slice_lu = [], taylor._slice_lu

    def counting(*args, **kwargs):
        factored.append(args[0].shape)
        return slice_lu(*args, **kwargs)

    monkeypatch.setattr(taylor, "_slice_lu", counting)
    assert spectral.kernel_basis(gradient_example_problem(N=6, lam=0.5)) == []
    assert factored == []
    # y u' = 2 u above the solver cap: the kernel is y^2, exactly
    N = MAX_ORDER + 6
    p = scalar_euler_problem(0.0, Jet.zero(1, N), 2.0, N)
    with pytest.raises(ValidationError, match="solver cap"):
        solve_to_order(p, N)
    (ker,) = spectral.kernel_basis(p)
    assert ker == Jet.from_terms(1, N, {(2,): 1.0}, shape=(1,))
    assert len(factored) == N - 2  # one LU per slice above the head


def test_ill_conditioned_warning_names_the_caller():
    p = ProblemData(VectorFieldJet.euler(1, 3),
                    Jet.constant(1, 3, np.array([[2.0, 1e4], [0.0, 2e-9]])),
                    Jet.from_terms(1, 3, {(1,): [1.0, 1.0]}, shape=(2,)), 1.0, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_to_order(p, 3)
    ill = [w for w in caught if w.category is IllConditionedWarning]
    assert len(ill) == 1 and ill[0].filename == __file__


def test_near_resonance_warning_names_the_caller():
    # the gradient example at lambda = 2 + 5e-7: two combinations miss
    # lambda by 5e-7, and each warning names this file, not the spectral
    # enumeration that solve_to_order reaches through resonance_degree
    p = gradient_example_problem(N=4, lam=2 + 5e-7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_to_order(p, 4)
    near = [w for w in caught if w.category is NearResonanceWarning]
    assert len(near) == 2 and {w.filename for w in near} == {__file__}


# -- degree loop against the whole-matrix reference --------------------------

def _assert_matches_reference(p):
    """solve_to_order against reference_solve_family at the same working order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        entry, n_star = resonance_degree(p)
        got = solve_to_order(p, p.N)
        ref = reference_solve_family(p.at_order(max(p.N, n_star)), entry,
                                     n_star)
    assert got.solvable == ref.solvable
    assert got.working_order == ref.working_order
    assert len(got.kernel_extensions) == len(ref.kernel_extensions)
    assert np.allclose(got.obstructions, ref.obstructions, rtol=1e-12,
                       atol=1e-12 * p.v.norm())
    assert got.condition_report.keys() == ref.condition_report.keys()
    for key, cond in ref.condition_report.items():
        assert got.condition_report[key] == pytest.approx(cond, rel=1e-6)
    if ref.solvable:
        err = (got.particular - ref.particular).norm()
        assert err <= 1e-12 * ref.particular.norm()
    if ref.kernel_extensions:
        spans = [np.column_stack([jet_to_vec(k) for k in sol.kernel_extensions])
                 for sol in (got, ref)]
        assert projector_distance(*spans) <= 1e-8
    return entry is not None, got.solvable


def test_degree_loop_matches_reference_criterion_03(rng):
    """The criterion-03 generator, real; every branch appears."""
    seen = set()
    for _ in range(80):
        p, _ = _random_fredholm_problem(rng)
        seen.add(_assert_matches_reference(p))
    assert seen == {(False, True), (True, True), (True, False)}


@pytest.mark.parametrize("shift", [1e-16, 1e-12])
def test_degree_loop_matches_reference_rounding_residue(shift):
    """A resonant head block that is all rounding residue keeps its kernel."""
    p = _rounding_residue_problem(shift)
    assert _assert_matches_reference(p) == (True, True)
    assert len(solve_to_order(p, p.N).kernel_extensions) == 1


def test_degree_loop_matches_reference_complex(rng):
    """Complex tails and spectra, resonant and shifted off resonance."""
    seen = set()
    for _ in range(30):
        p = _random_resonant_problem(rng, complex_field=True)
        assert p.is_complex
        seen.add(_assert_matches_reference(p))
        seen.add(_assert_matches_reference(replace(p, lam=p.lam + 0.37)))
    assert seen == {(False, True), (True, True), (True, False)}


@pytest.mark.parametrize("rung", [(2, 2, 8), (3, 1, 6)])
def test_degree_loop_matches_reference_ladder(rung):
    recipes = load_recipes()
    rng = np.random.default_rng(sum(rung))
    for kind in recipes.LADDER_KINDS:
        p = recipes.fredholm_problem(transportkit, rng, *rung, kind)
        assert _assert_matches_reference(p) == (kind != "nonresonant",
                                                kind != "obstructed")
