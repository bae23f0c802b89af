"""Order-by-order solver tests.

Closed forms used as oracles:

* Euler field in 1D with constant coefficient a and v = y^k:
  y u' + a u = lam u + y^k  has the monomial solution u = y^k / (k + a - lam).
* The gradient example at lam = 2 has the one-dimensional kernel spanned by
  the unique extension of y1^2, computed by hand through degree 4:
  y1^2 - 2 y1^2 y2 + y1^4 + 2 y1^2 y2^2.
"""

import numpy as np
import pytest

from transportkit import spectral, taylor
from transportkit.errors import UnsolvableError, ValidationError
from transportkit.jets import Jet, VectorFieldJet
from transportkit.opmatrix import ProblemData, apply_operator, assemble
from transportkit.taylor import MAX_ORDER, JetSolution, residual, solve_to_order

from test_opmatrix import gradient_example_problem


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

    def test_resonant_solve_assembles_and_decomposes_once(self, monkeypatch):
        # one head SVD serves the obstructions, the particular solution and
        # the kernel; the dual kernel alone assembles only up to N*
        orders, svds = [], []
        svd = np.linalg.svd

        def counting_assemble(q):
            orders.append(q.N)
            return assemble(q)

        def counting_svd(*args, **kwargs):
            svds.append(args[0].shape)
            return svd(*args, **kwargs)

        for module in (taylor, spectral):
            monkeypatch.setattr(module, "assemble", counting_assemble)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        p = gradient_example_problem(N=6, lam=2.0)
        sol = solve_to_order(p, 6)
        assert sol.solvable and len(sol.kernel_extensions) == 1
        assert orders == [6] and svds == [(6, 6)]  # head: degrees <= 2
        orders.clear()
        assert len(spectral.dual_kernel_basis(p)) == 1
        assert orders == [2]
        orders.clear()
        assert spectral.dual_kernel_basis(p.with_lam(0.5)) == []
        assert orders == []
