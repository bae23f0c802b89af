"""Heat-coefficient and WKB driver tests.

Closed forms used as oracles:
  * constant potential K = c: Phi_j = (-c)^j / j! (separation of the
    constant mode),
  * Phi_1 = -sum_beta V_beta x^beta / (|beta| + 1) for scalar V (radial
    line integral done by hand),
  * harmonic V = mu^2 x^2: lambda_0 = (2 alpha + 1) mu, lambda_j = 0 for
    j >= 1, a_0 = x^alpha, a_1 = -alpha(alpha-1)/(4 mu) x^{alpha-2},
  * quartic V = x^2 + eps x^4: lambda_1 = (3/4)(2 alpha^2 + 2 alpha + 1) eps
    exactly (ladder-operator matrix elements; the eps^2 correction enters
    lambda_2, not lambda_1, since each power of eps carries a power of
    hbar), cross-checked against finite-difference diagonalization with
    Richardson extrapolation in both the grid spacing and hbar.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from transportkit.applications import (
    HeatProblem,
    WKBProblem,
    heat_coefficients_jet,
    heat_coefficients_numeric,
    wkb_expand,
)
from transportkit.errors import (NumericError, OrderBudgetError,
                                 ValidationError)
from transportkit.jets import P_dim, Jet, VectorFieldJet, jet_from_json, jet_mul
from transportkit.opmatrix import ProblemData
from transportkit.spectral import enumerate_resonances
from transportkit.taylor import residual

from conftest import reference_heat_coefficients, reference_heat_numeric


def random_scalar_potential(rng, n, N, amplitude=1.0):
    coeffs = amplitude * rng.standard_normal(Jet.zero(n, N).coeffs.shape[0])
    return Jet(n, N, coeffs)


class TestHeatProblem:
    def test_order_budget(self):
        with pytest.raises(OrderBudgetError):
            HeatProblem(n=2, m=1, K=Jet.zero(2, 6), J=3, N=6)

    def test_scalar_potential_lifted(self):
        h = HeatProblem(n=2, m=1, K=Jet.zero(2, 5), J=1, N=5)
        assert h.K.value_shape == (1, 1)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            HeatProblem(n=2, m=2, K=Jet.zero(2, 5), J=1, N=5)
        with pytest.raises(ValidationError):
            HeatProblem(n=2, m=1, K=Jet.zero(3, 5), J=1, N=5)


class TestHeatJet:
    def test_free_kernel(self):
        h = HeatProblem(n=2, m=1, K=Jet.zero(2, 7), J=3, N=7)
        jets = heat_coefficients_jet(h)
        assert jets[0] == Jet.constant(2, 7, np.eye(1))
        for Phi in jets[1:]:
            assert np.all(Phi.coeffs == 0.0)

    def test_constant_potential_exponential(self):
        c = 0.7
        h = HeatProblem(n=2, m=1, K=Jet.constant(2, 9, c), J=4, N=9)
        jets = heat_coefficients_jet(h)
        for j, Phi in enumerate(jets):
            expect = Jet.constant(2, Phi.N, np.array([[(-c) ** j / math.factorial(j)]]))
            assert Phi.allclose(expect, atol=1e-13)

    def test_first_coefficient_line_integral(self, rng):
        V = random_scalar_potential(rng, 2, 6)
        h = HeatProblem(n=2, m=1, K=V, J=1, N=6)
        Phi1 = heat_coefficients_jet(h)[1]
        for alpha, val in V.project(4).terms():
            assert Phi1.coefficient(alpha)[0, 0] == pytest.approx(
                -val / (sum(alpha) + 1), abs=1e-12)

    def test_quadratic_potential(self):
        K = Jet.from_terms(2, 7, {(2, 0): 1.0})
        h = HeatProblem(n=2, m=1, K=K, J=1, N=7)
        Phi1 = heat_coefficients_jet(h)[1]
        assert dict(Phi1.terms()).keys() == {(2, 0)}
        assert Phi1.coefficient((2, 0))[0, 0] == pytest.approx(-1.0 / 3.0)

    def test_matrix_potential_residuals(self, rng):
        n, m, J, N = 2, 2, 2, 7
        K = Jet(n, 3, rng.standard_normal((Jet.zero(n, 3).coeffs.shape[0], m, m)))
        h = HeatProblem(n=n, m=m, K=K, J=J, N=N)
        jets = heat_coefficients_jet(h)
        KN = h.K
        for j in range(1, J + 1):
            M_j = N - 2 * j
            prev = jets[j - 1]
            L_prev = jet_mul(KN.project(M_j), prev.project(M_j))
            for i in range(n):
                L_prev = L_prev - prev.partial(i).partial(i)
            X = VectorFieldJet.euler(n, M_j)
            A = Jet.zero(n, M_j, (m, m))
            for col in range(m):
                p = ProblemData(X, A,
                                Jet(n, M_j, -L_prev.coeffs[:, :, col]),
                                -float(j), M_j)
                u = Jet(n, M_j, jets[j].coeffs[:, :, col])
                assert residual(p, u).norm() < 1e-11

    def test_recursion_is_nonresonant(self):
        for j in range(1, 6):
            assert enumerate_resonances(np.ones(3), np.zeros(2), -float(j)) is None

    @staticmethod
    def assert_matches_oracle(h):
        got, ref = heat_coefficients_jet(h), reference_heat_coefficients(h)
        assert len(got) == len(ref) == h.J + 1
        for a, b in zip(got, ref):
            assert a.N == b.N and a.coeffs.dtype == b.coeffs.dtype
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_division_by_degree_matches_the_jet_solver(self):
        # every diagonal block of D_X + j on the radial field is (k + j) I
        # and no other block is nonzero, so the slice LU divides too
        rng = np.random.default_rng(1717)
        for _ in range(200):
            n, m, J = (int(x) for x in rng.integers([1, 1, 0], [3, 3, 4],
                                                    endpoint=True))
            N = 2 * J + 1 + int(rng.integers(0, 3, endpoint=True))
            order = int(rng.integers(0, N, endpoint=True))
            K = Jet(n, order, rng.standard_normal((P_dim(n, order), m, m)))
            self.assert_matches_oracle(HeatProblem(n=n, m=m, K=K, J=J, N=N))

    def test_golden_heat_block_matches_the_jet_solver(self):
        doc = json.loads((Path(__file__).parent / "data" / "cli_golden"
                          / "apps.json").read_text())["heat"]
        self.assert_matches_oracle(HeatProblem(
            n=doc["n"], m=doc["m"], K=jet_from_json(doc["K"]), J=doc["J"],
            N=doc["N"]))


class TestHeatNumeric:
    def test_free_kernel_identity(self):
        h = HeatProblem(n=2, m=2, K=Jet.zero(2, 5, (2, 2)), J=2, N=5)
        vals = heat_coefficients_numeric(h, np.array([0.4, -0.2]))
        assert np.array_equal(vals[0], np.eye(2))
        assert np.allclose(vals[1], 0.0) and np.allclose(vals[2], 0.0)

    def test_quadratic_hand_value(self):
        K = Jet.from_terms(2, 7, {(2, 0): 1.0})
        h = HeatProblem(n=2, m=1, K=K, J=1, N=7)
        vals = heat_coefficients_numeric(h, np.array([1.0, 0.0]))
        assert vals[1][0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        vals = heat_coefficients_numeric(h, np.array([0.3, 0.9]))
        assert vals[1][0, 0] == pytest.approx(-0.03, abs=1e-12)

    def test_matches_jet_evaluation(self, rng):
        V = random_scalar_potential(rng, 2, 9, amplitude=0.5)
        h = HeatProblem(n=2, m=1, K=V, J=2, N=9)
        jets = heat_coefficients_jet(h)
        for _ in range(3):
            q = rng.uniform(-1.0, 1.0, size=2)
            vals = heat_coefficients_numeric(h, q)
            for j in range(1, 3):
                assert np.allclose(vals[j], jets[j].evaluate(q), atol=1e-9)

    @pytest.mark.parametrize("n,m,J", [(1, 1, 3), (2, 2, 2), (3, 1, 2),
                                       (3, 2, 1)])
    def test_matches_the_per_node_loop(self, rng, n, m, J):
        # the nodes are summed in another order: set beforehand, 1e-13 is
        # about 450 roundings of the largest entry
        N = 2 * J + 2
        K = Jet(n, N, 0.5 * rng.standard_normal((P_dim(n, N), m, m)))
        h = HeatProblem(n=n, m=m, K=K, J=J, N=N)
        for _ in range(3):
            q = rng.uniform(-1.0, 1.0, size=n)
            for got, want in zip(heat_coefficients_numeric(h, q),
                                 reference_heat_numeric(h, q)):
                assert np.max(np.abs(got - want)) <= 1e-13 * max(
                    1.0, np.max(np.abs(want)))

    def test_point_shape_checked(self):
        h = HeatProblem(n=2, m=1, K=Jet.zero(2, 5), J=1, N=5)
        with pytest.raises(ValidationError):
            heat_coefficients_numeric(h, np.zeros(3))


def harmonic(mu, N):
    return Jet.from_terms(1, N, {(2,): mu * mu})


class TestWKBProblem:
    def test_order_budget(self):
        with pytest.raises(OrderBudgetError):
            WKBProblem(V=harmonic(1.0, 9), level=2, J=3, N=9)

    def test_rejects_bad_minima(self):
        with pytest.raises(ValidationError):
            WKBProblem(V=Jet.from_terms(1, 8, {(0,): 1.0, (2,): 1.0}),
                       level=0, J=1, N=8)
        with pytest.raises(ValidationError):
            WKBProblem(V=Jet.from_terms(1, 8, {(1,): 0.5, (2,): 1.0}),
                       level=0, J=1, N=8)
        with pytest.raises(ValidationError):
            WKBProblem(V=Jet.from_terms(1, 8, {(2,): -1.0}), level=0, J=1, N=8)

    def test_rejects_multivariate(self):
        with pytest.raises(ValidationError):
            WKBProblem(V=Jet.zero(2, 8), level=0, J=1, N=8)

    @pytest.mark.parametrize("v2,named", [(1e-300, "1e-150"), (2e-13, "4.47e-07")])
    def test_rejects_unresolvable_well_frequency(self, v2, named):
        # V = 1e-300 x^2 + 0.1 x^4 used to overflow in the eiconal series
        # and then blame the resonance enumeration ceiling; below
        # mu = 5e-7 the levels 2 mu apart fall within the near-resonance
        # tolerance of the jet solver
        with pytest.raises(ValidationError, match=f"mu = {named} is too small"):
            WKBProblem(V=Jet.from_terms(1, 6, {(2,): v2, (4,): 0.1}),
                       level=0, J=1, N=6)
        WKBProblem(V=Jet.from_terms(1, 6, {(2,): 3e-13, (4,): 0.1}),
                   level=0, J=1, N=6)

    def test_nan_eiconal_fails_the_self_check(self):
        V = Jet.from_terms(1, 8, {(2,): 1.0, (4,): math.nan})
        with pytest.raises(NumericError, match="eiconal self-check"):
            wkb_expand(WKBProblem(V=V, level=0, J=1, N=8))


class TestWKBHarmonic:
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_lambda_series(self, alpha):
        mu = 1.3
        res = wkb_expand(WKBProblem(V=harmonic(mu, 13), level=alpha, J=4, N=13))
        assert res.lambdas[0] == pytest.approx((2 * alpha + 1) * mu, abs=1e-14)
        for lam in res.lambdas[1:]:
            assert abs(lam) <= 1e-12

    def test_ground_amplitude(self):
        res = wkb_expand(WKBProblem(V=harmonic(2.0, 12), level=1, J=2, N=12))
        assert dict(res.amplitudes[0].terms()) == {(1,): 1.0}

    def test_first_correction_closed_form(self):
        mu, alpha = 1.3, 2
        res = wkb_expand(WKBProblem(V=harmonic(mu, 13), level=alpha, J=1, N=13))
        a1 = dict(res.amplitudes[1].terms())
        assert set(a1) == {(0,)}
        assert a1[(0,)] == pytest.approx(-alpha * (alpha - 1) / (4 * mu))

    def test_phase(self):
        mu = 0.8
        res = wkb_expand(WKBProblem(V=harmonic(mu, 10), level=0, J=1, N=10))
        assert dict(res.phi.terms()) == {(2,): pytest.approx(mu / 2)}
        assert res.mu == pytest.approx(mu)


class TestWKBQuartic:
    @pytest.mark.parametrize("alpha", [0, 1, 2, 3])
    def test_first_correction_ladder(self, alpha):
        eps = 1e-4
        V = Jet.from_terms(1, 12, {(2,): 1.0, (4,): eps})
        res = wkb_expand(WKBProblem(V=V, level=alpha, J=1, N=12))
        expect = 0.75 * (2 * alpha ** 2 + 2 * alpha + 1) * eps
        assert res.lambdas[1] == pytest.approx(expect, rel=1e-8)

    def test_against_grid_diagonalization(self):
        eps = 0.1
        V = Jet.from_terms(1, 14, {(2,): 1.0, (4,): eps})

        def fd_levels(hbar, npts):
            x = np.linspace(-3.0, 3.0, npts)
            h = x[1] - x[0]
            diag = 2 * hbar ** 2 / h ** 2 + x ** 2 + eps * x ** 4
            off = np.full(npts - 1, -hbar ** 2 / h ** 2)
            return eigvalsh_tridiagonal(diag, off, select="i",
                                        select_range=(0, 3))

        hbars = [0.2, 0.1, 0.05]
        energies = {}
        for hb in hbars:
            e1, e2 = fd_levels(hb, 3001), fd_levels(hb, 6001)
            energies[hb] = (4 * e2 - e1) / 3  # remove the O(h^2) grid error
        for alpha in range(3):
            res = wkb_expand(WKBProblem(V=V, level=alpha, J=1, N=14))
            lam0 = 2 * alpha + 1
            assert res.lambdas[0] == pytest.approx(lam0, abs=1e-12)
            f = [(energies[hb][alpha] / hb - lam0) / hb for hb in hbars]
            r1 = (f[1] * hbars[0] - f[0] * hbars[1]) / (hbars[0] - hbars[1])
            r2 = (f[2] * hbars[1] - f[1] * hbars[2]) / (hbars[1] - hbars[2])
            fitted = (4 * r2 - r1) / 3
            assert res.lambdas[1] == pytest.approx(fitted, rel=5e-4)


class TestWKBStructure:
    def make_problem(self, J=2, alpha=1, N=12):
        V = Jet.from_terms(1, N, {(2,): 1.21, (3,): 0.3, (4,): -0.05, (5,): 0.02})
        return WKBProblem(V=V, level=alpha, J=J, N=N)

    def test_eiconal_identity(self):
        res = wkb_expand(self.make_problem())
        phi_prime = res.phi.partial(0)
        N = res.phi.N
        V = self.make_problem().V
        err = jet_mul(phi_prime.extend(N), phi_prime.extend(N)) - V
        assert err.norm() < 1e-10
        assert res.phi.coefficient((0,)) == 0.0

    def test_transport_residuals(self):
        w = self.make_problem(J=2, alpha=1, N=13)
        res = wkb_expand(w)
        mu, lam0 = res.mu, res.lambdas[0]
        phi_prime = res.phi.partial(0)
        X = VectorFieldJet([2.0 * phi_prime])
        A = phi_prime.partial(0)
        M0 = w.N - 2
        p0 = ProblemData.scalar(X, A, Jet.zero(1, M0), lam0, M0)
        a0 = res.amplitudes[0]
        assert residual(p0, Jet(1, M0, a0.coeffs.reshape(-1, 1))).norm() < 1e-10
        for j in range(1, w.J + 1):
            M_j = M0 - 2 * j
            rhs = res.amplitudes[j - 1].partial(0).partial(0)
            for i in range(1, j + 1):
                rhs = rhs + res.lambdas[i] * res.amplitudes[j - i].project(M_j)
            p = ProblemData.scalar(X, A, rhs, lam0, M_j)
            u = Jet(1, M_j, res.amplitudes[j].coeffs.reshape(-1, 1))
            assert residual(p, u).norm() < 1e-10

    def test_gauge_line_property(self):
        w = self.make_problem()
        base = wkb_expand(w)
        scaled = wkb_expand(w, amplitude_scale=2.5)
        for lb, ls in zip(base.lambdas, scaled.lambdas):
            assert ls == pytest.approx(lb, abs=1e-12)
        for ab, as_ in zip(base.amplitudes, scaled.amplitudes):
            assert as_.allclose(2.5 * ab, atol=1e-11)

    def test_eigenvalue_helper(self):
        res = wkb_expand(self.make_problem(J=1))
        hb = 0.05
        assert res.eigenvalue(hb) == pytest.approx(
            hb * res.lambdas[0] + hb ** 2 * res.lambdas[1])
