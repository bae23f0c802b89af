"""Acceptance gate: ten headline checks, one verdict line each.

Each test prints a single [PASS]/[FAIL] line (visible with -s, or in the
captured output on failure) and fails loudly on any broken guarantee.
The checks, in order:

 1. the 6x6 matrix of D_X on P_2 for the gradient field of
    (y1^2)/2 + y1^2 y2 + y2^2, integer-exact;
 2. eigenvalue 2 of that operator: enumeration multiplicity 2, kernel
    dimension 1, and the substitution y1 -> y1 - y1 y2 removing the
    coupling entry, verified as an explicit similarity transform;
 3. Fredholm bookkeeping over randomized problems: kernel and dual
    kernel dimensions agree, are bounded by the resonance multiplicity,
    and the obstruction test matches a dense least-squares residual;
 4. flow-integral evaluation against the order-10 jet solution in a
    radius-0.2 ball, both in direct mode and with the head split off;
 5. the closed form y u' + a u = y^k => u = y^k / (k + a);
 6. the two-regime envelope and its inverse floor over randomized
    decaying-path families, plus the transition cocycle identity;
 7. functions vanishing to order N+1 decay along the backward flow at
    least like N times the trajectory rate;
 8. heat coefficient ladder: K = 0, constant K, and the K = q1^2
    quadrature value -q1^2/3;
 9. WKB: exact harmonic series and the quartic first correction against
    a finite-difference grid diagonalization;
10. grid solutions move O(eps) under O(eps) perturbations of the data
    (log-log slope 1 across eps = 1e-3, 1e-4, 1e-5).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from transportkit import (
    EvalConfig,
    FieldSampler,
    HeatProblem,
    Jet,
    MatrixPath,
    ProblemData,
    VectorFieldJet,
    WKBProblem,
    apply_operator,
    assemble,
    compute_M,
    dual_kernel_basis,
    empirical_decay_rate,
    endo_spectrum,
    enumerate_resonances,
    evaluate_solution,
    heat_coefficients_jet,
    heat_coefficients_numeric,
    integrate_flow,
    inverse_two_regime_bound,
    jet_to_vec,
    kernel_basis,
    linearization_spectrum,
    solvability_test,
    solve_to_order,
    two_regime_bound,
    wkb_expand,
)
from transportkit.jets import P_dim, monomial_rank, monomials


@contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {label}")
        raise
    print(f"[PASS] criterion {num:2d}: {label}")


def gradient_problem(N=2, lam=0.0):
    """X = grad(y1^2/2 + y1^2 y2 + y2^2), scalar values, A = v = 0."""
    phi = Jet.from_terms(2, N + 1, {(2, 0): 0.5, (2, 1): 1.0, (0, 2): 1.0})
    X = VectorFieldJet.from_gradient(phi).project(N)
    return ProblemData.scalar(X, Jet.zero(2, N), Jet.zero(2, N), lam, N)


# Basis 1, y1, y2, y1^2, y1 y2, y2^2.  Worked out by hand: D_X(y1) =
# y1 + 2 y1 y2, D_X(y2) = 2 y2 + y1^2, monomials of degree 2 scale by
# alpha . (1, 2) after truncation.
SIX_BY_SIX = np.array([
    [0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 0],
    [0, 0, 1, 2, 0, 0],
    [0, 2, 0, 0, 3, 0],
    [0, 0, 0, 0, 0, 4],
], dtype=float)


def test_criterion_01_matrix_representation():
    with verdict(1, "6x6 matrix of D_X on P_2, integer-exact"):
        start = time.perf_counter()
        M = assemble(gradient_problem())
        elapsed = time.perf_counter() - start
        assert np.array_equal(M.entries, SIX_BY_SIX)
        assert np.array_equal(np.diag(M.entries), [0, 1, 2, 2, 3, 4])
        assert elapsed < 1.0


def test_criterion_02_multiplicity_gap_and_similarity():
    with verdict(2, "multiplicity 2 vs kernel dim 1 at lambda = 2, "
                    "coupling removed by y1 -> y1 - y1 y2"):
        p = gradient_problem(lam=2.0)
        mu = linearization_spectrum(p.X)
        rho = endo_spectrum(np.asarray(p.A.coeffs[0]))
        entry = enumerate_resonances(mu, rho, 2.0)
        assert entry is not None and entry.multiplicity == 2
        assert len(kernel_basis(p)) == 1

        M = assemble(p).entries
        s = np.linalg.svd(M - 2.0 * np.eye(6), compute_uv=False)
        assert s[-2] / max(s[-1], 1e-300) >= 1e6

        # new basis vector y1 - y1 y2 is a genuine eigenvector, so the
        # conjugated matrix is the old one with the (y1 y2 <- y1) entry
        # gone and nothing else moved
        S = np.eye(6)
        S[4, 1] = -1.0
        cleaned = SIX_BY_SIX.copy()
        cleaned[4, 1] = 0.0
        assert np.allclose(np.linalg.solve(S, M @ S), cleaned, atol=1e-12)


def _random_fredholm_problem(rng):
    """Triangular linear data with integer spectrum, plus small tails."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    N = int(rng.integers(1, 5))
    mu = rng.integers(1, 3, size=n).astype(float)
    rho = rng.integers(-1, 2, size=m).astype(float)

    comps = []
    for i in range(n):
        c = 0.2 * rng.standard_normal(P_dim(n, N))
        c[:1 + n] = 0.0
        for j in range(i, n):  # upper-triangular linear part
            c[1 + j] = (mu[i] if j == i
                        else 0.2 * rng.standard_normal())
        comps.append(Jet(n, N, c))
    X = VectorFieldJet(comps)

    A_c = 0.2 * rng.standard_normal((P_dim(n, N), m, m))
    A_c[0] = np.triu(0.2 * rng.standard_normal((m, m)), k=1) + np.diag(rho)
    A = Jet(n, N, A_c)
    v = Jet(n, N, rng.standard_normal((P_dim(n, N), m)))

    resonant = bool(rng.random() < 0.5)
    if resonant:
        alpha = rng.integers(0, N + 1, size=n)
        while alpha.sum() > N:
            alpha = rng.integers(0, N + 1, size=n)
        lam = float(alpha @ mu + rho[rng.integers(0, m)])
    else:
        lam = float(rng.integers(0, 2 * N) + 0.37)
    p = ProblemData(X, A, v, lam, N)
    if resonant and bool(rng.random() < 0.3):
        # force v into the range so the resonant-but-solvable branch runs
        u = Jet(n, N, rng.standard_normal((P_dim(n, N), m)))
        p = p.with_v(apply_operator(p, u) - lam * u)
    return p, resonant


def test_criterion_03_fredholm_symmetry(rng):
    with verdict(3, "kernel/dual-kernel symmetry and solvability vs "
                    "least-squares over 220 randomized problems"):
        checked = 0
        for _ in range(220):
            p, resonant = _random_fredholm_problem(rng)
            mu = linearization_spectrum(p.X)
            rho = endo_spectrum(np.asarray(p.A.coeffs[0]))
            entry = enumerate_resonances(mu, rho, p.lam)
            assert (entry is not None) == resonant

            k = len(kernel_basis(p))
            k_dual = len(dual_kernel_basis(p))
            assert k == k_dual
            assert (k >= 1) == resonant
            if entry is not None:
                assert k <= entry.multiplicity

            # the kernel routines work at the order that sees every
            # resonant degree, so the dense cross-check must too
            n_star = entry.max_alpha_degree if entry is not None else 0
            q = p.at_order(max(p.N, n_star))
            dense = assemble(q).entries - q.lam * np.eye(P_dim(q.n, q.N) * q.m)
            v_vec = jet_to_vec(q.v)
            x = np.linalg.lstsq(dense, v_vec, rcond=None)[0]
            resid = float(np.linalg.norm(dense @ x - v_vec))
            lstsq_solvable = resid <= 1e-9 * float(np.linalg.norm(v_vec))
            assert solvability_test(p).solvable == lstsq_solvable
            checked += 1
        assert checked >= 200


def _random_flow_problem(rng, indefinite):
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    N = 10
    mu = 1.0 + rng.uniform(0.0, 1.0, size=n)
    if indefinite:
        rho = np.array([(-rng.uniform(0.4, 0.8) if i == 0
                         else rng.uniform(0.6, 1.2)) for i in range(m)])
    else:
        rho = rng.uniform(0.5, 1.5, size=m)

    comps = []
    for i in range(n):
        c = np.zeros(P_dim(n, N))
        c[1 + i] = mu[i]
        for r, alpha in enumerate(monomials(n, N)):
            if sum(alpha) == 2:
                c[r] = 0.1 * rng.standard_normal()
        comps.append(Jet(n, N, c))
    X = VectorFieldJet(comps)

    A_c = np.zeros((P_dim(n, N), m, m))
    A_c[0] = np.diag(rho)
    A_c[1:1 + n] = 0.1 * rng.standard_normal((n, m, m))
    A = Jet(n, N, A_c)

    v_c = np.zeros((P_dim(n, N), m))
    v_c[:P_dim(n, 3)] = rng.standard_normal((P_dim(n, 3), m))
    v = Jet(n, N, v_c)

    p = ProblemData(X, A, v, 0.0, N)
    assert enumerate_resonances(linearization_spectrum(X),
                                endo_spectrum(A_c[0]), 0.0) is None
    return p


def test_criterion_04_cross_solver_agreement(rng):
    with verdict(4, "flow vs order-10 jet within 1e-5 on radius-0.2 "
                    "balls, direct and split modes"):
        start = time.perf_counter()
        cfg = EvalConfig(rel_tol=1e-8, abs_tol=1e-11, tail_tol=1e-8)
        modes = set()
        for trial in range(20):
            p = _random_flow_problem(rng, indefinite=trial >= 10)
            jet_u = solve_to_order(p, 10).particular
            f = FieldSampler.from_problem(p)
            for _ in range(50):
                y = rng.standard_normal(p.n)
                y *= rng.uniform(0.02, 0.2) / np.linalg.norm(y)
                res = evaluate_solution(f, p, y, cfg)
                modes.add(res.mode)
                diff = np.max(np.abs(np.atleast_1d(res.u)
                                     - np.atleast_1d(jet_u.evaluate(y))))
                assert diff <= 1e-5
        assert modes == {"direct", "split"}
        assert time.perf_counter() - start < 120.0


def test_criterion_05_closed_form_1d():
    with verdict(5, "y u' + a u = y^k gives u = y^k/(k+a), jet exact "
                    "and flow to 1e-7"):
        for a, k in [(0.5, 1), (1.3, 2), (0.25, 3)]:
            N = k + 3
            v = Jet.from_terms(1, N, {(k,): 1.0})
            p = ProblemData.scalar(VectorFieldJet.euler(1, N),
                                   Jet.constant(1, N, a), v, 0.0, N)
            sol = solve_to_order(p, N)
            want = np.zeros((P_dim(1, N), 1))
            want[monomial_rank(1, N)[(k,)], 0] = 1.0 / (k + a)
            assert np.max(np.abs(sol.particular.coeffs - want)) <= 1e-15

            f = FieldSampler.from_problem(p)
            cfg = EvalConfig(rel_tol=1e-11, abs_tol=1e-14, tail_tol=1e-13)
            for y in (0.1, 0.5, 1.0):
                u = evaluate_solution(f, p, np.array([y]), cfg).u[0]
                exact = y ** k / (k + a)
                assert abs(u - exact) <= 1e-7 * abs(exact)


def _estimate_family(rng, m):
    base = rng.standard_normal((m, m))
    re = np.real(np.linalg.eigvals(base))
    spread = float(np.max(re) - np.min(re))
    # Keep the fast-to-slow eigenvalue gap small: s_min(E(t))/s_max(E(t))
    # decays like exp(spread * t), and past exp(-36) or so the smallest
    # singular value of the integrated E(t) drowns in double-precision
    # noise, which would fake a floor violation at the deepest samples.
    target = rng.uniform(0.6, 1.0)
    if spread > target:
        base *= target / spread
    lam_min = float(np.min(np.real(np.linalg.eigvals(base))))
    A0 = base + (0.5 + rng.random() - lam_min) * np.eye(m)
    eps = 0.2 + 0.2 * rng.random()
    t0 = -float(rng.uniform(0.5, 2.0))
    margin_dir = (eps / 2.0) / compute_M(A0, eps / 2.0)
    margin_inv = (eps / 2.0) / compute_M(-A0.T, eps / 2.0)
    B = rng.standard_normal((m, m))
    B *= 0.8 * min(margin_dir, margin_inv) * math.exp(-t0) \
        / np.linalg.norm(B, 2)
    path = MatrixPath(fn=lambda t, A0=A0, B=B: A0 + math.exp(t) * B,
                      sample_times=np.linspace(-10.0, 0.0, 61))
    return A0, path, eps, t0


def test_criterion_06_envelope_bounds_and_cocycle(rng):
    with verdict(6, "two-regime envelope and inverse floor over 100 "
                    "families, cocycle identity to 1e-7"):
        for i in range(100):
            m = 2 if i % 3 else 3
            A0, path, eps, t0 = _estimate_family(rng, m)
            assert not two_regime_bound(A0, path, eps, t0).violated
            assert not inverse_two_regime_bound(A0, path, eps, t0).violated

        # E(s, Phi_t(y)) = E(s+t, y) E(t, y)^{-1} along a nonlinear flow
        N = 6
        comps = []
        for i in range(2):
            c = np.zeros(P_dim(2, N))
            c[1 + i] = (1.0, 1.4)[i]
            c[monomial_rank(2, N)[(1, 1)]] = 0.1 * (1 - 2 * i)
            comps.append(Jet(2, N, c))
        A_c = np.zeros((P_dim(2, N), 2, 2))
        A_c[0] = np.array([[0.8, 0.3], [-0.2, 1.1]])
        A_c[1] = np.array([[0.1, 0.0], [0.2, -0.1]])
        p = ProblemData(VectorFieldJet(comps), Jet(2, N, A_c),
                        Jet.zero(2, N, (2,)), 0.0, N)
        f = FieldSampler.from_problem(p)
        y = np.array([0.15, -0.1])
        traj = integrate_flow(f, y, -8.0, rel_tol=1e-11, abs_tol=1e-14)
        for _ in range(10):
            t = -float(rng.uniform(0.2, 4.0))
            s = -float(rng.uniform(0.2, 4.0))
            st = traj.at(t)
            traj2 = integrate_flow(f, st.y_t, s, rel_tol=1e-11,
                                   abs_tol=1e-14)
            lhs = np.linalg.inv(traj2.at(s).Finv)
            rhs = np.linalg.inv(traj.at(s + t).Finv) @ st.Finv
            assert np.max(np.abs(lhs - rhs)) <= 1e-7


def test_criterion_07_flat_function_decay():
    with verdict(7, "order-(N+1) vanishing forces decay rate >= "
                    "0.95 N nu_fit along the backward flow"):
        fields = []
        c1 = np.zeros(P_dim(1, 6))
        c1[1] = 1.0
        fields.append(VectorFieldJet([Jet(1, 6, c1)]))
        c2a = np.zeros(P_dim(2, 6))
        c2a[1] = 1.0
        c2a[monomial_rank(2, 6)[(2, 0)]] = 0.05
        c2b = np.zeros(P_dim(2, 6))
        c2b[2] = 1.6
        c2b[monomial_rank(2, 6)[(1, 1)]] = -0.05
        fields.append(VectorFieldJet([Jet(2, 6, c2a), Jet(2, 6, c2b)]))
        c3a = np.zeros(P_dim(2, 6))
        c3a[1], c3a[2] = 1.0, -2.0
        c3b = np.zeros(P_dim(2, 6))
        c3b[1], c3b[2] = 2.0, 1.0
        fields.append(VectorFieldJet([Jet(2, 6, c3a), Jet(2, 6, c3b)]))

        for X in fields:
            n = X.n
            for N in (2, 3, 4):
                v_c = np.zeros((P_dim(n, N + 1), 1))
                for r, alpha in enumerate(monomials(n, N + 1)):
                    if sum(alpha) == N + 1:
                        v_c[r, 0] = 1.0
                p = ProblemData(X.project(N + 1),
                                Jet.zero(n, N + 1, (1, 1)),
                                Jet(n, N + 1, v_c), 0.0, N + 1)
                f = FieldSampler.from_problem(p)
                y = np.full(n, 0.2 / math.sqrt(n))
                nu_fit = empirical_decay_rate(f, y, "flow", horizon=20.0)
                v_rate = empirical_decay_rate(
                    f, y,
                    quantity=lambda st: float(np.linalg.norm(f.v_eval(st.y_t))),
                    horizon=20.0)
                assert v_rate >= 0.95 * N * nu_fit


def test_criterion_08_heat_coefficients():
    with verdict(8, "heat ladder: K = 0 trivial, constant K factorial "
                    "series, K = q1^2 quadrature value"):
        free = heat_coefficients_jet(HeatProblem(n=2, m=1, J=3, N=7,
                                                 K=Jet.zero(2, 7)))
        assert all(np.max(np.abs(Phi.coeffs)) <= 1e-14 for Phi in free[1:])

        c = 0.7
        const = heat_coefficients_jet(
            HeatProblem(n=2, m=1, J=4, N=9, K=Jet.constant(2, 9, c)))
        for j, Phi in enumerate(const):
            assert abs(Phi.coeffs[0, 0, 0] - (-c) ** j / math.factorial(j)) \
                <= 1e-14
            assert np.max(np.abs(Phi.coeffs[1:])) <= 1e-14

        h = HeatProblem(n=2, m=1, J=1, N=5,
                        K=Jet.from_terms(2, 5, {(2, 0): 1.0}))
        jets = heat_coefficients_jet(h)
        expect = {(2, 0): -1.0 / 3.0}
        got = {alpha: val[0, 0] for alpha, val in jets[1].terms()}
        assert set(got) == set(expect)
        assert abs(got[(2, 0)] - expect[(2, 0)]) <= 1e-14
        for q in (np.array([0.3, -0.2]), np.array([0.0, 0.9]),
                  np.array([-0.5, 0.1])):
            vals = heat_coefficients_numeric(h, q)
            assert abs(vals[1][0, 0] - (-q[0] ** 2 / 3.0)) <= 1e-10
            assert abs(vals[1][0, 0] - jets[1].evaluate(q)[0, 0]) <= 1e-10


def _grid_eigenvalue(V_fn, hbar, npts, span=3.0):
    """Lowest Dirichlet eigenvalue of -hbar^2 d^2/dx^2 + V on [-span, span]."""
    x = np.linspace(-span, span, npts)
    dx = x[1] - x[0]
    diag = (hbar / dx) ** 2 * 2.0 + V_fn(x[1:-1])
    off = np.full(npts - 3, -((hbar / dx) ** 2))
    return float(eigvalsh_tridiagonal(diag, off, select="i",
                                      select_range=(0, 0))[0])


def _oracle_first_correction(V_fn, mu):
    """Fitted hbar coefficient of E/hbar - mu from grid diagonalization."""
    def refined(hbar):
        e1 = _grid_eigenvalue(V_fn, hbar, 3001)
        e2 = _grid_eigenvalue(V_fn, hbar, 6001)
        return (4.0 * e2 - e1) / 3.0

    def f(hbar):
        return (refined(hbar) / hbar - mu) / hbar

    f1, f2, f3 = f(0.2), f(0.1), f(0.05)
    r1 = 2.0 * f2 - f1
    r2 = 2.0 * f3 - f2
    return 2.0 * r2 - r1


def test_criterion_09_wkb():
    with verdict(9, "harmonic WKB series exact, quartic correction "
                    "matches grid oracle to 3 significant figures"):
        start = time.perf_counter()
        m_osc = 1.3
        for level in (0, 1, 2):
            V = Jet.from_terms(1, 13, {(2,): m_osc ** 2})
            res = wkb_expand(WKBProblem(V=V, level=level, J=4, N=13))
            assert res.lambdas[0] == (2 * level + 1) * res.mu
            assert abs(res.mu - m_osc) <= 1e-14
            assert all(abs(l) <= 1e-12 for l in res.lambdas[1:])

        eps_q = 0.1
        V = Jet.from_terms(1, 10, {(2,): 1.0, (4,): eps_q})
        res = wkb_expand(WKBProblem(V=V, level=0, J=2, N=10))
        lam1 = res.lambdas[1]
        assert abs(lam1 - 0.75 * eps_q) <= 1e-12  # closed form
        oracle = _oracle_first_correction(lambda x: x ** 2 + eps_q * x ** 4,
                                          1.0)
        # agreement at 3 significant figures: one part in a thousand
        assert abs(lam1 - oracle) <= 1e-3 * abs(lam1)
        assert time.perf_counter() - start < 60.0


def _benchmark_problems():
    out = []
    rng = np.random.default_rng(314159)
    for nb in range(5):
        n = 1 + nb % 2
        m = 1 + (nb // 2) % 2
        N = 6
        mu = 1.0 + 0.3 * rng.random(n)
        comps = []
        for i in range(n):
            c = np.zeros(P_dim(n, N))
            c[1 + i] = mu[i]
            for r, alpha in enumerate(monomials(n, N)):
                if sum(alpha) == 2:
                    c[r] = 0.08 * rng.standard_normal()
            comps.append(Jet(n, N, c))
        A_c = np.zeros((P_dim(n, N), m, m))
        A_c[0] = np.diag(0.8 + 0.4 * rng.random(m))
        A_c[1] = 0.1 * rng.standard_normal((m, m))
        v_c = np.zeros((P_dim(n, N), m))
        v_c[:P_dim(n, 2)] = rng.standard_normal((P_dim(n, 2), m))
        p = ProblemData(VectorFieldJet(comps), Jet(n, N, A_c),
                        Jet(n, N, v_c), 0.0, N)
        dirs = {
            "X": [rng.standard_normal(P_dim(n, N)) for _ in range(n)],
            "A": rng.standard_normal((P_dim(n, N), m, m)),
            "v": rng.standard_normal((P_dim(n, N), m)),
        }
        for d in dirs["X"]:
            d[0] = 0.0  # keep the source at the origin
        pts = []
        for _ in range(4):
            y = rng.standard_normal(n)
            pts.append(y * rng.uniform(0.05, 0.2) / np.linalg.norm(y))
        out.append((p, dirs, pts))
    return out


def _perturb(p, dirs, eps):
    comps = [Jet(p.n, p.N, c.coeffs + eps * d)
             for c, d in zip(p.X.components, dirs["X"])]
    return ProblemData(VectorFieldJet(comps),
                       Jet(p.n, p.N, p.A.coeffs + eps * dirs["A"]),
                       Jet(p.n, p.N, p.v.coeffs + eps * dirs["v"]),
                       p.lam, p.N)


def test_criterion_10_perturbation_stability():
    with verdict(10, "grid solutions move O(eps): log-log slope "
                     "1.0 +/- 0.15 on 5 benchmarks"):
        cfg = EvalConfig(rel_tol=1e-10, abs_tol=1e-13, tail_tol=1e-11)
        eps_grid = (1e-3, 1e-4, 1e-5)
        for p, dirs, pts in _benchmark_problems():
            f0 = FieldSampler.from_problem(p)
            base = [evaluate_solution(f0, p, y, cfg).u for y in pts]
            diffs = []
            for eps in eps_grid:
                q = _perturb(p, dirs, eps)
                fq = FieldSampler.from_problem(q)
                d = max(float(np.max(np.abs(evaluate_solution(fq, q, y, cfg).u
                                            - u0)))
                        for y, u0 in zip(pts, base))
                diffs.append(d)
            slope = np.polyfit(np.log(eps_grid), np.log(diffs), 1)[0]
            assert 0.85 <= slope <= 1.15
