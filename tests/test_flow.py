"""Flow-integration tests against closed forms.

Oracles:

* 1D X = y d/dy, A = a: Phi_t(y) = y e^t, E(t) = e^{-at} so Finv = e^{at},
  and I(t) = int_t^0 e^{as} v(y e^s) ds has elementary antiderivatives for
  monomial v.
* y u' + u = y^2 has the solution u = y^2 / 3.
* A = diag(2, 3) constant: Finv(t) = diag(e^{2t}, e^{3t}).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from transportkit import flow
from transportkit.errors import (
    FlowIntegrationError,
    QuantityUnderflowError,
    RegionExitError,
    ResonantProblemError,
    TailDecayError,
    ValidationError,
)
from transportkit.flow import (
    EvalConfig,
    FieldSampler,
    FlowState,
    FlowTrajectory,
    empirical_decay_rate,
    evaluate_solution,
    integrate_flow,
)
from transportkit.jets import P_dim, Jet, VectorFieldJet
from transportkit.opmatrix import ProblemData
from transportkit.taylor import solve_to_order

from conftest import (
    reference_flow_segment,
    reference_reversed_rhs,
    reference_tail_integrate,
    reference_tangent,
)
from test_acceptance import _benchmark_problems, _random_flow_problem
from test_opmatrix import gradient_example_problem
from test_taylor import scalar_euler_problem


@pytest.fixture
def solvers(monkeypatch):
    """Every DOP853 solver the flow evaluator makes, recording its step ends."""
    made = []

    class Recording(flow.DOP853):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.ends = []  # (t, state) after each accepted step
            made.append(self)

        def step(self):
            message = super().step()
            if self.status != "failed":
                self.ends.append((self.t, self.y.copy()))
            return message

    monkeypatch.setattr(flow, "DOP853", Recording)
    return made


def sampler_1d(a: float, vfun, radius=math.inf) -> FieldSampler:
    return FieldSampler(
        X_eval=lambda y: np.array([y[0]]),
        A_eval=lambda y: np.array([[a]]),
        v_eval=lambda y: np.array([vfun(y[0])]),
        source=np.zeros(1),
        radius=radius,
    )


class TestFieldSampler:
    def test_from_problem_matches_jets(self):
        p = gradient_example_problem(N=3, lam=0.0)
        f = FieldSampler.from_problem(p)
        q = np.array([0.2, -0.1])
        # X = (y1 + 2 y1 y2, y1^2 + 2 y2)
        expected = np.array([q[0] + 2 * q[0] * q[1], q[0] ** 2 + 2 * q[1]])
        assert np.allclose(f.X_eval(q), expected, atol=1e-14)
        assert f.n == 2 and f.m == 1
        assert f._joint is not None

    def test_nonvanishing_source_rejected(self):
        with pytest.raises(ValidationError, match="vanish"):
            FieldSampler(
                X_eval=lambda y: np.array([y[0] + 1.0]),
                A_eval=lambda y: np.eye(1),
                v_eval=lambda y: np.zeros(1),
                source=np.zeros(1),
            )

    def test_linearization_cross_check(self):
        p = gradient_example_problem(N=3, lam=0.0)
        with pytest.raises(ValidationError, match="disagrees"):
            FieldSampler(
                X_eval=lambda y: np.array([2 * y[0], y[1]]),  # wrong Jacobian
                A_eval=lambda y: np.eye(1),
                v_eval=lambda y: np.zeros(1),
                source=np.zeros(2),
                consistent_jets=p,
            )

    def test_fd_linearization(self):
        f = sampler_1d(1.0, lambda y: 0.0)
        assert f.linearization() == pytest.approx(np.array([[1.0]]), abs=1e-8)

    def test_from_problem_does_not_check_its_own_polynomial(self):
        # X = y + 1e9 y^3: the central difference with step 1e-6 reads
        # 1 + 1e9 * 1e-12, which the cross-check would refuse, though the
        # sampler is the jet polynomial itself
        X = VectorFieldJet([Jet.from_terms(1, 3, {(1,): 1.0, (3,): 1e9})])
        p = ProblemData(X, Jet.constant(1, 3, np.eye(1)),
                        Jet.zero(1, 3, shape=(1,)), 0.0, 3)
        f = FieldSampler.from_problem(p)
        assert f.consistent_jets is p
        assert f.linearization()[0, 0] == pytest.approx(1.001, rel=1e-9)

    @staticmethod
    def stiff_problem():
        X = VectorFieldJet([Jet.from_terms(1, 3, {(1,): 1.0, (3,): 1e9})])
        return ProblemData(X, Jet.constant(1, 3, np.eye(1)),
                           Jet.zero(1, 3, shape=(1,)), 0.0, 3)

    def test_cross_check_accepts_a_stiff_callable_matching_its_jets(self):
        # the central difference of X_eval alone reads 1.001; the jet's
        # cubic term cancels once the jet polynomial is subtracted
        f = FieldSampler(X_eval=lambda y: y + 1e9 * y**3,
                         A_eval=lambda y: np.eye(1),
                         v_eval=lambda y: np.zeros(1),
                         source=np.zeros(1),
                         consistent_jets=self.stiff_problem())
        assert f.linearization()[0, 0] == pytest.approx(1.001, rel=1e-9)

    def test_cross_check_accepts_a_replaced_stiff_sampler(self):
        p = self.stiff_problem()
        f = replace(FieldSampler.from_problem(p, radius=1e-4), radius=1e-3)
        assert f.radius == 1e-3 and f.consistent_jets is p

    def test_cross_check_refuses_a_stiff_callable_with_another_jacobian(self):
        with pytest.raises(ValidationError, match="deviation 1.000e-02"):
            FieldSampler(X_eval=lambda y: 1.01 * y + 1e9 * y**3,
                         A_eval=lambda y: np.eye(1),
                         v_eval=lambda y: np.zeros(1),
                         source=np.zeros(1),
                         consistent_jets=self.stiff_problem())

    def test_cross_check_uses_coordinates_around_the_source(self):
        # the jets live at the source; X_eval is sampled around it
        s = np.array([0.3])
        f = FieldSampler(X_eval=lambda y: (y - s) + 1e9 * (y - s)**3,
                         A_eval=lambda y: np.eye(1),
                         v_eval=lambda y: np.zeros(1),
                         source=s, consistent_jets=self.stiff_problem())
        assert f.source[0] == 0.3


def random_jet(rng, n, N, shape=()):
    """Coefficients shrinking like 0.6**degree, so values stay O(1) on the unit ball."""
    scale = np.repeat(0.6 ** np.arange(N + 1),
                      np.diff([0] + [P_dim(n, k) for k in range(N + 1)]))
    coeffs = rng.normal(size=(P_dim(n, N),) + shape)
    return Jet(n, N, coeffs * scale.reshape((-1,) + (1,) * len(shape)))


def random_flow_problem(rng, n, m, N, lam):
    """X = diag(mu) y + random terms of degree >= 2, random A and v."""
    mu = rng.uniform(0.5, 2.0, size=n)
    comps = []
    for i in range(n):
        c = np.array(random_jet(rng, n, N).coeffs)
        c[:n + 1] = 0.0
        c[1 + i] = mu[i]
        comps.append(Jet(n, N, c))
    return ProblemData(VectorFieldJet(comps), random_jet(rng, n, N, (m, m)),
                       random_jet(rng, n, N, (m,)), lam, N)


class TestFusedSampler:
    """The one-matmul sampler against three Jet.evaluate samplers."""

    @staticmethod
    def assert_rhs_match(fused, reference, rng, n, m):
        # the reference state is (y, vec Finv, I); the flow's is
        # (y, rows of [Finv | I])
        def joint(y, Finv, I):
            return np.concatenate([y, np.hstack([Finv, I[:, None]]).ravel()])

        for _ in range(5):
            y = rng.normal(size=n)
            y *= rng.uniform(0.0, 0.9) / np.linalg.norm(y)
            Finv, I = rng.normal(size=(m, m)), rng.normal(size=m)
            ref = reference(0.0, np.concatenate([y, Finv.ravel(), I]))
            want = joint(ref[:n], ref[n:n + m * m].reshape(m, m),
                         ref[n + m * m:])
            got = fused(0.0, joint(y, Finv, I))
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(20))
    def test_direct_and_split_rhs_match_reference(self, seed):
        rng = np.random.default_rng(4100 + seed)
        n, m = (int(k) for k in rng.integers(1, 4, size=2))
        N = int(rng.integers(1, 13))
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        p = random_flow_problem(rng, n, m, N, lam)
        f = FieldSampler.from_problem(p)
        assert f._joint is not None
        self.assert_rhs_match(flow._reversed_rhs(flow._shifted(f, lam)),
                              reference_reversed_rhs(p.X, p.A, p.v, lam),
                              rng, n, m)
        # split mode: the v block becomes the remainder jet of order p.N + k
        k = int(rng.integers(1, 4))
        u_head = random_jet(rng, n, k, (m,))
        f_rem = flow._remainder_sampler(f, p, lam, u_head, k)
        r_poly = flow._remainder_jet(p, u_head, k)
        assert f_rem._joint is not None and f_rem._joint.N == p.N + k
        self.assert_rhs_match(flow._reversed_rhs(f_rem),
                              reference_reversed_rhs(p.X, p.A, r_poly, lam),
                              rng, n, m)

    def test_views_and_callable_samplers_agree(self, rng):
        p = random_flow_problem(rng, 2, 2, 4, 0.7)
        f = FieldSampler.from_problem(p)
        generic = replace(f)  # replace drops the joint map: three callables
        assert generic._joint is None
        y = np.array([0.3, -0.2])
        joint = f._sample(y)  # [-X | rows of (-A | v)]
        assert np.array_equal(joint, generic._sample(y))
        assert np.array_equal(f.X_eval(y), -joint[:2])
        assert np.array_equal(f.A_eval(y), -joint[[2, 3, 5, 6]].reshape(2, 2))
        assert np.array_equal(f.v_eval(y), joint[[4, 7]])
        shifted = flow._shifted(generic, 0.7)
        assert np.allclose(shifted.A_eval(y), flow._shifted(f, 0.7).A_eval(y),
                           rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_jet_evaluate_calls_do_not_grow_with_nfev(self, monkeypatch, a):
        p = scalar_euler_problem(a, Jet.from_terms(1, 4, {(2,): 1.0, (3,): 0.4}),
                                 0.2, 4)
        f = FieldSampler.from_problem(p)
        calls = []
        original = Jet.evaluate

        def counting(self, point):
            calls.append(1)
            return original(self, point)

        monkeypatch.setattr(Jet, "evaluate", counting)
        res = evaluate_solution(f, p, [0.7])
        assert res.mode == ("direct" if a > 0 else "split")
        assert res.nfev > 100
        assert len(calls) <= 10


class TestIntegrateFlow:
    def test_scalar_closed_form(self):
        a, y0 = 0.7, 0.9
        f = sampler_1d(a, lambda y: y ** 2)
        traj = integrate_flow(f, [y0], -3.0)
        for t in (-0.5, -1.7, -3.0):
            st = traj.at(t)
            assert st.y_t[0] == pytest.approx(y0 * math.exp(t), rel=1e-8)
            assert st.Finv[0, 0] == pytest.approx(math.exp(a * t), rel=1e-8)
            # I(t) = y0^2 (1 - e^{(a+2)t}) / (a+2)
            expected = y0 ** 2 * (1 - math.exp((a + 2) * t)) / (a + 2)
            assert st.I[0] == pytest.approx(expected, rel=1e-8)

    def test_euler_flow_is_exponential(self):
        n = 3
        X = VectorFieldJet.euler(n, 2)
        A = Jet.constant(n, 2, np.eye(2))
        v = Jet.zero(n, 2, shape=(2,))
        f = FieldSampler.from_problem(ProblemData(X, A, v, 0.0, 2))
        y0 = np.array([0.3, -0.4, 0.5])
        traj = integrate_flow(f, y0, -2.0)
        st = traj.at(-2.0)
        assert np.allclose(st.y_t, y0 * math.exp(-2.0), rtol=1e-8)

    def test_initial_state(self):
        f = sampler_1d(1.0, lambda y: y)
        st = integrate_flow(f, [0.5], -1.0).at(0.0)
        assert st.y_t[0] == pytest.approx(0.5)
        assert np.allclose(st.Finv, np.eye(1))
        assert np.allclose(st.I, 0.0)

    def test_cocycle_identity(self, rng):
        # E(s, Phi_t(y)) = E(s+t, y) E(t, y)^{-1}, stated for Finv as
        # Finv(s, Phi_t(y)) = Finv(t, y)^{-1} Finv(s+t, y)
        p = gradient_example_problem(N=3, lam=0.0)
        A = Jet.from_terms(2, 3, {(0, 0): [[1.0, 0.3], [0.0, 2.0]],
                                  (1, 0): [[0.5, 0.0], [0.2, -0.4]]},
                           shape=(2, 2))
        v = Jet.zero(2, 3, shape=(2,))
        prob = ProblemData(p.X, A, v, 0.0, 3)
        f = FieldSampler.from_problem(prob)
        y = np.array([0.25, 0.1])
        for _ in range(3):
            s, t = -float(rng.uniform(0.2, 2.0)), -float(rng.uniform(0.2, 2.0))
            base = integrate_flow(f, y, s + t)
            st_t = base.at(t)
            shifted = integrate_flow(f, st_t.y_t, s)
            lhs = shifted.at(s).Finv
            rhs = np.linalg.solve(st_t.Finv, base.at(s + t).Finv)
            assert np.allclose(lhs, rhs, atol=1e-7)

    def test_dense_output_satisfies_ode(self, rng):
        f = sampler_1d(1.3, lambda y: y ** 3)
        traj = integrate_flow(f, [0.8], -4.0, rel_tol=1e-10, abs_tol=1e-13)
        h = 1e-5
        for _ in range(5):
            t = -float(rng.uniform(0.5, 3.5))
            up, dn = traj.at(t + h), traj.at(t - h)
            st = traj.at(t)
            dy = (up.y_t - dn.y_t) / (2 * h)
            assert dy[0] == pytest.approx(st.y_t[0], abs=1e-7)  # dy/dt = X = y
            dF = (up.Finv - dn.Finv) / (2 * h)
            assert dF[0, 0] == pytest.approx(1.3 * st.Finv[0, 0], abs=1e-7)

    def test_region_exit_reports_point(self):
        # backward flow of X = -y d/dy expands away from 0
        f = FieldSampler(
            X_eval=lambda y: np.array([-y[0]]),
            A_eval=lambda y: np.eye(1),
            v_eval=lambda y: np.zeros(1),
            source=np.zeros(1),
            radius=1.0,
        )
        with pytest.raises(RegionExitError) as info:
            integrate_flow(f, [0.5], -5.0)
        assert info.value.t == pytest.approx(-math.log(2.0), abs=1e-6)
        assert abs(info.value.point[0]) == pytest.approx(1.0, abs=1e-8)

    def test_bad_inputs(self):
        f = sampler_1d(1.0, lambda y: y)
        with pytest.raises(ValidationError):
            integrate_flow(f, [0.5], 1.0)  # forward time
        with pytest.raises(ValidationError):
            integrate_flow(f, [0.5, 0.5], -1.0)  # wrong shape


class TestEvaluateSolution:
    def test_quadratic_closed_form(self):
        # y u' + u = y^2  =>  u = y^2 / 3
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        f = FieldSampler.from_problem(p)
        for y in (0.1, 0.5, 1.0):
            res = evaluate_solution(f, p, [y])
            assert res.mode == "direct"
            assert res.u[0] == pytest.approx(y ** 2 / 3, rel=1e-7)
            assert res.tail_estimate < 1e-10

    def test_source_point_value(self):
        # at the source the equation degenerates to A(p) u = v(p)
        p = scalar_euler_problem(2.0, Jet.constant(1, 3, 3.0), 0.0, 3)
        f = FieldSampler.from_problem(p)
        res = evaluate_solution(f, p, [0.0])
        assert res.u[0] == pytest.approx(1.5, rel=1e-9)

    def test_lambda_absorption(self):
        # y u' + 3 u = lam u + y^2 with lam = 1: u = y^2 / 4
        p = scalar_euler_problem(3.0, Jet.from_terms(1, 4, {(2,): 1.0}), 1.0, 4)
        f = FieldSampler.from_problem(p)
        res = evaluate_solution(f, p, [0.7])
        assert res.u[0] == pytest.approx(0.7 ** 2 / 4, rel=1e-7)

    def test_split_mode_engages_and_matches(self):
        # a = -3/2 < 0 forces the splitting (and is non-resonant since
        # alpha - 3/2 never hits 0); y u' - 3u/2 = y^2 has u = 2 y^2
        p = scalar_euler_problem(-1.5, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        f = FieldSampler.from_problem(p)
        res = evaluate_solution(f, p, [0.6])
        assert res.mode == "split"
        assert res.split_order >= 2
        assert res.u[0] == pytest.approx(2 * 0.36, rel=1e-7)

    def test_split_mode_with_callable_samplers(self):
        # a replaced sampler has no joint map: its remainder is evaluated
        # pointwise from the three callables
        p = scalar_euler_problem(-1.5, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        f = replace(FieldSampler.from_problem(p))
        assert f._joint is None
        res = evaluate_solution(f, p, [0.6])
        assert (res.mode, res.split_order) == ("split", 2)
        assert res.u[0] == pytest.approx(2 * 0.36, rel=1e-7)

    def test_split_order_independence(self):
        p = scalar_euler_problem(-0.5, Jet.from_terms(1, 5, {(2,): 1.0, (3,): 0.5}),
                                 0.0, 5)
        f = FieldSampler.from_problem(p)
        vals = []
        for N in (2, 3, 5):
            res = evaluate_solution(f, p, [0.8],
                                    EvalConfig(split_order=N))
            assert res.mode == "split" and res.split_order == N
            vals.append(res.u[0])
        assert max(vals) - min(vals) < 1e-6

    def test_split_agrees_with_jet_solver(self):
        p = scalar_euler_problem(-0.5, Jet.from_terms(1, 6, {(2,): 1.0, (4,): -0.3}),
                                 0.0, 6)
        u = solve_to_order(p, 6).particular
        f = FieldSampler.from_problem(p)
        for y in (0.2, 0.5):
            res = evaluate_solution(f, p, [y])
            assert res.u[0] == pytest.approx(u.evaluate(np.array([y]))[0],
                                             rel=1e-7)

    def test_invalid_split_order_rejected(self):
        p = scalar_euler_problem(-2.5, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        f = FieldSampler.from_problem(p)
        with pytest.raises(ValidationError, match="cannot decay"):
            evaluate_solution(f, p, [0.1], EvalConfig(split_order=2))

    def test_resonant_lambda_rejected(self):
        p = gradient_example_problem(N=3, lam=2.0)
        f = FieldSampler.from_problem(p)
        with pytest.raises(ResonantProblemError):
            evaluate_solution(f, p, [0.1, 0.1])

    def test_complex_problem_rejected(self):
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 3, {(2,): 1.0}),
                                 0.5 + 1.0j, 3)
        with pytest.raises(ValidationError, match="real arithmetic"):
            FieldSampler.from_problem(p)

    def test_nondecaying_tail_raises(self):
        # A = -1 everywhere with v not vanishing at 0 and no head split
        # possible at order 0; force direct machinery via a doctored sampler
        f = FieldSampler(
            X_eval=lambda y: np.array([y[0]]),
            A_eval=lambda y: np.array([[-1.0]]),
            v_eval=lambda y: np.array([1.0]),
            source=np.zeros(1),
        )
        from transportkit.flow import _tail_integrate
        with pytest.raises(TailDecayError):
            _tail_integrate(f, np.array([0.3]),
                            EvalConfig(max_horizon=40.0))

    @pytest.mark.parametrize("fused", [True, False])
    def test_tail_check_reads_finv_v(self, fused):
        # X = y, A = [[1, 5], [0, 2]], v = (0, 1): Finv(t) = exp(tA) and
        # g(t) = |Finv v| = |(5 (e^{2t} - e^t), e^{2t})| decays at rate 1;
        # the transposed frame would read e^{2t}, rate 2
        A = Jet.constant(1, 2, np.array([[1.0, 5.0], [0.0, 2.0]]))
        v = Jet.constant(1, 2, np.array([0.0, 1.0]))
        f = FieldSampler.from_problem(
            ProblemData(VectorFieldJet.euler(1, 2), A, v, 0.0, 2))
        if not fused:
            f = replace(f)  # the per-point fallback of callable samplers
        res = flow._tail_integrate(f, np.array([0.5]),
                                   EvalConfig(tail_tol=1e-8, abs_tol=1e-30))
        t = res.horizon
        g = math.hypot(5 * (math.exp(2 * t) - math.exp(t)), math.exp(2 * t))
        assert res.rate == pytest.approx(1.0, rel=1e-3)
        assert res.tail_estimate == pytest.approx(g / res.rate, rel=1e-6)
        # u = int_{-inf}^0 exp(sA) v ds = A^{-1} v
        assert np.allclose(res.u, [-2.5, 0.5], rtol=1e-7)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("mode", ["direct", "split"])
    def test_tail_samples_are_the_integrand_at_each_step(
            self, solvers, monkeypatch, rng, fused, mode):
        # every g the stop rule fits is |Finv v(y_t)| at an accepted step
        # end, with v sampled afresh through the integrated sampler
        p = random_flow_problem(rng, 2, 2, 4, 0.0)
        mu = float(np.min(np.linalg.eigvals(p.A.coeffs[0]).real))
        p = replace(p, lam=mu - 1.0 if mode == "direct" else mu + 0.3)
        f = FieldSampler.from_problem(p)
        if not fused:
            f = replace(f)
        integrated, fits = [], []
        tail_integrate, fit_rate = flow._tail_integrate, flow._fit_rate

        def recording_tail(g, y, cfg):
            integrated.append(g)
            return tail_integrate(g, y, cfg)

        def recording_fit(ts, gs):
            fits.append((ts.copy(), gs.copy()))
            return fit_rate(ts, gs)

        monkeypatch.setattr(flow, "_tail_integrate", recording_tail)
        monkeypatch.setattr(flow, "_fit_rate", recording_fit)
        res = evaluate_solution(f, p, [0.3, -0.2], EvalConfig(chunk=3.0))
        assert res.mode == mode and res.n_chunks >= 2
        (g,) = integrated
        assert (g._joint is not None) == fused
        ends = {-t: z for s in solvers for t, z in s.ends}
        assert {t for ts, _ in fits for t in ts} == set(ends)
        for ts, gs in fits:
            for t, g_t in zip(ts, gs):
                z = ends[t]
                Finv = z[2:].reshape(2, 3)[:, :2]
                assert g_t == pytest.approx(
                    np.linalg.norm(Finv @ g.v_eval(z[:2])), rel=1e-13)

    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_counts_match_the_integrator(self, solvers, a):
        p = scalar_euler_problem(a, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        res = evaluate_solution(FieldSampler.from_problem(p), p, [0.6],
                                EvalConfig(chunk=3.0))
        assert res.n_chunks == len(solvers) >= 2
        assert res.nfev == sum(s.nfev for s in solvers)
        assert res.n_steps == sum(len(s.ends) for s in solvers)

    def test_frame_overflow_stops_the_tail(self, solvers):
        # A = -10: Finv(t) = e^{-10t} passes 1e100 near t = -23, well before
        # max_horizon, and the growing integrand never meets the stop rule
        f = sampler_1d(-10.0, lambda y: 1.0)
        with pytest.raises(FlowIntegrationError,
                           match="inverse frame norm exceeded") as info:
            flow._tail_integrate(f, np.array([0.3]), EvalConfig())
        ends = [(t, z) for s in solvers for t, z in s.ends]
        tau, z = ends[-1]
        assert abs(z[1]) > 1e100 > max(abs(z[1]) for _, z in ends[:-1])
        assert f"at t = {-tau:.6g};" in str(info.value)
        assert tau == pytest.approx(100 * math.log(10) / 10, abs=0.5)

    def test_region_exit_at_the_first_step_outside(self, solvers):
        # X = y + y^2: the backward flow from y0 = -1.5 is
        # y(t) = y0 e^t / (1 + y0 (1 - e^t)), which crosses |y| = 3 at
        # t = -ln 2; the error reports the first accepted step beyond it
        X = VectorFieldJet([Jet.from_terms(1, 2, {(1,): 1.0, (2,): 1.0})])
        p = ProblemData(X, Jet.constant(1, 2, np.eye(1)),
                        Jet.from_terms(1, 2, {(2,): [1.0]}, shape=(1,)), 0.0, 2)
        f = FieldSampler.from_problem(p, radius=3.0)
        with pytest.raises(RegionExitError) as info:
            evaluate_solution(f, p, [-1.5])
        ends = [(t, z[:1]) for s in solvers for t, z in s.ends]
        outside = [abs(y[0]) > 3.0 for _, y in ends]
        assert outside == [False] * (len(ends) - 1) + [True]
        tau, y = ends[-1]
        assert info.value.t == -tau < -math.log(2.0)
        assert np.array_equal(info.value.point, y)
        e = math.exp(info.value.t)
        assert y[0] == pytest.approx(-1.5 * e / (1 - 1.5 * (1 - e)), rel=1e-7)

    @pytest.mark.parametrize("field,value", [
        ("rel_tol", 0.0), ("rel_tol", -1e-9), ("abs_tol", -1e-12),
        ("tail_tol", 0.0), ("max_horizon", 0.0), ("max_horizon", -3.0),
        ("chunk", 0.0), ("chunk", -1.0), ("t_min", -2.0),
        ("rel_tol", math.nan), ("t_min", math.nan)])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValidationError, match=field):
            EvalConfig(**{field: value})

    def test_config_accepts_zero_abs_tol_and_t_min(self):
        cfg = EvalConfig(abs_tol=0.0, t_min=0.0)
        assert cfg.abs_tol == 0.0 and cfg.t_min == 0.0

    def test_directional_derivative_identity(self):
        # D_X u = v - A u at the evaluation point, checked by one-sided
        # differences along the flow
        a, y0 = 1.0, 0.5
        p = scalar_euler_problem(a, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        f = FieldSampler.from_problem(p)
        u = lambda pt: evaluate_solution(f, p, [pt]).u[0]
        h = 1e-5
        lhs = (u(y0 * math.exp(-h)) - u(y0)) / (-h)  # d/dt u(Phi_t y) at 0
        rhs = y0 ** 2 - a * u(y0)
        assert lhs == pytest.approx(rhs, abs=1e-5)


class TestAgainstRK45Oracle:
    """DOP853 and the one-matmul layout against the RK45 path they replaced."""

    CFG = EvalConfig(rel_tol=1e-8, abs_tol=1e-11, tail_tol=1e-8)

    @pytest.fixture(scope="class")
    def corpus(self):
        """(new, oracle) results on 40 points of the criterion-04 corpus.

        The same problems and points as criterion 04 (its rng seed and
        draws), evaluating every 25th point: 20 in direct and 20 in split
        mode.
        """
        rng = np.random.default_rng(20250818)
        pairs = []
        with pytest.MonkeyPatch.context() as mp:
            for trial in range(20):
                p = _random_flow_problem(rng, indefinite=trial >= 10)
                f = FieldSampler.from_problem(p)
                for j in range(50):
                    y = rng.standard_normal(p.n)
                    y *= rng.uniform(0.02, 0.2) / np.linalg.norm(y)
                    if j % 25:
                        continue
                    new = evaluate_solution(f, p, y, self.CFG)
                    mp.setattr(flow, "_tail_integrate",
                               reference_tail_integrate)
                    old = evaluate_solution(f, p, y, self.CFG)
                    mp.undo()
                    pairs.append((new, old))
        return pairs

    def test_u_mode_and_horizon_match(self, corpus):
        assert {new.mode for new, _ in corpus} == {"direct", "split"}
        for new, old in corpus:
            assert (new.mode, new.split_order, new.horizon) == \
                (old.mode, old.split_order, old.horizon)
            assert (new.method, old.method) == ("DOP853", "RK45")
            # both keep each step's local error below rel_tol |z| + abs_tol;
            # on these decaying integrals the global errors stay below
            # rel_tol max(1, |u|) (measured: under 2% of it)
            tol = self.CFG.rel_tol * max(1.0, float(np.max(np.abs(old.u))))
            assert np.max(np.abs(new.u - old.u)) <= tol

    def test_fewer_rhs_calls(self, corpus):
        # measured 0.61 on this corpus
        assert sum(new.nfev for new, _ in corpus) <= \
            0.65 * sum(old.nfev for _, old in corpus)

    def test_trajectory_layout(self, rng):
        # a non-symmetric A and a nonzero v: a transposed Finv or a
        # misplaced I would be off by O(1)
        p = random_flow_problem(rng, 2, 2, 4, 0.0)
        f = FieldSampler.from_problem(p)
        y = np.array([0.3, -0.2])
        traj = integrate_flow(f, y, -3.0, rel_tol=1e-11, abs_tol=1e-13)
        z0 = np.concatenate([y, np.eye(2).reshape(-1), np.zeros(2)])
        ref = reference_flow_segment(f, z0, 0.0, 3.0, 1e-11, 1e-13)
        for t in (-0.4, -1.3, -3.0):
            st, z = traj.at(t), ref.sol(-t)
            assert np.allclose(st.y_t, z[:2], rtol=1e-8, atol=1e-10)
            assert np.allclose(st.Finv, z[2:6].reshape(2, 2), rtol=1e-8,
                               atol=1e-10)
            assert np.allclose(st.I, z[6:], rtol=1e-8, atol=1e-10)


class TestSmoothDependence:
    """The jet tangent against a central difference of evaluate_solution.

    Each direction moves X, A, v and lambda together.  The points lie at
    radius 0.3 to 0.5, where a tangent solved at the data's own order N
    instead of ORDER is off by 6e-5 to 3e-4 on the criterion-10 problems;
    ORDER is high enough that its truncation does not show there.
    """

    EPS = 1e-4
    ORDER = 24
    CFG = EvalConfig(rel_tol=1e-10, abs_tol=1e-13, tail_tol=1e-11)
    # the eps^2 term of the central difference: measured at most 3.0e-7
    TOL = 1e-6

    @staticmethod
    def along(p, d, eps):
        dX, dA, dv, dlam = d
        X = VectorFieldJet([c + eps * e
                            for c, e in zip(p.X.components, dX.components)])
        return ProblemData(X, p.A + eps * dA, p.v + eps * dv,
                           p.lam + eps * dlam, p.N)

    @staticmethod
    def points(rng, n, count):
        ys = rng.standard_normal((count, n))
        return ys * (rng.uniform(0.3, 0.5, size=(count, 1))
                     / np.linalg.norm(ys, axis=1, keepdims=True))

    def assert_tangent_matches(self, p, d, ys, mode):
        tangent = reference_tangent(p, *d, self.ORDER)
        plus, minus = self.along(p, d, self.EPS), self.along(p, d, -self.EPS)
        f_plus = FieldSampler.from_problem(plus)
        f_minus = FieldSampler.from_problem(minus)
        for y in ys:
            hi = evaluate_solution(f_plus, plus, y, self.CFG)
            lo = evaluate_solution(f_minus, minus, y, self.CFG)
            assert hi.mode == lo.mode == mode
            fd = (hi.u - lo.u) / (2 * self.EPS)
            assert np.max(np.abs(tangent.evaluate(y) - fd)) <= self.TOL

    @pytest.mark.parametrize("k", range(5))
    def test_criterion_10_problems(self, k):
        p, dirs, _ = _benchmark_problems()[k]
        d = (VectorFieldJet([Jet(p.n, p.N, c) for c in dirs["X"]]),
             Jet(p.n, p.N, dirs["A"]), Jet(p.n, p.N, dirs["v"]), 1.0)
        self.assert_tangent_matches(
            p, d, self.points(np.random.default_rng(3100 + k), p.n, 3),
            "direct")

    def test_split_mode_criterion_04_problems(self):
        # criterion 04's problems, replaying its draws of problems and
        # points; the directions are scaled by 0.1 since they move all ten
        # orders of the data
        rng = np.random.default_rng(20250818)
        for trial in range(20):
            p = _random_flow_problem(rng, indefinite=trial >= 10)
            for _ in range(50):  # its points
                rng.standard_normal(p.n)
                rng.uniform(0.02, 0.2)
            if trial < 10:
                continue
            test_rng = np.random.default_rng(3200 + trial)
            dX = []
            for _ in range(p.n):
                c = 0.1 * test_rng.standard_normal(P_dim(p.n, p.N))
                c[0] = 0.0  # keep the source at the origin
                dX.append(Jet(p.n, p.N, c))
            d = (VectorFieldJet(dX),
                 Jet(p.n, p.N, 0.1 * test_rng.standard_normal(p.A.coeffs.shape)),
                 Jet(p.n, p.N, 0.1 * test_rng.standard_normal(p.v.coeffs.shape)),
                 1.0)
            self.assert_tangent_matches(p, d, self.points(test_rng, p.n, 2),
                                        "split")


class TestEmpiricalDecayRate:
    def test_euler_flow_rate(self):
        p = scalar_euler_problem(1.0, Jet.zero(1, 2), 0.0, 2)
        f = FieldSampler.from_problem(p)
        rate = empirical_decay_rate(f, [0.5], "flow")
        assert rate == pytest.approx(1.0, abs=0.01)

    def test_constant_transition_rate(self):
        X = VectorFieldJet.euler(2, 2)
        A = Jet.constant(2, 2, np.diag([2.0, 3.0]))
        v = Jet.zero(2, 2, shape=(2,))
        f = FieldSampler.from_problem(ProblemData(X, A, v, 0.0, 2))
        rate = empirical_decay_rate(f, [0.1, 0.1], "transition", horizon=20.0)
        assert rate == pytest.approx(2.0, abs=0.01)

    def test_gradient_example_flow_rate(self):
        p = gradient_example_problem(N=3, lam=0.0)
        f = FieldSampler.from_problem(p)
        rate = empirical_decay_rate(f, [0.05, 0.05], "flow", horizon=25.0)
        assert 0.95 <= rate <= 1.001

    def test_flat_forcing_decays_at_order_times_rate(self):
        # v = y^4 on the Euler field: |v(Phi_t y)| = |y|^4 e^{4t}
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 4, {(4,): 1.0}), 0.0, 4)
        f = FieldSampler.from_problem(p)
        q = lambda st: abs(f.v_eval(st.y_t)[0])
        rate = empirical_decay_rate(f, [0.8], q, horizon=20.0)
        assert rate == pytest.approx(4.0, abs=0.02)

    def test_underflow_guard(self):
        p = scalar_euler_problem(1.0, Jet.zero(1, 2), 0.0, 2)
        f = FieldSampler.from_problem(p)
        with pytest.raises(QuantityUnderflowError):
            empirical_decay_rate(f, [1e-3], "flow", horizon=700.0)

    def test_bad_quantity_name(self):
        f = sampler_1d(1.0, lambda y: y)
        with pytest.raises(ValidationError):
            empirical_decay_rate(f, [0.5], "frame")
