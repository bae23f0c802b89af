"""Flow-integration tests against closed forms.

Oracles:

* 1D X = y d/dy, A = a: Phi_t(y) = y e^t, E(t) = e^{-at} so Finv = e^{at},
  and I(t) = int_t^0 e^{as} v(y e^s) ds has elementary antiderivatives for
  monomial v.
* y u' + u = y^2 has the solution u = y^2 / 3.
* A = diag(2, 3) constant: Finv(t) = diag(e^{2t}, e^{3t}).
"""

import math
import re
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from transportkit import flow
from transportkit.errors import (
    FlowIntegrationError,
    NearResonanceWarning,
    NumericError,
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
from transportkit.opmatrix import ProblemData, apply_operator
from transportkit.spectral import resonance_degree
from transportkit.taylor import solve_to_order

from conftest import (
    reference_flow_segment,
    reference_integrand,
    reference_reversed_rhs,
    reference_tail_integrate,
    reference_tangent,
    riccati_reference,
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
            self.start = (self.t, self.y.copy())
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
    """X = y, A = a and v = vfun(y) on the line, as stacked callables:
    vfun maps the points, shape (P, 1), to v, shape (P, 1)."""
    return FieldSampler(
        X_eval=lambda ys: ys,
        A_eval=constant(np.array([[a]])),
        v_eval=vfun,
        source=np.zeros(1),
        radius=radius,
    )


def constant(value):
    """A stacked callable whose value at each point is value."""
    return lambda ys: np.broadcast_to(value, (len(ys),) + np.shape(value))


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

    @pytest.mark.parametrize("name,value,message", [
        ("X_eval", lambda ys: np.zeros((len(ys), 2)),
         "X_eval must return shape (2, 1) on a stack of 2 points, got (2, 2)"),
        ("A_eval", lambda ys: np.zeros((len(ys), 1)),
         "A_eval must return shape (2, 1, 1) on a stack of 2 points, got (2, 1)"),
        ("A_eval", lambda ys: np.zeros((len(ys), 1, 2)),
         "A_eval must return shape (2, 2, 2) on a stack of 2 points, "
         "got (2, 1, 2)"),
        ("v_eval", lambda ys: np.zeros((len(ys), 2)),
         "v_eval must return shape (2, 1) on a stack of 2 points, got (2, 2)"),
        # one-point callables, which would read the first row of a stack
        ("X_eval", lambda y: np.array([y[0]]),
         "X_eval must return shape (2, 1) on a stack of 2 points, got (1, 1)"),
        ("A_eval", lambda y: np.eye(1),
         "A_eval must return shape (2, 1, 1) on a stack of 2 points, got (1, 1)"),
        ("v_eval", lambda y: np.zeros(1),
         "v_eval must return shape (2, 1) on a stack of 2 points, got (1,)")])
    def test_sample_shapes_checked(self, name, value, message):
        callables = {"X_eval": lambda ys: ys,
                     "A_eval": constant(np.eye(1)),
                     "v_eval": constant(np.zeros(1)), name: value}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FieldSampler(**callables, source=np.zeros(1))

    def test_nonvanishing_source_rejected(self):
        with pytest.raises(ValidationError, match="vanish"):
            FieldSampler(
                X_eval=lambda ys: ys + 1.0,
                A_eval=constant(np.eye(1)),
                v_eval=constant(np.zeros(1)),
                source=np.zeros(1),
            )

    def test_linearization_cross_check(self):
        p = gradient_example_problem(N=3, lam=0.0)
        with pytest.raises(ValidationError, match="disagrees"):
            FieldSampler(
                X_eval=lambda ys: ys * [2.0, 1.0],  # wrong Jacobian
                A_eval=constant(np.eye(1)),
                v_eval=constant(np.zeros(1)),
                source=np.zeros(2),
                consistent_jets=p,
            )

    def test_from_problem_does_not_check_its_own_polynomial(self):
        # X = y + 1e9 y^3: the central difference with step 1e-6 reads
        # 1 + 1e9 * 1e-12, which the cross-check would refuse, though the
        # sampler is the jet polynomial itself
        X = VectorFieldJet([Jet.from_terms(1, 3, {(1,): 1.0, (3,): 1e9})])
        p = ProblemData(X, Jet.constant(1, 3, np.eye(1)),
                        Jet.zero(1, 3, shape=(1,)), 0.0, 3)
        f = FieldSampler.from_problem(p)
        assert f.consistent_jets is p
        assert f.X_eval(np.array([1e-6]))[0] == pytest.approx(1e-6 + 1e-9,
                                                              rel=1e-12)

    @staticmethod
    def stiff_problem():
        X = VectorFieldJet([Jet.from_terms(1, 3, {(1,): 1.0, (3,): 1e9})])
        return ProblemData(X, Jet.constant(1, 3, np.eye(1)),
                           Jet.zero(1, 3, shape=(1,)), 0.0, 3)

    def test_cross_check_accepts_a_stiff_callable_matching_its_jets(self):
        # the central difference of X_eval alone reads 1.001; the jet's
        # cubic term cancels once the jet polynomial is subtracted
        f = FieldSampler(X_eval=lambda ys: ys + 1e9 * ys**3,
                         A_eval=constant(np.eye(1)),
                         v_eval=constant(np.zeros(1)),
                         source=np.zeros(1),
                         consistent_jets=self.stiff_problem())
        assert f.X_eval(np.array([1e-6]))[0] == pytest.approx(1e-6 + 1e-9,
                                                              rel=1e-12)

    def test_cross_check_accepts_a_replaced_stiff_sampler(self):
        p = self.stiff_problem()
        f = replace(FieldSampler.from_problem(p, radius=1e-4), radius=1e-3)
        assert f.radius == 1e-3 and f.consistent_jets is p

    def test_cross_check_refuses_a_stiff_callable_with_another_jacobian(self):
        with pytest.raises(ValidationError, match="deviation 1.000e-02"):
            FieldSampler(X_eval=lambda ys: 1.01 * ys + 1e9 * ys**3,
                         A_eval=constant(np.eye(1)),
                         v_eval=constant(np.zeros(1)),
                         source=np.zeros(1),
                         consistent_jets=self.stiff_problem())

    def test_cross_check_uses_coordinates_around_the_source(self):
        # the jets live at the source; X_eval is sampled around it
        s = np.array([0.3])
        f = FieldSampler(X_eval=lambda ys: (ys - s) + 1e9 * (ys - s)**3,
                         A_eval=constant(np.eye(1)),
                         v_eval=constant(np.zeros(1)),
                         source=s, consistent_jets=self.stiff_problem())
        assert f.source[0] == 0.3


def random_jet(rng, n, N, shape=()):
    """Coefficients shrinking like 0.6**degree, so values stay O(1) on the unit ball."""
    scale = np.repeat(0.6 ** np.arange(N + 1),
                      np.diff([0] + [P_dim(n, k) for k in range(N + 1)]))
    coeffs = rng.normal(size=(P_dim(n, N),) + shape)
    return Jet(n, N, coeffs * scale.reshape((-1,) + (1,) * len(shape)))


def split_by_hand(f, p, y, N, cfg=EvalConfig()):
    """u(y) split at order N: the head (the degrees <= N of the jet solution
    u_J at J = max(p.N, N + 1)) plus the integral of its remainder, closed
    with u_J, built as _plan builds it at the order it picks."""
    u = solve_to_order(p, max(p.N, N + 1)).particular
    head = u.project(N)
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    ((state, closing, *_),) = flow._tail_integrate(
        f, flow._integrand(f, p, head, N), flow._closure(u, N + 1), ys, cfg)
    return head.evaluate(ys)[0] + state.I + closing


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
    """The flow's integrands against three Jet.evaluate samplers."""

    @staticmethod
    def assert_rhs_match(fused, reference, rng, n, m, rel=1e-13):
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
            assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(20))
    def test_direct_and_split_rhs_match_reference(self, seed):
        rng = np.random.default_rng(4100 + seed)
        n, m = (int(k) for k in rng.integers(1, 4, size=2))
        N = int(rng.integers(1, 13))
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        p = random_flow_problem(rng, n, m, N, lam)
        f = FieldSampler.from_problem(p)
        assert f._joint is not None
        self.assert_rhs_match(flow._reversed_rhs(flow._integrand(f, p), n, m),
                              reference_reversed_rhs(p.X, p.A, p.v, lam),
                              rng, n, m)
        # split mode: the v block becomes the remainder jet of order p.N + k
        k = int(rng.integers(1, 4))
        u_head = random_jet(rng, n, k, (m,))
        r_poly = flow._remainder_jet(p, u_head, k)
        assert r_poly.N == p.N + k
        self.assert_rhs_match(
            flow._reversed_rhs(flow._integrand(f, p, u_head, k), n, m),
            reference_reversed_rhs(p.X, p.A, r_poly, lam), rng, n, m)

    @pytest.mark.parametrize("seed", range(10))
    def test_callable_split_rhs_matches_reference(self, seed):
        # the pointwise remainder of a callable sampler against the jet
        # remainder: with the solver's head the degrees <= k that the jet
        # zeroes are round-off, so the two differ by that round-off only.
        # Measured over these seeds: 5.3e-15 of the RHS norm, and 2.7e-15
        # absolute in the remainder itself
        rng = np.random.default_rng(4200 + seed)
        n, m = (int(k) for k in rng.integers(1, 3, size=2))
        lam = float(rng.uniform(-1.0, 1.0))
        p = random_flow_problem(rng, n, m, 6, lam)
        k = int(rng.integers(1, 4))
        u_head = solve_to_order(p, k).particular
        r_poly = flow._remainder_jet(p, u_head, k)
        generic = replace(FieldSampler.from_problem(p))
        assert generic._joint is None
        sample = flow._integrand(generic, p, u_head, k)
        self.assert_rhs_match(flow._reversed_rhs(sample, n, m),
                              reference_reversed_rhs(p.X, p.A, r_poly, lam),
                              rng, n, m, rel=1e-12)
        for _ in range(5):
            y = rng.normal(size=n)
            y *= rng.uniform(0.0, 0.9) / np.linalg.norm(y)
            w = sample(y[None])[0, n:].reshape(m, m + 1)[:, m]
            assert np.max(np.abs(w - r_poly.evaluate(y))) <= 1e-13

    def test_callable_split_plan_reads_all_points_at_once(self, monkeypatch):
        # one plan call on three points: each row's u is the head at its
        # point plus its integral, and the integrand on the stack is the
        # remainder v - D_X u_head - (A - lam) u_head at each point alone
        p = random_flow_problem(np.random.default_rng(4301), 2, 2, 6, 0.0)
        mu = float(np.min(np.linalg.eigvals(p.A.coeffs[0]).real))
        p = replace(p, lam=mu + 0.3)
        f = replace(FieldSampler.from_problem(p))
        calls, tail_integrate = [], flow._tail_integrate

        def recording(f, sample, closure, ys, cfg):
            calls.append((sample, ys, tail_integrate(f, sample, closure, ys, cfg)))
            return calls[-1][2]

        monkeypatch.setattr(flow, "_tail_integrate", recording)
        rows = flow._plan(f, p, EvalConfig())([[0.3, -0.2], [-0.1, 0.25],
                                               [0.05, 0.1]])
        ((sample, ys, integrals),) = calls
        head = solve_to_order(p, rows[0].split_order).particular
        for row, y, (state, closing, *_) in zip(rows, ys, integrals):
            assert row.mode == "split"
            assert np.array_equal(row.u, head.evaluate(y) + state.I + closing)
        s = sample(ys.copy())[:, 2:].reshape(3, 2, 3)
        for k, y in enumerate(ys):
            X, A = f.X_eval(y), f.A_eval(y) - p.lam * np.eye(2)
            w = (f.v_eval(y) - sum(X[i] * head.partial(i).evaluate(y)
                                   for i in range(2)) - A @ head.evaluate(y))
            assert np.array_equal(s[k, :, :2], -A)
            assert np.max(np.abs(s[k, :, 2] - w)) <= 1e-13 * (
                1.0 + np.max(np.abs(w)))

    def test_callable_split_rows_match_from_problem(self):
        # 12 split-mode problems, 3 points each, through a callable sampler
        # and through from_problem's.  The callable remainder carries
        # cancellation noise that used to stall the integrand's decay test
        # (12 of these 36 rows were TailDecayError); the jet closure stops
        # every point near t = -2.  Bound set before the run: 1e-10
        # (measured: at most 4.5e-13)
        points = [[0.3, -0.2], [-0.1, 0.25], [0.05, 0.1]]
        for seed in range(4300, 4306):
            for N in (4, 6):
                p = random_flow_problem(np.random.default_rng(seed), 2, 2, N, 0.0)
                mu = float(np.min(np.linalg.eigvals(p.A.coeffs[0]).real))
                p = replace(p, lam=mu + 0.3)
                f = FieldSampler.from_problem(p)
                rows = [flow._plan(g, p, EvalConfig())(points) for g in (f, replace(f))]
                for fused, generic in zip(*rows):
                    assert fused.mode == generic.mode == "split"
                    assert np.max(np.abs(generic.u - fused.u)) <= 1e-10

    def test_views_and_callable_samplers_agree(self, rng):
        p = random_flow_problem(rng, 2, 2, 4, 0.7)
        f = FieldSampler.from_problem(p)
        generic = replace(f)  # replace drops the joint map: three callables
        assert generic._joint is None
        y = np.array([0.3, -0.2])
        joint = f._sample(y[None])[0]  # [-X | rows of (-A | v)]
        assert np.array_equal(joint, generic._sample(y[None])[0])
        assert np.array_equal(f.X_eval(y), -joint[:2])
        assert np.array_equal(f.A_eval(y), -joint[[2, 3, 5, 6]].reshape(2, 2))
        assert np.array_equal(f.v_eval(y), joint[[4, 7]])
        assert np.allclose(flow._integrand(generic, p)(y[None]),
                           flow._integrand(f, p)(y[None]), rtol=1e-14,
                           atol=1e-14)

    def test_callable_split_samples_each_field_once_per_rhs_call(self):
        # X = y, A = -1, v = y^2 + y^3 runs in split mode; the plan reads
        # its decisions off the jets and samples no field, and each RHS call
        # samples X, A and v once
        p = scalar_euler_problem(-1.0, Jet.from_terms(1, 4, {(2,): 1.0,
                                                             (3,): 1.0}),
                                 0.0, 4)
        fused = FieldSampler.from_problem(p)
        calls = dict.fromkeys(("X_eval", "A_eval", "v_eval"), 0)

        def counting(name):
            def call(y):
                calls[name] += 1
                return getattr(fused, name)(y)
            return call

        f = FieldSampler(**{name: counting(name) for name in calls},
                         source=np.zeros(1))
        calls.update(dict.fromkeys(calls, 0))
        evaluate = flow._plan(f, p, EvalConfig())
        assert calls == dict.fromkeys(calls, 0)
        (res,) = evaluate([[0.5]])
        assert res.mode == "split" and res.nfev > 100
        assert calls == dict.fromkeys(calls, res.nfev)

    @pytest.mark.parametrize("a,mode", [(1.0, "direct"), (-1.0, "split")])
    def test_each_field_is_called_once_per_rhs_call_on_all_points(self, a,
                                                                   mode):
        # X = y, A = a, v = y^2: u is y^2 / 3 (direct) or y^2 (split), so
        # the jet closes the integral exactly and the three points stop in
        # the same solver, at its first step end from t = -2 on: every RHS
        # call samples X, A and v once each, on the stack of all three
        p = scalar_euler_problem(a, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        fused = FieldSampler.from_problem(p)
        calls = {name: [] for name in ("X_eval", "A_eval", "v_eval")}

        def recording(name):
            def call(ys):
                calls[name].append(np.array(ys))
                return getattr(fused, name)(ys)
            return call

        f = FieldSampler(**{name: recording(name) for name in calls},
                         source=np.zeros(1))
        evaluate = flow._plan(f, p, EvalConfig())
        for stacks in calls.values():
            stacks.clear()
        points = [[0.5], [0.4], [0.3]]
        rows = evaluate(points)
        assert [row.mode for row in rows] == [mode] * 3
        nfev = rows[0].nfev
        assert nfev > 50 and [row.nfev for row in rows] == [nfev] * 3
        assert [row.tail_estimate for row in rows] == [0.0] * 3
        for stacks in calls.values():
            assert len(stacks) == nfev
            assert all(ys.shape == (3, 1) for ys in stacks)
        # each RHS call samples the three fields on the same stack
        for xs, As, vs in zip(*calls.values()):
            assert np.array_equal(xs, As) and np.array_equal(xs, vs)
        assert np.array_equal(calls["X_eval"][0], points)

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


def cut_above(jet: Jet, d: int) -> Jet:
    """jet with its coefficients of degree > d set to zero, same order."""
    return jet.project(d).extend(jet.N)


class TestTrueDegree:
    """The integrand cut at its true degree against the full-degree oracle."""

    @pytest.mark.parametrize("top", [True, False])
    @pytest.mark.parametrize("mode", ["direct", "split"])
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_rows_match_the_full_degree_integrand(self, monkeypatch, n, m,
                                                  mode, top):
        # set before the run: the cut matmul sums the same nonzero products
        # in another order, a few roundings of each RHS value.  The stop is
        # a step end, and the step-size control answers those roundings in
        # the last bits of each step's error norm, so the stop's t moves by
        # less than 1e-6 relative (measured: at most 2.2e-7)
        rng = np.random.default_rng(4700 + 8 * n + 4 * m + 2 * (mode == "split")
                                    + top)
        N = 5
        p = random_flow_problem(rng, n, m, N, 0.0)
        if not top:  # zero rows above degree 2 (X) and 3 (A and v)
            X = VectorFieldJet([cut_above(c, 2) for c in p.X.components])
            p = ProblemData(X, cut_above(p.A, 3), cut_above(p.v, 3), 0.0, N)
        rho = np.linalg.eigvals(p.A.coeffs[0]).real
        lam = float(np.min(rho)) + (-0.5 if mode == "direct" else 0.3)
        p = replace(p, lam=lam)
        f = FieldSampler.from_problem(p)
        ys = [ball_point(rng, n) for _ in range(4)]
        cfg = EvalConfig()
        got = flow._plan(f, p, cfg)(ys)
        monkeypatch.setattr(flow, "_integrand",
                            lambda _f, p, *head: reference_integrand(p, *head))
        want = flow._plan(f, p, cfg)(ys)
        for g, w in zip(got, want):
            assert (g.mode, g.split_order) == (w.mode, w.split_order)
            assert g.mode == mode
            assert (g.nfev, g.n_steps) == (w.nfev, w.n_steps)
            assert g.horizon == pytest.approx(w.horizon, rel=1e-6)
            assert np.max(np.abs(g.u - w.u)) <= 1e-14 * max(
                1.0, np.max(np.abs(w.u)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_integrand_has_the_rows_of_its_true_degree(self, monkeypatch, n):
        # X quadratic, A linear, v cubic at order 10: the direct integrand
        # has degree 3, and a split at order k adds the remainder's degree
        # k + 1 (A u_head and D_X u_head)
        rng = np.random.default_rng(4800 + n)
        p = random_flow_problem(rng, n, 1, 10, 0.0)
        X = VectorFieldJet([cut_above(c, 2) for c in p.X.components])
        p = ProblemData(X, cut_above(p.A, 1), cut_above(p.v, 3), 0.0, 10)
        f = FieldSampler.from_problem(p)
        monomial_columns = []
        real = flow._monomial_vector

        def recording(ys, N):
            out = real(ys, N)
            monomial_columns.append(out.shape[-1])
            return out

        monkeypatch.setattr(flow, "_monomial_vector", recording)
        ys = np.full((3, n), 0.2)
        flow._integrand(f, p)(ys)
        for k in (1, 3):
            u_head = solve_to_order(p, k).particular
            flow._integrand(f, p, u_head, k)(ys)
        assert monomial_columns == [P_dim(n, 3), P_dim(n, 3), P_dim(n, 4)]


class TestIntegrateFlow:
    def test_scalar_closed_form(self):
        a, y0 = 0.7, 0.9
        f = sampler_1d(a, lambda ys: ys ** 2)
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
        f = sampler_1d(1.0, lambda ys: ys)
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
        f = sampler_1d(1.3, lambda ys: ys ** 3)
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
            X_eval=lambda ys: -ys,
            A_eval=constant(np.eye(1)),
            v_eval=constant(np.zeros(1)),
            source=np.zeros(1),
            radius=1.0,
        )
        with pytest.raises(RegionExitError) as info:
            integrate_flow(f, [0.5], -5.0)
        assert info.value.t == pytest.approx(-math.log(2.0), abs=1e-6)
        assert abs(info.value.point[0]) == pytest.approx(1.0, abs=1e-8)

    def test_zero_horizon_is_the_initial_state(self):
        traj = integrate_flow(sampler_1d(1.0, lambda ys: ys), [0.5], 0.0)
        st = traj.at(0.0)
        assert traj.t_end == 0.0 and st.t == 0.0
        assert (st.y_t.tolist(), st.Finv.tolist(), st.I.tolist()) == (
            [0.5], [[1.0]], [0.0])

    @pytest.mark.parametrize("t_end,t", [(-1.0, 0.5), (-1.0, -1.5), (0.0, -0.1)])
    def test_state_outside_the_window_is_refused(self, t_end, t):
        traj = integrate_flow(sampler_1d(1.0, lambda ys: ys), [0.5], t_end)
        with pytest.raises(ValidationError, match=re.escape(
                f"time {t} outside the integrated window [{t_end}, 0]")):
            traj.at(t)

    def test_bad_inputs(self):
        f = sampler_1d(1.0, lambda ys: ys)
        with pytest.raises(ValidationError):
            integrate_flow(f, [0.5], 1.0)  # forward time
        with pytest.raises(ValidationError):
            integrate_flow(f, [0.5, 0.5], -1.0)  # wrong shape

    @pytest.mark.parametrize("t_end", [math.nan, -math.inf, math.inf])
    def test_end_time_not_finite_is_refused(self, t_end):
        # DOP853 would step forever toward a bound it never reaches
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 3, {(2,): 1.0}), 0.0, 3)
        with pytest.raises(ValidationError, match=re.escape(
                f"t_end must be nonpositive and finite, got {t_end!r}")):
            integrate_flow(FieldSampler.from_problem(p), [0.5], t_end)


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

    def test_problem_jets_default_to_the_sampler_s(self):
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        f = FieldSampler.from_problem(p)
        assert np.array_equal(evaluate_solution(f, None, [0.5]).u,
                              evaluate_solution(f, p, [0.5]).u)
        with pytest.raises(ValidationError, match="needs problem jets"):
            evaluate_solution(sampler_1d(1.0, lambda ys: ys ** 2), None, [0.5])

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

    def test_callable_split_around_a_shifted_source(self):
        # the jets live at the source, so the head, the remainder and the
        # closure read y - source: y u' - 3u/2 = y^2 moved to the source
        # 0.3 has u = 2 (y - 0.3)^2
        s = 0.3
        p = scalar_euler_problem(-1.5, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        f = FieldSampler(X_eval=lambda ys: ys - s,
                         A_eval=constant(np.array([[-1.5]])),
                         v_eval=lambda ys: (ys - s) ** 2, source=[s],
                         consistent_jets=p)
        for y in (0.5, 0.1):
            res = evaluate_solution(f, None, [y])
            assert (res.mode, res.split_order) == ("split", 2)
            assert res.u[0] == pytest.approx(2 * (y - s) ** 2, rel=1e-7)

    def test_callable_split_past_the_jet_order_is_refused(self):
        # a = -3/2 splits at order 2, which order-1 jets cannot carry for a
        # callable sampler; from_problem's polynomials carry any order
        p = scalar_euler_problem(-1.5, Jet.from_terms(1, 1, {(1,): 1.0}), 0.0, 1)
        f = FieldSampler.from_problem(p)
        assert evaluate_solution(f, p, [0.3]).split_order == 2
        with pytest.raises(ValidationError, match=re.escape(
                "jet data of order 1 cannot support a split at order 2")):
            evaluate_solution(replace(f), p, [0.3])

    @pytest.mark.parametrize("a", [-64.5, -70.5])
    def test_a_split_past_max_order_is_refused(self, a):
        # A = a needs split order 65, past the closure jet's MAX_ORDER = 64:
        # the head used to escape as a bare ValueError ("cannot project
        # order-64 jet up to order 65")
        p = scalar_euler_problem(a, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        with pytest.raises(ValidationError, match=re.escape(
                "requested order 65 exceeds the solver cap 64")):
            evaluate_solution(FieldSampler.from_problem(p), p, [0.1])

    def test_callable_split_needs_jets_past_the_split_order(self):
        # X = y, A = -1/2, v = y^2 splits at order 1 and has u = y^2 / 1.5.
        # Order-1 jets of v are zero: closed with them, the row read
        # u = 0.161394 against 1/6 (3.2% off) with tail_estimate 0, so the
        # closure order may not pass the jets' order and a split needs it
        # above the split order.  With order-2 jets the row is within 1e-10
        # relative (measured: 3.9e-12)
        f = sampler_1d(-0.5, lambda ys: ys ** 2)
        v = Jet.from_terms(1, 2, {(2,): 1.0})
        p = scalar_euler_problem(-0.5, v.project(1), 0.0, 1)
        with pytest.raises(ValidationError, match=re.escape(
                "jet data of order 1 cannot support a split at order 1")):
            evaluate_solution(f, p, [0.5])
        res = evaluate_solution(f, scalar_euler_problem(-0.5, v, 0.0, 2), [0.5])
        assert (res.mode, res.split_order) == ("split", 1)
        assert res.u[0] == pytest.approx(1 / 6, rel=1e-10)

    def test_callable_split_reads_one_head_jet_per_rhs_call(self, monkeypatch):
        # n = 2: u_head and its two partials are one jet, evaluated once per
        # RHS call on all the points; the plan evaluates the head once more,
        # at the points themselves.  The fields are numpy callables, so
        # every Jet.evaluate call is the flow's own
        X, A = np.diag([1.0, 1.5]), np.array([[-0.7, 0.2], [0.0, -0.4]])
        v = Jet.from_terms(2, 6, {(2, 0): [1.0, 0.0], (0, 3): [0.0, 1.0]},
                           shape=(2,))
        p = ProblemData(VectorFieldJet.from_linear(X, 6), Jet.constant(2, 6, A),
                        v, 0.0, 6)
        f = FieldSampler(X_eval=lambda ys: ys @ X.T, A_eval=constant(A),
                         v_eval=lambda ys: np.stack([ys[:, 0] ** 2, ys[:, 1] ** 3], 1),
                         source=np.zeros(2), consistent_jets=p)
        evaluate = flow._plan(f, p, EvalConfig())
        calls, jet_evaluate = [], Jet.evaluate

        def counting(self, ys):
            calls.append(self.value_shape)
            return jet_evaluate(self, ys)

        monkeypatch.setattr(Jet, "evaluate", counting)
        rows = evaluate([[0.3, -0.2], [-0.1, 0.25]])
        assert {row.mode for row in rows} == {"split"}
        assert len(calls) == rows[0].nfev + 1
        assert calls.count((2,)) == 1 and calls.count((6,)) == rows[0].nfev

    def test_split_order_independence(self):
        p = scalar_euler_problem(-0.5, Jet.from_terms(1, 5, {(2,): 1.0, (3,): 0.5}),
                                 0.0, 5)
        f = FieldSampler.from_problem(p)
        res = evaluate_solution(f, p, [0.8])
        assert (res.mode, res.split_order) == ("split", 1)
        assert np.array_equal(split_by_hand(f, p, [0.8], 1), res.u)
        vals = [split_by_hand(f, p, [0.8], N)[0] for N in (1, 2, 3, 5)]
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

    def test_resonant_solvable_lambda_gives_the_jet_particular(self):
        # gradient field at the resonant lambda = 2 with v = (D_X - 2) w in
        # the range: u is the member of w + kernel whose jet is the
        # particular solution
        p = gradient_example_problem(N=3, lam=2.0)
        w = Jet.from_terms(2, 3, {(0, 0): [1.0], (1, 0): [0.5], (0, 1): [-1.0]},
                           shape=(1,))
        p = p.with_v(apply_operator(p, w) - 2.0 * w)
        jet = solve_to_order(p, 10).particular
        f = FieldSampler.from_problem(p)
        for y in ([0.1, 0.1], [-0.2, 0.05]):
            res = evaluate_solution(f, p, y)
            assert res.mode == "split"
            assert res.u[0] == pytest.approx(jet.evaluate(np.array(y))[0],
                                             abs=1e-9)

    def test_obstructed_resonant_lambda_names_the_obstruction(self):
        # X = y, A = -1, lambda = 0 is resonant at degree 1, where the dual
        # kernel (the y coefficient) pairs v = y to 1
        p = scalar_euler_problem(-1.0, Jet.from_terms(1, 4, {(1,): 1.0}), 0.0, 4)
        f = FieldSampler.from_problem(p)
        with pytest.raises(ResonantProblemError,
                           match="lambda = 0 is resonant and v is obstructed: "
                                 "dual kernel pairings 1$"):
            evaluate_solution(f, p, [0.1])

    def test_near_resonance_warning_names_the_caller(self):
        # X = y, A = 1 at lambda = 3 + 5e-7: alpha = 2 misses lambda by
        # 5e-7.  The plan's jet solve screens the resonances, and the
        # warning names this file, not the package frames on the way
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 4, {(1,): 1.0}),
                                 3 + 5e-7, 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = evaluate_solution(FieldSampler.from_problem(p), p, [0.2])
        near = [w for w in caught if w.category is NearResonanceWarning]
        assert len(near) == 1 and near[0].filename == __file__
        assert res.mode == "split"
        assert res.u[0] == pytest.approx(0.2 / (2 - p.lam), rel=1e-8)

    def test_decay_order_past_the_float_range_is_refused(self):
        # -A(p) / nu = 1e310 overflows a float; the decaying order must
        # still reach solve_to_order's checks, not an OverflowError
        X = VectorFieldJet([Jet.from_terms(1, 4, {(1,): 1e-10})])
        p = ProblemData.scalar(X, Jet.constant(1, 4, -1e300),
                               Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        with pytest.raises(ValidationError):
            evaluate_solution(FieldSampler.from_problem(p), p, [0.1])

    @pytest.mark.parametrize("a", [1.0, -0.5], ids=["direct", "split"])
    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_non_expanding_source_is_refused(self, x, a):
        X = VectorFieldJet([Jet.from_terms(1, 4, {(1,): x})])
        p = ProblemData.scalar(X, Jet.constant(1, 4, a),
                               Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        with pytest.raises(ValidationError, match="needs an expanding source"):
            evaluate_solution(FieldSampler.from_problem(p), p, [0.1])

    def test_complex_problem_rejected(self):
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 3, {(2,): 1.0}),
                                 0.5 + 1.0j, 3)
        with pytest.raises(ValidationError, match="real arithmetic"):
            FieldSampler.from_problem(p)

    def test_nondecaying_tail_raises(self):
        # A = -1 everywhere with v not vanishing at 0 and no head split
        # possible at order 0; force direct machinery via a doctored sampler,
        # closed with the solution u = -1 as a jet of order 1, whose
        # estimate |Finv| |u(0)| = e^{-t} grows: at max_horizon the point
        # ends with the estimate there
        f = FieldSampler(
            X_eval=lambda ys: ys,
            A_eval=constant(np.array([[-1.0]])),
            v_eval=constant(np.array([1.0])),
            source=np.zeros(1),
        )
        closure = flow._closure(Jet.constant(1, 1, np.array([-1.0])), 0)
        (row,) = flow._tail_integrate(f, f._sample, closure, np.array([[0.3]]),
                                      EvalConfig(max_horizon=40.0))
        assert isinstance(row, TailDecayError)
        match = re.fullmatch(r"the jet closure estimate (\S+) is above "
                             r"tail_tol at t = -40\.0", str(row))
        assert float(match[1]) == pytest.approx(math.exp(40.0), rel=1e-3)

    def test_a_nan_sample_ends_its_row(self):
        # sqrt(cos(20 y)) is NaN for 20 y in (pi/2, 3 pi/2), a band the
        # flow from 0.3 enters: DOP853's steps shrink to nothing, and the
        # invalid square root is no numpy warning (which this suite's
        # warning filter would raise)
        f = sampler_1d(1.0, lambda ys: np.sqrt(np.cos(20 * ys)))
        p = scalar_euler_problem(1.0, Jet.zero(1, 4), 0.0, 4)
        with pytest.raises(FlowIntegrationError, match="integrator failed: "
                           "Required step size is less than spacing"):
            evaluate_solution(f, p, [0.3])

    @pytest.mark.parametrize("a", [1.0, -0.5], ids=["direct", "split"])
    def test_a_start_that_is_not_finite_ends_only_its_row(self, a):
        # v = y^2 - y^3 is inf - inf at 1e200: DOP853's first step would be
        # NaN there, and its step loop endless.  That row fails before a
        # step; the other rows go on together in a new solver, bit for bit
        # the rows of their points together
        p = scalar_euler_problem(a, Jet.from_terms(1, 3, {(2,): 1.0,
                                                          (3,): -1.0}), 0.0, 3)
        evaluate = flow._plan(FieldSampler.from_problem(p), p, EvalConfig())
        rows = evaluate([[0.5], [1e200], [-0.3]])
        assert isinstance(rows[1], FlowIntegrationError)
        assert str(rows[1]) == "integrator failed: the integrand is not finite"
        for row, good in zip(rows[::2], evaluate([[0.5], [-0.3]])):
            assert row.mode == ("direct" if a > 0 else "split")
            assert np.array_equal(row.u, good.u)
            # the counts add the solver that ended at the start: its two
            # RHS calls (the start and DOP853's initial step), one chunk
            # and the bad point
            assert replace(row, u=None) == replace(
                good, u=None, nfev=good.nfev + 2, n_chunks=good.n_chunks + 1,
                n_points=3)

    def test_a_split_head_that_overflows_ends_only_its_row(self):
        # a = -2.5 splits at order 3, so the head is u = -2 y^2 - 2 y^3
        # itself: at 1e200 it overflows, while the remainder is zero
        p = scalar_euler_problem(-2.5, Jet.from_terms(1, 3, {(2,): 1.0,
                                                             (3,): -1.0}), 0.0, 3)
        evaluate = flow._plan(FieldSampler.from_problem(p), p, EvalConfig())
        good, bad = evaluate([[0.5], [1e200]])
        assert isinstance(bad, FlowIntegrationError)
        assert str(bad) == "u is not finite: the split head overflows at this point"
        (alone,) = evaluate([[0.5]])
        assert (good.mode, good.split_order) == ("split", 3)
        assert np.array_equal(good.u, alone.u)
        assert (good.tail_estimate, good.horizon) == \
            (alone.tail_estimate, alone.horizon)

    def test_integrate_flow_refuses_a_start_that_is_not_finite(self):
        # sqrt(cos(20 y)) is NaN at 0.1: DOP853's first step would be NaN
        f = sampler_1d(1.0, lambda ys: np.sqrt(np.cos(20 * ys)))
        with np.errstate(invalid="ignore"), pytest.raises(
                FlowIntegrationError, match="^integrator failed: the "
                                            "integrand is not finite$"):
            integrate_flow(f, [0.1], -1.0)

    @pytest.mark.parametrize("a", [1.0, -0.5], ids=["direct", "split"])
    def test_smallest_horizon_stops_at_the_earliest_stop(self, capfd, a):
        # max_horizon = 2 is the least EvalConfig accepts: in either mode
        # the point is read at t = -2, where the order-4 jet closes
        # u = y^2 / (2 + a) exactly, and nothing is printed
        p = scalar_euler_problem(a, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        res = evaluate_solution(FieldSampler.from_problem(p), p, [0.5],
                                EvalConfig(max_horizon=2.0))
        assert res.mode == ("direct" if a > 0 else "split")
        assert res.horizon == -2.0 and res.tail_estimate == 0.0
        assert res.u[0] == pytest.approx(0.25 / (2.0 + a), rel=1e-8)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("fused", [True, False])
    def test_tail_check_reads_finv_v(self, solvers, fused):
        # X = y, A = [[1, 5], [0, 2]], v = (0, 1): Finv(t) = exp(tA) =
        # [[e^t, 5 (e^{2t} - e^t)], [0, e^{2t}]], and I integrates
        # Finv v = (5 (e^{2t} - e^t), e^{2t}); the transposed frame would
        # put the 5 (e^{2t} - e^t) below the diagonal
        p = ProblemData(VectorFieldJet.euler(1, 2),
                        Jet.constant(1, 2, np.array([[1.0, 5.0], [0.0, 2.0]])),
                        Jet.constant(1, 2, np.array([0.0, 1.0])), 0.0, 2)
        f = FieldSampler.from_problem(p)
        if not fused:
            f = replace(f)  # the per-point fallback of callable samplers
        closure = flow._closure(solve_to_order(p, 2).particular, 0)
        ((state, closing, estimate, _),) = flow._tail_integrate(
            f, f._sample, closure, np.array([[0.5]]),
            EvalConfig(tail_tol=1e-8, abs_tol=1e-30))
        ts = np.array([-t for s in solvers for t, _ in s.ends])
        assert state.t == ts[-1] and -2.5 < state.t <= -2.0
        e1, e2 = math.exp(state.t), math.exp(2 * state.t)
        assert np.allclose(state.Finv, [[e1, 5 * (e2 - e1)], [0.0, e2]],
                           rtol=1e-7, atol=1e-12)
        assert np.allclose(state.I, [5 * ((1 - e2) / 2 - (1 - e1)), (1 - e2) / 2],
                           rtol=1e-7, atol=1e-12)
        # u = int_{-inf}^0 exp(sA) v ds = A^{-1} v, a constant, so the
        # jet's top blocks are 0 and it closes the integral exactly
        assert estimate == 0.0
        assert np.allclose(state.I + closing, [-2.5, 0.5], rtol=1e-7)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("mode", ["direct", "split"])
    def test_tail_samples_are_the_integrand_at_each_step(
            self, solvers, monkeypatch, rng, fused, mode):
        # the tail is sampled at every accepted step end from t = -2 on:
        # the closure reads u_J at the position DOP853 stepped to, its
        # estimate is |Finv|_F e_J there, and the point stops at the first
        # step end whose estimate is at most tail_tol, with that step's
        # estimate and time in its row
        p = random_flow_problem(rng, 2, 2, 4, 0.0)
        mu = float(np.min(np.linalg.eigvals(p.A.coeffs[0]).real))
        p = replace(p, lam=mu - 1.0 if mode == "direct" else mu + 0.3)
        f = FieldSampler.from_problem(p)
        if not fused:
            f = replace(f)
        reads, closure = [], flow._closure

        def recording(u, first):
            read = closure(u, first)

            def reading(ys):
                terms, e = read(ys)
                reads.append((ys.copy(), e.copy()))
                return terms, e
            return reading

        monkeypatch.setattr(flow, "_closure", recording)
        cfg = EvalConfig(tail_tol=1e-10)
        res = evaluate_solution(f, p, [0.3, -0.2], cfg)
        assert res.mode == mode
        ends = [(tau, z) for s in solvers for tau, z in s.ends if tau >= 2.0]
        assert len(reads) == len(ends) > 0
        estimates = []
        for (ys, e), (tau, z) in zip(reads, ends):
            assert np.array_equal(ys, z[None, :2])  # the source is the origin
            Finv = z[2:].reshape(2, 3)[:, :2]
            estimates.append(e[0] * np.linalg.norm(Finv))
        assert all(e > cfg.tail_tol for e in estimates[:-1])
        assert res.tail_estimate == pytest.approx(estimates[-1], rel=1e-15)
        assert res.tail_estimate <= cfg.tail_tol
        assert res.horizon == -ends[-1][0]

    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_counts_match_the_integrator(self, solvers, a):
        # one point rides in one solver, stepped toward max_horizon and
        # stopped at the closure's first step end from t = -2 on
        p = scalar_euler_problem(a, Jet.from_terms(1, 4, {(2,): 1.0,
                                                          (3,): 1.0}), 0.0, 4)
        res = evaluate_solution(FieldSampler.from_problem(p), p, [0.6])
        (solver,) = solvers
        assert solver.t_bound == EvalConfig().max_horizon
        assert res.n_chunks == 1
        assert res.nfev == solver.nfev
        assert res.n_steps == len(solver.ends)
        assert res.horizon == -solver.t <= -2.0

    def test_frame_overflow_stops_the_tail(self, solvers):
        # A = -10: Finv(t) = e^{-10t} passes 1e100 near t = -23, well before
        # max_horizon, and the closure estimate |Finv| |u(0)| of the
        # solution u = -0.1, a jet of order 1, grows and never stops it
        f = sampler_1d(-10.0, constant(np.ones(1)))
        closure = flow._closure(Jet.constant(1, 1, np.array([-0.1])), 0)
        (error,) = flow._tail_integrate(f, f._sample, closure, np.array([[0.3]]),
                                        EvalConfig())
        assert isinstance(error, FlowIntegrationError)
        assert "inverse frame norm exceeded" in str(error)
        ends = [(t, z) for s in solvers for t, z in s.ends]
        tau, z = ends[-1]
        assert abs(z[1]) > 1e100 > max(abs(z[1]) for _, z in ends[:-1])
        assert f"at t = {-tau:.6g};" in str(error)
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
        ("max_horizon", 1e-300), ("max_horizon", 1.9), ("rel_tol", math.nan)])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValidationError, match=field):
            EvalConfig(**{field: value})

    def test_config_refuses_a_horizon_before_the_earliest_stop(self, solvers):
        # no point stops before t = -2, so a smaller max_horizon would end
        # every point before the closure's stop rule is read
        with pytest.raises(ValidationError) as info:
            EvalConfig(max_horizon=1.9)
        assert str(info.value) == (
            "max_horizon must be at least 2 (the earliest stop), got 1.9")
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        res = evaluate_solution(FieldSampler.from_problem(p), p, [0.5],
                                EvalConfig(max_horizon=2.0))
        assert [s.t_bound for s in solvers] == [2.0] and res.horizon == -2.0

    @pytest.mark.parametrize("max_horizon", [1e6, 1e300, 100_000.5])
    def test_config_bounds_the_horizon(self, max_horizon):
        # the solver steps toward max_horizon, so it bounds the work of a
        # point the stop rule never stops; a larger one is refused when the
        # config is built, before any integration
        with pytest.raises(ValidationError) as info:
            EvalConfig(max_horizon=max_horizon)
        assert str(info.value) == (
            f"max_horizon must be at most 100000, got {max_horizon!r}")

    def test_config_horizon_within_the_bound_is_accepted(self, solvers):
        cfg = EvalConfig(max_horizon=100_000.0)
        assert cfg.max_horizon == 100_000.0
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 4, {(2,): 1.0}), 0.0, 4)
        res = evaluate_solution(FieldSampler.from_problem(p), p, [0.5], cfg)
        assert [s.t_bound for s in solvers] == [100_000.0]
        assert res.u[0] == pytest.approx(0.25 / 3.0, rel=1e-8)

    def test_config_refuses_zero_abs_tol(self):
        # the error scale abs_tol + rel_tol |z| would be 0 on the state
        # entries that start at 0, and the first step NaN
        with pytest.raises(ValidationError,
                           match=r"^abs_tol must be positive, got 0\.0$"):
            EvalConfig(abs_tol=0.0)

    def test_config_has_no_chunk_or_t_min(self):
        # the earliest stop is a flow constant, and there are no chunks
        assert [f.name for f in fields(EvalConfig)] == [
            "rel_tol", "abs_tol", "tail_tol", "max_horizon"]

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


def resonant_problem(rng):
    """A resonant lambda with v in the range, (n, m) <= (2, 2), order 4.

    lambda = alpha . mu + rho_j for a drawn (alpha, j) with |alpha| <= 2,
    and v = (D_X + A - lambda) w for a cubic w, so v passes the Fredholm
    screen.  X has quadratic and A linear terms, so the kernel sections
    are not polynomials.
    """
    n, m = (int(k) for k in rng.integers(1, 3, size=2))
    N = 4
    mu = 1.0 + rng.uniform(0.0, 1.0, size=n)
    rho = rng.uniform(-0.5, 0.5, size=m)
    X = np.zeros((P_dim(n, N), n))
    X[1:1 + n] = np.diag(mu)
    X[1 + n:P_dim(n, 2)] = 0.1 * rng.standard_normal((P_dim(n, 2) - 1 - n, n))
    A = np.zeros((P_dim(n, N), m, m))
    A[0] = np.diag(rho)
    A[1:1 + n] = 0.1 * rng.standard_normal((n, m, m))
    alpha = rng.multinomial(int(rng.integers(0, 3)), np.ones(n) / n)
    lam = float(alpha @ mu + rho[rng.integers(m)])
    w = np.zeros((P_dim(n, N), m))
    w[:P_dim(n, 3)] = rng.standard_normal((P_dim(n, 3), m))
    w = Jet(n, N, w)
    p = ProblemData(VectorFieldJet([Jet(n, N, X[:, i]) for i in range(n)]),
                    Jet(n, N, A), Jet.zero(n, N, (m,)), lam, N)
    return p.with_v(apply_operator(p, w) - lam * w)


def ball_point(rng, n):
    """A point at a distance of 0.02 to 0.2 from the source."""
    y = rng.standard_normal(n)
    return y * rng.uniform(0.02, 0.2) / np.linalg.norm(y)


class TestResonantEvaluation:
    """At a resonant lambda with v in the range, the flow evaluator returns
    the member of the solution family whose jet is the jet solver's
    particular solution (25 problems from resonant_problem)."""

    CFG = EvalConfig(rel_tol=1e-9, abs_tol=1e-12, tail_tol=1e-10)

    @staticmethod
    def problems():
        rng = np.random.default_rng(1800)
        return [(resonant_problem(rng), rng) for _ in range(25)]

    def test_matches_the_order_10_jet_particular(self):
        # 100 points; the worst difference measured is 1.7e-12
        worst = 0.0
        for p, rng in self.problems():
            assert resonance_degree(p)[0] is not None
            jet = solve_to_order(p, 10).particular
            evaluate = flow._plan(FieldSampler.from_problem(p), p, self.CFG)
            ys = [ball_point(rng, p.n) for _ in range(4)]
            for y, res in zip(ys, evaluate(ys)):  # one solver for the four
                assert res.mode == "split" and res.n_points == 4
                worst = max(worst, np.max(np.abs(res.u - jet.evaluate(y))))
        assert worst <= 1e-7

    def test_split_order_does_not_move_u(self):
        for p, rng in self.problems():
            f = FieldSampler.from_problem(p)
            y = ball_point(rng, p.n)
            res = evaluate_solution(f, p, y, self.CFG)
            more = split_by_hand(f, p, y, res.split_order + 2, self.CFG)
            assert np.max(np.abs(res.u - more)) <= 1e-7

    def test_decay_order_is_above_the_resonance_degree(self):
        # the head solve at the decay order sees every resonant degree
        degrees = set()
        for p, _ in self.problems():
            n_star = resonance_degree(p)[1]
            *_, N = flow._prepare(FieldSampler.from_problem(p), p)
            assert N > n_star
            degrees.add(n_star)
        assert degrees == {0, 1, 2}


class TestAgainstRK45Oracle:
    """DOP853, the one-matmul layout and the jet closure against the
    unclosed RK45 path they replaced."""

    CFG = EvalConfig(rel_tol=1e-8, abs_tol=1e-11, tail_tol=1e-8)
    # the oracle runs until the integrand itself is below 1e-12, which
    # needs an abs_tol below that
    TIGHT = EvalConfig(rel_tol=1e-8, abs_tol=1e-14, tail_tol=1e-12)

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
                    old = evaluate_solution(f, p, y, self.TIGHT)
                    mp.undo()
                    pairs.append((new, old))
        return pairs

    def test_u_and_mode_match(self, corpus):
        assert {new.mode for new, _ in corpus} == {"direct", "split"}
        for new, old in corpus:
            assert (new.mode, new.split_order) == (old.mode, old.split_order)
            # both keep each step's local error below rel_tol |z| + abs_tol;
            # on these decaying integrals the global errors stay below
            # rel_tol max(1, |u|) (measured: under 0.9% of it), and the
            # closure's estimate is below tail_tol, which is 1e-8 here
            assert -2.5 <= new.horizon <= -2.0 and new.tail_estimate <= 1e-8
            tol = self.CFG.rel_tol * max(1.0, float(np.max(np.abs(old.u))))
            assert np.max(np.abs(new.u - old.u)) <= tol

    def test_fewer_rhs_calls(self, corpus):
        # measured 0.082 against the oracle at the tight tail_tol, whose
        # integrals run to t = -10 to -50
        assert sum(new.nfev for new, _ in corpus) <= \
            0.15 * sum(old.nfev for _, old in corpus)

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


def linearized_problem(rng, DX, A0, lam, N=6):
    """X = DX y plus random quadratic terms, A = A0 plus random linear
    terms, and a random cubic v, as jets of order N."""
    n, m = DX.shape[0], A0.shape[0]
    comps = []
    for i in range(n):
        c = np.zeros(P_dim(n, N))
        c[1:1 + n] = DX[i]
        c[1 + n:P_dim(n, 2)] = 0.1 * rng.standard_normal(P_dim(n, 2) - 1 - n)
        comps.append(Jet(n, N, c))
    A = np.zeros((P_dim(n, N), m, m))
    A[0] = A0
    A[1:1 + n] = 0.1 * rng.standard_normal((n, m, m))
    v = np.zeros((P_dim(n, N), m))
    v[:P_dim(n, 3)] = rng.standard_normal((P_dim(n, 3), m))
    return ProblemData(VectorFieldJet(comps), Jet(n, N, A), Jet(n, N, v), lam, N)


# (DX(0), A(0), lambda, point radii, mode) of linearized_problem
NON_DIAGONAL = {
    "jordan": ([[1.0, 3.0], [0.0, 1.0]], [[0.5, 3.0], [0.0, 0.5]], 2.7,
               (0.6, 0.8), "split"),
    "rotating-direct": ([[1.0, -6.0], [6.0, 1.0]], [[0.5, 0.0], [0.0, 1.0]],
                        0.0, (0.1, 0.3), "direct"),
    "rotating-split": ([[1.0, -6.0], [6.0, 1.0]], [[0.5, 0.0], [0.0, 1.0]],
                       1.3, (0.1, 0.3), "split"),
}


class TestNonDiagonalLinearizations:
    """The closure takes nothing from the jet but its value near the
    source.  A Jordan block DX(0) = [[1, 3], [0, 1]] with A(0) = [[0.5, 3],
    [0, 0.5]] at lambda = 2.7 and |y| = 0.6 to 0.8, where the closure's own
    order-6 jet is off by 0.4% and 10%, and a rotating source DX(0) =
    [[1, -6], [6, 1]] in both modes, against the unclosed RK45 oracle at
    the same tolerances."""

    CFG = EvalConfig(rel_tol=1e-11, abs_tol=1e-14, tail_tol=1e-12)

    @pytest.mark.parametrize("DX,A0,lam,radii,mode", NON_DIAGONAL.values(),
                             ids=NON_DIAGONAL.keys())
    def test_closed_u_matches_the_unclosed_oracle(self, monkeypatch, DX, A0, lam,
                                                  radii, mode):
        # bound set before the run: 1e-9 relative (measured: at most 1.3e-11,
        # in the Jordan case)
        rng = np.random.default_rng(5100)
        p = linearized_problem(rng, np.array(DX), np.array(A0), lam)
        ys = [y * rng.uniform(*radii) / np.linalg.norm(y)
              for y in rng.standard_normal((2, 2))]
        f = FieldSampler.from_problem(p)
        rows = flow._plan(f, p, self.CFG)(ys)
        jet = solve_to_order(p, max(p.N, (rows[0].split_order or -1) + 1)).particular
        monkeypatch.setattr(flow, "_tail_integrate", reference_tail_integrate)
        for y, row, ref in zip(ys, rows, flow._plan(f, p, self.CFG)(ys)):
            assert (row.mode, ref.mode) == (mode, mode)
            scale = float(np.max(np.abs(ref.u)))
            assert np.max(np.abs(row.u - ref.u)) <= 1e-9 * scale
            if radii[0] >= 0.6:  # the closure's jet is far off at y itself
                assert np.max(np.abs(jet.evaluate(y) - ref.u)) >= 1e-3 * scale


class TestSharedSolvers:
    """The points of one plan call share their solvers, and each keeps its
    own row: its tail window and stop, its failure, and u to within the
    tolerance of its own solver."""

    CFG = EvalConfig(rel_tol=1e-8, abs_tol=1e-11, tail_tol=1e-8)

    @staticmethod
    def escaping_problem():
        # X = y + y^2: the backward flow from -1.5 blows up at t = -ln 3
        # and crosses |y| = 3 at t = -ln 2; from 0.3 and -0.5 it falls
        # into the source.  A = 1, v = y^2
        X = VectorFieldJet([Jet.from_terms(1, 2, {(1,): 1.0, (2,): 1.0})])
        return ProblemData(X, Jet.constant(1, 2, np.eye(1)),
                           Jet.from_terms(1, 2, {(2,): [1.0]}, shape=(1,)),
                           0.0, 2)

    def test_rows_agree_with_per_point_evaluation(self):
        # 10 criterion-04 problems (5 direct, 5 split), 5 points each in one
        # call.  Global errors stay below rel_tol max(1, |u|) for each
        # point's own solver (TestAgainstRK45Oracle); measured here: 4.3e-11,
        # 0.23% of that bound
        rng = np.random.default_rng(20260919)
        modes = set()
        for trial in range(10):
            p = _random_flow_problem(rng, indefinite=trial >= 5)
            f = FieldSampler.from_problem(p)
            ys = [ball_point(rng, p.n) for _ in range(5)]
            rows = flow._plan(f, p, self.CFG)(ys)
            for y, res in zip(ys, rows):
                alone = evaluate_solution(f, p, y, self.CFG)
                assert (res.mode, res.split_order, res.n_points) == \
                    (alone.mode, alone.split_order, 5)
                assert alone.n_points == 1
                tol = self.CFG.rel_tol * max(1.0, float(np.max(np.abs(alone.u))))
                assert np.max(np.abs(res.u - alone.u)) <= tol
                modes.add(res.mode)
        assert modes == {"direct", "split"}

    def test_counts_are_those_of_the_solvers_a_point_rode_in(self, solvers):
        # u = y^2 / 3 + y^3 / 4: the closure estimate e^{-t} |y_t|^3 / 4
        # meets tail_tol later the larger y is, so 0.1 stops a solver
        # before 0.5 and 0.9, which rode in them all
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 4, {(2,): 1.0,
                                                          (3,): 1.0}), 0.0, 4)
        rows = flow._plan(FieldSampler.from_problem(p), p, EvalConfig())(
            [[0.1], [0.5], [0.9]])
        widths = [s.y.size // 3 for s in solvers]  # points per solver
        assert widths[0] == 3 and widths == sorted(widths, reverse=True)
        assert len({res.n_chunks for res in rows}) >= 2
        for res in rows:
            rode = solvers[:res.n_chunks]
            assert res.n_points == 3
            assert res.nfev == sum(s.nfev for s in rode)
            assert res.n_steps == sum(len(s.ends) for s in rode)
            assert res.horizon == -rode[-1].t
        assert max(res.n_chunks for res in rows) == len(solvers)

    def test_a_point_that_leaves_the_region_keeps_the_error(self, solvers):
        # all three points are inside the radius, so _point passes them;
        # -1.5 leaves the ball mid-flight, and the other two go on in a new
        # solver from the step where it left
        p = self.escaping_problem()
        f = FieldSampler.from_problem(p, radius=3.0)
        evaluate = flow._plan(f, p, self.CFG)
        good, bad, other = evaluate([[0.3], [-1.5], [-0.5]])
        assert isinstance(bad, RegionExitError)
        assert bad.t < -math.log(2.0) and abs(bad.point[0]) > 3.0
        widths = [s.y.size // 3 for s in solvers]
        k = widths.index(2)  # the first solver without the bad point
        assert widths[:k] == [3] * k
        assert solvers[k - 1].t == -bad.t < solvers[k - 1].t_bound
        tau, z = solvers[k - 1].ends[-1]
        assert solvers[k].start[0] == tau
        assert np.array_equal(solvers[k].start[1], z.reshape(3, 3)[::2].ravel())
        alone = evaluate([[0.3], [-0.5]])
        for res, ref in zip((good, other), alone):
            assert (res.mode, res.n_points) == ("direct", 3)
            tol = self.CFG.rel_tol * max(1.0, float(np.max(np.abs(ref.u))))
            assert np.max(np.abs(res.u - ref.u)) <= tol

    def test_a_solver_failure_integrates_each_point_alone(self):
        # with no radius the blow-up at -1.5 fails the shared solver, which
        # cannot say which point failed; each point is integrated again on
        # its own, so the other rows are exactly their per-point values
        p = self.escaping_problem()
        f = FieldSampler.from_problem(p)
        rows = flow._plan(f, p, self.CFG)([[0.3], [-1.5], [-0.5]])
        assert isinstance(rows[1], FlowIntegrationError)
        assert "integrator failed" in str(rows[1])
        for res, y in zip(rows[::2], ([0.3], [-0.5])):
            alone = evaluate_solution(f, p, y, self.CFG)
            assert res.n_points == 1
            assert res.u.tobytes() == alone.u.tobytes()
            assert (res.tail_estimate, res.horizon, res.nfev) == \
                (alone.tail_estimate, alone.horizon, alone.nfev)

    def test_point_checks_stay_in_their_rows(self):
        p = self.escaping_problem()
        f = FieldSampler.from_problem(p, radius=1.0)
        rows = flow._plan(f, p, self.CFG)([[0.3], [2.0], [0.1, 0.2], [-0.5]])
        assert [type(r).__name__ for r in rows] == [
            "EvaluationResult", "ValidationError", "ValidationError",
            "EvaluationResult"]
        assert str(rows[1]) == "evaluation point outside the declared region"
        assert rows[0].n_points == rows[3].n_points == 2
        assert flow._plan(f, p, self.CFG)([]) == []


class TestEndState:
    """_tail_integrate returns each point's joint state at its stop with
    the closure term, and _plan alone turns that end into the row."""

    def test_end_state_is_the_flow_at_its_stop(self, monkeypatch):
        # 12 problems, n and m in {1, 2}, 6 direct and 6 split, each with a
        # nonzero lambda, two points in one plan call.  integrate_flow
        # integrates A, not A - lam, so the end state's Finv is e^{-lam t}
        # times the trajectory's; the reference controls the error
        # relative to the state alone, because that frame spans many
        # decades.  Bounds: y_t within 1e-13 and Finv within
        # 1e-8 |Finv| + 1e-16 (measured: 9.2e-16, and 1.3e-12
        # relative in split mode and 8.6e-18 absolute in direct mode, where
        # |Finv| is at most 1.3e-13; at most 0.086 of the Finv bound)
        ends = []
        tail_integrate = flow._tail_integrate

        def recording(f, sample, closure, ys, cfg):
            ends[:] = tail_integrate(f, sample, closure, ys, cfg)
            return ends

        monkeypatch.setattr(flow, "_tail_integrate", recording)
        cfg = EvalConfig(rel_tol=1e-12, abs_tol=1e-15)
        rng = np.random.default_rng(2601)
        for trial in range(12):
            n, m, split = 1 + trial % 2, 1 + trial // 2 % 2, trial >= 6
            p = random_flow_problem(rng, n, m, 4, 0.0)
            mu = float(np.min(np.linalg.eigvals(p.A.coeffs[0]).real))
            p = replace(p, lam=mu + 0.3 if split else mu - 1.0)
            f = FieldSampler.from_problem(p)
            *_, head, N = flow._prepare(f, p)
            assert (head is not None) == split
            ys = np.array([ball_point(rng, n) for _ in range(2)])
            rows = flow._plan(f, p, cfg)(list(ys))
            heads = np.zeros((2, m)) if head is None else head.evaluate(ys)
            for y, h, row, end in zip(ys, heads, rows, ends):
                state, closing, estimate, counts = end
                assert np.array_equal(row.u, h + state.I + closing)
                assert (row.horizon, row.tail_estimate) == (state.t, estimate)
                assert (row.mode, row.split_order) == \
                    ("split" if split else "direct", N)
                assert [getattr(row, k) for k in counts] == list(counts.values())
                # the stop: |Finv|_F times the norm of u_J's top two degree
                # blocks at y_t, below tail_tol, from t = -2 on
                u_J = solve_to_order(p, flow._closure_order(p, N)).particular
                J = u_J.N
                block = lambda k: (u_J.project(k).extend(J)
                                   - u_J.project(k - 1).extend(J))
                e_J = sum(np.linalg.norm(block(k).evaluate(state.y_t))
                          for k in (J - 1, J))
                assert estimate == pytest.approx(np.linalg.norm(state.Finv) * e_J,
                                                 rel=1e-12)
                assert estimate <= cfg.tail_tol and state.t <= -2.0
                ref = integrate_flow(f, y, state.t, rel_tol=1e-13, abs_tol=1e-280,
                                     first_step=1e-3).at(state.t)
                assert np.max(np.abs(state.y_t - ref.y_t)) <= 1e-13
                Finv = math.exp(-p.lam * state.t) * ref.Finv
                assert np.max(np.abs(state.Finv - Finv)) <= \
                    1e-8 * np.max(np.abs(Finv)) + 1e-16


class TestRowInvariant:
    """The jet closure decides every stop: every row the flow returns has
    its closure estimate at most tail_tol, at a time no later than t = -2."""

    @staticmethod
    def cases(kind):
        """(problem, points, config) of the flow tests' problems of a kind."""
        rng = np.random.default_rng(3400)
        if kind in ("direct", "split"):
            for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
                p = random_flow_problem(rng, n, m, 4, 0.0)
                mu = float(np.min(np.linalg.eigvals(p.A.coeffs[0]).real))
                p = replace(p, lam=mu - 1.0 if kind == "direct" else mu + 0.3)
                yield p, [ball_point(rng, n) for _ in range(3)], EvalConfig()
        elif kind == "resonant":
            for p, r in TestResonantEvaluation.problems()[:8]:
                yield (p, [ball_point(r, p.n) for _ in range(3)],
                       TestResonantEvaluation.CFG)
        else:
            DX, A0, lam, radii, _ = NON_DIAGONAL[kind]
            p = linearized_problem(rng, np.array(DX), np.array(A0), lam)
            ys = [y * rng.uniform(*radii) / np.linalg.norm(y)
                  for y in rng.standard_normal((3, 2))]
            for cfg in (EvalConfig(), TestNonDiagonalLinearizations.CFG):
                yield p, ys, cfg

    @pytest.mark.parametrize("kind", ["direct", "split", "resonant",
                                      *NON_DIAGONAL])
    def test_every_row_is_closed(self, kind):
        modes = set()
        for p, ys, cfg in self.cases(kind):
            for row in flow._plan(FieldSampler.from_problem(p), p, cfg)(ys):
                assert isinstance(row, flow.EvaluationResult), row
                assert row.tail_estimate <= cfg.tail_tol
                assert row.horizon <= -2.0
                modes.add(row.mode)
        assert modes == {"direct" if kind.endswith("direct") else "split"}


class TestClosureOrder:
    """The closure jet's order J: the data's order where its solve is
    cheap, lower where the product table and A's entries would grow, and in
    split mode at least split order + 1 where that can be solved."""

    @pytest.mark.parametrize("n, m, N, split, J", [
        (2, 2, 10, None, 10),  # P_dim(4, 10) m^2 = 4,004
        (1, 1, 40, None, 40),
        (3, 1, 27, None, 8),   # order 27's product table is refused
        (3, 2, 22, None, 6),
        (5, 1, 13, None, 5),
        (3, 1, 26, 1, 8),
        (3, 1, 26, 25, 26),    # split order + 1 is past the budget
        (3, 1, 30, 26, 26),    # ... and past the product table
        (1, 1, 64, 64, 64),    # ... and past MAX_ORDER
    ])
    def test_order(self, n, m, N, split, J):
        v = Jet.constant(n, N, np.ones(m))  # d_v = 0
        assert flow._closure_order(SimpleNamespace(n=n, m=m, N=N, v=v), split) == J

    @pytest.mark.parametrize("n, m, N, alpha, split, J", [
        (1, 37, 4, (2,), None, 3),     # past the budget at J = 1
        (1, 36, 4, (2,), None, 3),
        (5, 1, 10, (7, 0, 0, 0, 0), None, 8),
        (1, 1, 64, (64,), None, 64),   # capped at MAX_ORDER
        (1, 1, 8, (2,), 5, 8),         # the split order's floor is higher
        (3, 1, 30, (27, 0, 0), None, 27),  # the product table refuses 28
    ])
    def test_order_is_above_the_lowest_degree_of_v(self, n, m, N, alpha, split, J):
        # u_J is zero below v's lowest degree d_v, so J is at least d_v + 1
        # whatever the budget, or the estimate reads 0
        e = np.eye(m)[0]
        v = Jet.from_terms(n, N, {alpha: e}, shape=(m,))
        assert flow._closure_order(SimpleNamespace(n=n, m=m, N=N, v=v), split) == J

    @pytest.mark.parametrize("m", [36, 37])
    def test_a_quadratic_v_on_many_components_is_closed(self, m):
        # X = y, A = id, v = y^2 e_0: u = y^2 / 3 e_0.  The budget alone
        # gave J = 1 at m = 36, where u_J = 0 and the estimate read 0 at
        # t = -2.3, 1.0e-3 off, and J = 0 at m = 37, which solve_to_order
        # refuses.  Bound set before the run: 1e-8 relative (measured:
        # 5.7e-10 and 5.5e-10)
        v = Jet.from_terms(1, 4, {(2,): np.eye(m)[0]}, shape=(m,))
        p = ProblemData(VectorFieldJet.euler(1, 4), Jet.constant(1, 4, np.eye(m)),
                        v, 0.0, 4)
        res = evaluate_solution(FieldSampler.from_problem(p), p, [0.3])
        assert abs(res.u[0] - 0.03) <= 1e-8 * 0.03
        assert np.max(np.abs(res.u[1:])) <= 1e-12
        assert 0.0 < res.tail_estimate <= EvalConfig().tail_tol

    def test_a_degree_7_v_in_five_variables_is_closed(self):
        # y . grad u + u = y1^7: u = y1^7 / 8.  The budget alone gave J = 5,
        # where u_J = 0: the estimate read 0 and the row was 1.1e-8 off.
        # Bound set before the run: 1e-9 relative (measured: 1.4e-10)
        N = 10
        p = ProblemData(VectorFieldJet.euler(5, N), Jet.constant(5, N, np.eye(1)),
                        Jet.from_terms(5, N, {(7, 0, 0, 0, 0): [1.0]}, shape=(1,)),
                        0.0, N)
        y = [0.9, 0.3, 0.0, -0.2, 0.1]
        res = evaluate_solution(FieldSampler.from_problem(p), p, y)
        exact = 0.9 ** 7 / 8
        assert abs(res.u[0] - exact) <= 1e-9 * exact
        assert res.tail_estimate > 0.0

    def test_high_order_direct_problem_is_solved_at_the_budget(self, monkeypatch):
        # y . grad u + u = y1^2 in three variables at order 27: u = y1^2 / 3
        orders = []

        def recording(p, M, **kw):
            orders.append(M)
            return solve_to_order(p, M, **kw)

        monkeypatch.setattr(flow, "solve_to_order", recording)
        N = 27
        p = ProblemData(VectorFieldJet.euler(3, N), Jet.constant(3, N, np.eye(1)),
                        Jet.from_terms(3, N, {(2, 0, 0): [1.0]}, shape=(1,)),
                        0.0, N)
        y = np.array([0.2, -0.1, 0.3])
        res = evaluate_solution(FieldSampler.from_problem(p), p, y)
        assert orders == [8] and res.mode == "direct"
        assert res.u == pytest.approx([y[0] ** 2 / 3], abs=1e-12)


class TestFlatData:
    """The flow's own regime.  v = exp(-1/y^2) is flat at the source, so
    every jet of u is 0 and only the flow sees the data.  With X = y,
    A = a and lambda = 0 the flow integral is the quadrature
    u(y) = int_0^y (x/y)^a v(x) dx/x, computed by mpmath at 30 digits."""

    @pytest.mark.parametrize("a,mode", [
        (0.5, "direct"), (-0.5, "split"), (-1.5, "split")])
    def test_against_the_quadrature(self, a, mode):
        # bound set before the run: 1e-9 |u| + 1e-12 (measured: the worst
        # error is 8.2e-12, at a = -0.5 and y = 1)
        mpmath = pytest.importorskip("mpmath")
        p = scalar_euler_problem(a, Jet.zero(1, 4), 0.0, 4)
        assert not np.any(solve_to_order(p, 4).particular.coeffs)
        # exp(-1 / y^2), and 0 at y = 0 (where the divisor is 1e-300)
        flat = lambda ys: np.exp(-1 / np.maximum(ys ** 2, 1e-300))
        f = replace(sampler_1d(a, flat), consistent_jets=p)
        for y in (0.3, 0.5, 0.8, 1.0, -0.6):
            res = evaluate_solution(f, None, [y])
            assert res.mode == mode
            with mpmath.workdps(30):
                exact = float(mpmath.quad(
                    lambda x: (x / y) ** a * mpmath.exp(-1 / x ** 2) / x,
                    [0, mpmath.mpf(y)]))
            assert abs(res.u[0] - exact) <= 1e-9 * abs(exact) + 1e-12


class TestRiccatiOracle:
    """The flow evaluator against an oracle that integrates no ODE and
    solves no jet: X_i = mu_i y_i + y_i^2 has an explicit backward flow,
    so with a constant diagonal A and polynomial v, conftest's
    riccati_reference computes u by mpmath quadrature at 30 digits."""

    # (mu, a, lambda, v terms, points), all in direct mode
    CASES = [
        ([1.3], [0.7], 0.0,
         {(0,): [1.0], (1,): [0.5], (2,): [-0.8], (3,): [0.3]},
         [[0.25], [-0.3], [0.6], [-0.5]]),
        ([1.0, 1.6], [0.8, 1.5], 0.2,
         {(0, 0): [1.0, 0.5], (1, 0): [0.3, -0.2], (0, 1): [-0.4, 0.6],
          (1, 1): [0.5, 0.1], (0, 2): [0.2, -0.3], (2, 1): [0.1, 0.4]},
         [[0.2, -0.1], [-0.3, 0.25], [0.1, 0.4], [-0.15, -0.35]]),
    ]

    @pytest.mark.parametrize("mu,a,lam,v_terms,points", CASES,
                             ids=["1d", "2d"])
    def test_against_the_quadrature(self, mu, a, lam, v_terms, points):
        # bound set before the run: 1e-10 max(1, |u|) at the default
        # tolerances (measured: at most 9.5e-12 here, and 8.8e-12 for the
        # unclosed path that integrated each point to t = -50)
        pytest.importorskip("mpmath")
        n, m, N = len(mu), len(a), 8
        e = np.eye(n, dtype=int)
        X = VectorFieldJet([Jet.from_terms(n, N, {tuple(e[i]): mu[i],
                                                  tuple(2 * e[i]): 1.0})
                            for i in range(n)])
        p = ProblemData(X, Jet.constant(n, N, np.diag(a)),
                        Jet.from_terms(n, N, v_terms, shape=(m,)), lam, N)
        rows = flow._plan(FieldSampler.from_problem(p), p, EvalConfig())(points)
        for y, res in zip(points, rows):
            assert res.mode == "direct"
            exact = riccati_reference(mu, a, lam, v_terms, y)
            assert np.max(np.abs(res.u - exact)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(exact))))


class TestSmoothDependence:
    """The jet tangent against a central difference of evaluate_solution,
    and against one of the jet solver's particular solutions.

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

    def jet_difference(self, p, d, eps):
        """Central difference of the order-N particular coefficients."""
        hi = solve_to_order(self.along(p, d, eps), p.N).particular
        lo = solve_to_order(self.along(p, d, -eps), p.N).particular
        return (hi.coeffs - lo.coeffs) / (2 * eps)

    @pytest.mark.parametrize("k", range(5))
    def test_jet_difference_along_v_alone(self, k):
        # u is linear in v, so the difference is the tangent up to
        # round-off, about 2.2e-16 max|u| / EPS = 4e-12 here; measured at
        # most 1.1e-12
        p, dirs, _ = _benchmark_problems()[k]
        d = (VectorFieldJet([Jet.zero(p.n, p.N)] * p.n),
             Jet.zero(p.n, p.N, (p.m, p.m)), Jet(p.n, p.N, dirs["v"]), 0.0)
        tangent = reference_tangent(p, *d, p.N)
        err = np.max(np.abs(self.jet_difference(p, d, self.EPS)
                            - tangent.coeffs))
        assert err <= 1e-11

    @pytest.mark.parametrize("k", range(5))
    def test_jet_difference_along_a_joint_direction(self, k):
        # the order-N coefficients depend only on the order-N data, so the
        # tangent at order N is exact and the difference is off by its
        # eps^2 term alone: measured at most 1.2e-7 at EPS, and 100.0
        # times that at 10 EPS, where an O(eps) error would give 10
        p, dirs, _ = _benchmark_problems()[k]
        d = (VectorFieldJet([Jet(p.n, p.N, c) for c in dirs["X"]]),
             Jet(p.n, p.N, dirs["A"]), Jet(p.n, p.N, dirs["v"]), 1.0)
        tangent = reference_tangent(p, *d, p.N).coeffs
        err = np.max(np.abs(self.jet_difference(p, d, self.EPS) - tangent))
        coarse = np.max(np.abs(self.jet_difference(p, d, 10 * self.EPS)
                               - tangent))
        assert err <= 1e-6
        assert 90.0 <= coarse / err <= 110.0

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
        f = sampler_1d(1.0, lambda ys: ys)
        with pytest.raises(ValidationError):
            empirical_decay_rate(f, [0.5], "frame")

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0, 0.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        # NaN and inf would hang the integrator, and 0 leaves the fitting
        # window empty; the message names the parameter the caller passed
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 3, {(2,): 1.0}), 0.0, 3)
        with pytest.raises(ValidationError, match=re.escape(
                f"horizon must be positive and finite, got {horizon!r}")):
            empirical_decay_rate(FieldSampler.from_problem(p), [0.5],
                                 horizon=horizon)

    @pytest.mark.parametrize("horizon", [1e-155, 3.2e-159, 1e-12])
    def test_unresolved_rate_raises(self, horizon):
        # over [-horizon, -0.7 horizon] |y_t| changes by 0.3 horizon in
        # log, at or below rounding: the fit used to return -8.25e139 at
        # 1e-155 and -2.55e143 at 3.2e-159
        f = sampler_1d(1.0, lambda ys: ys ** 2)
        with pytest.raises(NumericError, match=re.escape(
                f"the decay rate is unresolved at horizon = {horizon!r}")):
            empirical_decay_rate(f, [0.5], "flow", horizon=horizon)
        assert empirical_decay_rate(f, [0.5], "flow", horizon=1e-9) == \
            pytest.approx(1.0, rel=1e-5)

    def test_tiny_horizon_fails_without_warnings(self):
        # first_step = 0.01 horizon = 1e-302: the step size underflows, and
        # the overflow in DOP853's error norm used to leak as a RuntimeWarning
        p = scalar_euler_problem(1.0, Jet.from_terms(1, 3, {(2,): 1.0}), 0.0, 3)
        with pytest.raises(FlowIntegrationError, match="integrator failed"):
            empirical_decay_rate(FieldSampler.from_problem(p), [0.5],
                                 horizon=1e-300)
