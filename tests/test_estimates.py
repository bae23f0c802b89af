"""Bound-machinery tests.

Frozen oracles, computed by one-dimensional maximization of
f(t) = e^{eps t} |[[1, t], [0, 1]]| before the module existed (the shifted
Jordan block has the closed-form norm sigma(t)^2 = 1 + t^2/2 + |t|
sqrt(t^2+4)/2, maximal at t* = -2 sqrt(3) for eps = 1/4 where sigma = 2 +
sqrt(3)):

    M([[1,1],[0,1]], 0.50) = 1.0
    M([[1,1],[0,1]], 0.25) = 1.569775307914901
    M([[1,1],[0,1]], 0.10) = 3.715955228030023
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import transportkit
import transportkit.estimates as estimates
from transportkit.errors import (HypothesisViolationError, NumericError,
                                 ValidationError)
from transportkit.estimates import (
    EstimateReport,
    MatrixPath,
    compute_M,
    ell,
    inverse_two_regime_bound,
    perturbation_bound,
    two_regime_bound,
)

from conftest import load_recipes, reference_compute_M, reference_transition

JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])


def transition_oracle(path_fn, m, ts):
    """E(t) at the (nonpositive, ascending) times ts, from the reference."""
    E, _ = reference_transition(path_fn, float(min(ts)), m)
    return [E(t) for t in ts]


class TestEll:
    def test_diagonal(self):
        assert ell(np.diag([3.0, -1.0])) == pytest.approx(-1.0)

    def test_nonnormal(self):
        assert ell(np.array([[1.0, 5.0], [0.0, 2.0]])) == pytest.approx(1.0)

    def test_continuity_smoke(self, rng):
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            d = rng.standard_normal((3, 3)) * 1e-8
            assert abs(ell(A + d) - ell(A)) < 1e-2

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            ell(np.zeros((2, 3)))


class TestComputeM:
    def test_normal_decaying_is_one(self):
        assert compute_M(np.diag([1.0, 2.0]), 0.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps,expected", [
        (0.50, 1.0),
        (0.25, 1.569775307914901),
        (0.10, 3.715955228030023),
    ])
    def test_jordan_block_oracle(self, eps, expected):
        assert compute_M(JORDAN, eps) == pytest.approx(expected, rel=1e-7)

    def test_at_least_one(self, rng):
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            assert compute_M(A, 0.4) >= 1.0

    def test_shift_invariance(self):
        for nu in (0.7, -1.3, 5.0):
            base = compute_M(JORDAN, 0.25)
            shifted = compute_M(JORDAN + nu * np.eye(2), 0.25)
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValidationError):
            compute_M(JORDAN, 0.0)


def _criterion_06_family(rng, m):
    base = rng.standard_normal((m, m))
    spread = np.ptp(np.linalg.eigvals(base).real)
    base *= min(1.0, rng.uniform(0.6, 1.0) / spread)
    return base + (0.5 + rng.random() - ell(base)) * np.eye(m)


def _near_jordan(rng, m, spread):
    J = np.eye(m) + np.diag(np.ones(m - 1), 1) + np.diag(spread * np.arange(m))
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return Q @ J @ Q.T


def _eig_cond(A0, eps):
    S = A0 - (ell(A0) - eps) * np.eye(A0.shape[0])
    return np.linalg.cond(np.linalg.eig(S)[1])


class TestComputeMAgainstScalarReference:
    """The batched evaluation against one expm call per time (conftest)."""

    def test_criterion_06_families(self, rng):
        for i in range(8):
            A0 = _criterion_06_family(rng, 2 if i % 3 else 3)
            eps = 0.2 + 0.2 * rng.random()
            for B0 in (A0, -A0.T):
                for e in (eps, eps / 2.0):
                    assert compute_M(B0, e) == pytest.approx(
                        reference_compute_M(B0, e), rel=1e-12)

    def test_random_matrices(self, rng):
        for _ in range(40):
            A0 = rng.standard_normal((int(rng.integers(2, 5)),) * 2)
            eps = 0.1 + 0.4 * rng.random()
            assert compute_M(A0, eps) == pytest.approx(
                reference_compute_M(A0, eps), rel=1e-12)

    def test_near_jordan_blocks_take_both_paths(self, rng):
        conds = []
        for spread in 10.0 ** -np.arange(13):
            for m in (2, 3):
                A0 = _near_jordan(rng, m, spread)
                conds.append(_eig_cond(A0, 0.25))
                assert compute_M(A0, 0.25) == pytest.approx(
                    reference_compute_M(A0, 0.25), rel=1e-12)
        assert min(conds) < estimates._EIG_COND_MAX < max(conds)


class TestComputeMExpmCalls:
    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []
        expm = estimates.expm

        def counting(a):
            calls.append(np.shape(a))
            return expm(a)

        monkeypatch.setattr(estimates, "expm", counting)
        return calls

    def test_diagonalisable_makes_none(self, rng, expm_calls):
        for A0 in (np.diag([1.0, 2.0]), np.array([[1.0, 5.0], [0.0, 2.0]]),
                   _criterion_06_family(rng, 3)):
            compute_M(A0, 0.3)
        assert expm_calls == []

    def test_defective_takes_batched_fallback(self, expm_calls):
        compute_M(JORDAN, 0.25)
        assert 0 < len(expm_calls) <= 100
        assert any(shape[0] > 3 for shape in expm_calls)  # the grid in one call


class TestStackedNorm:
    """The Gram-based stacked 2-norm against the SVD."""

    @staticmethod
    def check(E):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimates._norm2(E)
        want = np.linalg.svd(E, compute_uv=False)[:, 0]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_random_stacks(self, rng, m):
        self.check(rng.standard_normal((200, m, m)))

    def test_near_rank_one(self, rng):
        u, v = rng.standard_normal((2, 50, 3, 1))
        noise = 1e-9 * rng.standard_normal((50, 3, 3))
        self.check(u @ v.swapaxes(1, 2) + noise)

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_extreme_scales(self, rng, scale):
        # unscaled, the Gram product would underflow or overflow
        self.check(scale * rng.standard_normal((50, 3, 3)))

    def test_zero_matrix(self, rng):
        E = rng.standard_normal((3, 3, 3))
        E[1] = 0.0
        self.check(E)
        assert estimates._norm2(E)[1] == 0.0


class TestOneSpectralPass:
    """Both M constants of a two-regime bound come from one norm map."""

    @pytest.mark.parametrize("bound", [two_regime_bound,
                                       inverse_two_regime_bound],
                             ids=["direct", "inverse"])
    def test_one_norm_map_and_refinement(self, monkeypatch, rng, bound):
        A0, path, eps, t0 = next(recipe_paths(rng, 1))
        calls = {"norm maps": 0, "norm calls": 0, "refinements": 0}
        exp_norms, refine_max = estimates._exp_norms, estimates._refine_max

        def counting_norms(S):
            calls["norm maps"] += 1
            norms = exp_norms(S)

            def counting_map(ts):
                calls["norm calls"] += 1
                return norms(ts)

            return counting_map

        def counting_refinement(*args, **kwargs):
            calls["refinements"] += 1
            return refine_max(*args, **kwargs)

        monkeypatch.setattr(estimates, "_exp_norms", counting_norms)
        monkeypatch.setattr(estimates, "_refine_max", counting_refinement)
        bound(A0, path, eps, t0)
        assert calls["norm maps"] == calls["refinements"] == 1
        assert calls["norm calls"] <= 12

    def test_pair_matches_single_calls(self, rng):
        for A0 in [JORDAN] + [rng.standard_normal((m, m)) for m in (2, 3, 4)]:
            eps = 0.1 + 0.4 * rng.random()
            lam, pair = estimates._sup_norms(A0, (eps / 2.0, eps))
            assert lam == ell(A0)
            assert pair == [compute_M(A0, eps / 2.0), compute_M(A0, eps)]


@pytest.mark.parametrize("fn,args", [
    (compute_M, (np.eye(2), math.nan)),
    (compute_M, (np.eye(2), math.inf)),
    (compute_M, (np.array([[1.0, math.nan], [0.0, 1.0]]), 0.5)),
    (ell, (np.diag([1.0, math.inf]),)),
    (two_regime_bound, (np.eye(2), MatrixPath.constant(np.eye(2)), math.nan,
                        -1.0)),
    (two_regime_bound, (np.eye(2), MatrixPath.constant(np.eye(2)), math.inf,
                        -1.0)),
    (two_regime_bound, (np.eye(2), MatrixPath.constant(np.eye(2)), 0.5,
                        math.nan)),
    (inverse_two_regime_bound, (np.eye(2), MatrixPath.constant(np.eye(2)),
                                0.5, -math.inf)),
], ids=["M-eps-nan", "M-eps-inf", "M-A0-nan", "ell-A0-inf", "bound-eps-nan",
        "bound-eps-inf", "bound-t0-nan", "inverse-t0-neg-inf"])
def test_non_finite_input_is_validation_error(fn, args):
    with pytest.raises(ValidationError):
        fn(*args)


COMPLEX_A0 = np.array([[1, 1j], [0, 1]])


@pytest.mark.parametrize("fn,args", [
    (compute_M, (COMPLEX_A0, 0.5)),
    (perturbation_bound, (COMPLEX_A0, MatrixPath.constant(np.eye(2)), 0.5)),
    (two_regime_bound, (COMPLEX_A0, MatrixPath.constant(np.eye(2)), 0.5,
                        -1.0)),
    (inverse_two_regime_bound, (COMPLEX_A0, MatrixPath.constant(np.eye(2)),
                                0.5, -1.0)),
], ids=["compute_M", "perturbation", "two-regime", "inverse"])
def test_complex_A0_is_validation_error(fn, args):
    # casting used to keep the real part: compute_M returned 1.0 here,
    # with only a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(ValidationError, match="real"):
            fn(*args)


class TestPerturbationBound:
    def test_constant_path_reduces(self):
        A0 = np.diag([1.0, 2.0])
        bound = perturbation_bound(A0, MatrixPath.constant(A0), 0.5)
        assert bound.deviation == 0.0
        assert bound.rate == pytest.approx(0.5)  # ell - eps = 1 - 0.5
        assert bound(0.0) == pytest.approx(1.0)  # M = 1 for normal decaying
        assert bound(-2.0) == pytest.approx(math.exp(-1.0))

    def test_uniform_shift_rate(self):
        A0 = np.diag([1.0, 2.0])
        delta = 0.125
        path = MatrixPath(fn=lambda t: A0 + delta * np.eye(2),
                          sample_times=np.linspace(-10, 0, 50))
        bound = perturbation_bound(A0, path, 0.5)
        M = compute_M(A0, 0.5)
        assert bound.rate == pytest.approx(1.0 - 0.5 - M * delta)

    def test_bound_dominates_integrated_norm(self, rng):
        A0 = np.diag([1.0, 2.0])
        B = rng.standard_normal((2, 2))
        B *= 0.05 / np.linalg.norm(B, 2)
        fn = lambda t: A0 + math.sin(3 * t) * B
        ts = np.linspace(-12, 0, 100)
        bound = perturbation_bound(A0, MatrixPath(fn=fn, sample_times=ts), 0.3)
        for t, E in zip(ts, transition_oracle(fn, 2, ts)):
            assert np.linalg.norm(E, 2) <= bound(t) * (1 + 1e-8)


def decaying_path(A0, B, t_min=-15.0, samples=151):
    return MatrixPath(fn=lambda t: A0 + math.exp(t) * B,
                      sample_times=np.linspace(t_min, 0.0, samples))


class TestTwoRegime:
    def test_constant_path_constant(self):
        A0 = np.diag([1.0, 2.0])
        rep = two_regime_bound(A0, MatrixPath.constant(A0), 0.5, -1.0)
        assert rep.C == pytest.approx(compute_M(A0, 0.25) * compute_M(A0, 0.5))
        assert not rep.violated
        assert rep.kind == "direct"

    def test_decaying_perturbation_holds(self, rng):
        A0 = np.diag([1.0, 2.0])
        B = rng.standard_normal((2, 2))
        B *= 0.05 / np.linalg.norm(B, 2)
        rep = two_regime_bound(A0, decaying_path(A0, B), 0.5, -1.0)
        assert not rep.violated
        assert len(rep.samples) == 151
        for t, measured, bound in rep.samples:
            assert measured < bound

    def test_hypothesis_violation_reports_time(self):
        A0 = np.diag([1.0, 2.0])
        B = 10.0 * np.eye(2)
        with pytest.raises(HypothesisViolationError) as info:
            two_regime_bound(A0, decaying_path(A0, B), 0.5, -1.0)
        assert info.value.t is not None and info.value.t <= -1.0

    @pytest.mark.parametrize("bound,system", [
        (two_regime_bound, lambda M: M),
        (inverse_two_regime_bound, lambda M: -M.T)], ids=["direct", "inverse"])
    def test_hypothesis_violation_names_first_breaking_sample(self, bound,
                                                              system):
        A0 = np.diag([1.0, 2.0])
        B = np.array([[0.0, 2.0], [0.8, 0.0]])  # breaks from t = -2.08 on
        path = decaying_path(A0, B, samples=61)
        with pytest.raises(HypothesisViolationError) as info:
            bound(A0, path, 0.5, -1.0)
        B0 = system(A0)
        threshold = 0.25 / compute_M(B0, 0.25)
        first = next(t for t in path.sample_times if t <= -1.0 and
                     np.linalg.norm(system(path(t)) - B0, 2) >= threshold)
        assert info.value.t == first
        assert f"at t = {first:g}" in str(info.value)

    @pytest.mark.parametrize("bound,B0", [
        (two_regime_bound, np.array([[1.5, 0.4], [0.0, 1.0]])),
        (inverse_two_regime_bound, -np.array([[1.5, 0.4], [0.0, 1.0]]).T)],
        ids=["direct", "inverse"])
    def test_constant_takes_deviation_over_whole_path(self, bound, B0):
        A0 = np.array([[1.5, 0.4], [0.0, 1.0]])
        path = decaying_path(A0, np.array([[0.0, 0.01], [0.02, 0.0]]),
                             t_min=-6.0, samples=25)
        rep = bound(A0, path, 0.4, -2.0)
        M_half, M_full = compute_M(B0, 0.2), compute_M(B0, 0.4)
        assert rep.C == pytest.approx(
            M_half * M_full * math.exp(2.0 * M_full * path.deviation(A0)),
            rel=1e-12)

    def test_report_matches_oracle_norms(self, rng):
        A0 = np.array([[1.5, 0.4], [0.0, 1.0]])
        B = rng.standard_normal((2, 2))
        B *= 0.02 / np.linalg.norm(B, 2)
        path = decaying_path(A0, B, t_min=-8.0, samples=33)
        rep = two_regime_bound(A0, path, 0.4, -2.0)
        oracle = transition_oracle(path.fn, 2, path.sample_times)
        for (t, measured, _), E in zip(rep.samples, oracle):
            assert measured == pytest.approx(np.linalg.norm(E, 2),
                                             rel=1e-6, abs=1e-12)

    def test_random_families_never_violate(self, rng):
        for _ in range(20):
            base = rng.standard_normal((2, 2))
            shift = 0.5 + rng.random() - ell(base)
            A0 = base + shift * np.eye(2)  # ell(A0) in [0.5, 1.5]
            eps = 0.2 + 0.3 * rng.random()
            t0 = -float(rng.uniform(0.5, 2.0))
            margin = (eps / 2.0) / compute_M(A0, eps / 2.0)
            B = rng.standard_normal((2, 2))
            B *= 0.8 * margin * math.exp(-t0) / np.linalg.norm(B, 2)
            rep = two_regime_bound(A0, decaying_path(A0, B), eps, t0)
            assert not rep.violated

    def test_input_validation(self):
        A0 = np.eye(2)
        with pytest.raises(ValidationError):
            two_regime_bound(A0, MatrixPath.constant(A0), -0.5, -1.0)
        with pytest.raises(ValidationError):
            two_regime_bound(A0, MatrixPath.constant(A0), 0.5, 1.0)
        with pytest.raises(ValidationError):
            MatrixPath(fn=lambda t: A0, sample_times=[0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_nonfinite_sample_times_rejected(self, bad):
        # a NaN time used to reach a raw LinAlgError in two_regime_bound,
        # and a -inf time a bound that never returned; neither is called
        with pytest.raises(ValidationError, match="finite"):
            MatrixPath(fn=lambda t: np.eye(2), sample_times=[bad, -1.0, 0.0])

    def test_json_form(self):
        A0 = np.diag([1.0, 2.0])
        rep = two_regime_bound(A0, MatrixPath.constant(A0), 0.5, -1.0)
        d = rep.to_json()
        assert d["kind"] == "direct" and d["violated"] is False
        assert len(d["samples"]) == len(rep.samples)
        assert {"t", "measured", "bound"} <= set(d["samples"][0])
        assert rep.nfev > 0 and "nfev" not in d


class TestInverseBound:
    def test_decaying_perturbation_floor_holds(self, rng):
        A0 = np.diag([1.0, 2.0])
        B = rng.standard_normal((2, 2))
        B *= 0.04 / np.linalg.norm(B, 2)
        rep = inverse_two_regime_bound(A0, decaying_path(A0, B), 0.5, -1.0)
        assert rep.kind == "inverse"
        assert not rep.violated
        # ell of the transformed system is -max Re spec A0
        assert rep.ell == pytest.approx(-2.0)

    def test_floor_under_random_vectors(self, rng):
        A0 = np.diag([1.0, 2.0])
        B = rng.standard_normal((2, 2))
        B *= 0.04 / np.linalg.norm(B, 2)
        path = decaying_path(A0, B, t_min=-6.0, samples=25)
        rep = inverse_two_regime_bound(A0, path, 0.5, -1.0)
        oracle = transition_oracle(path.fn, 2, path.sample_times)
        for (t, _, floor), E in zip(rep.samples, oracle):
            for _ in range(3):
                w = rng.standard_normal(2)
                assert np.linalg.norm(E @ w) >= floor * np.linalg.norm(w) * (1 - 1e-8)

    def test_same_constants_as_direct_bound_on_adjoint_system(self, rng):
        A0 = np.array([[1.5, 0.4], [-0.2, 1.0]])
        B = rng.standard_normal((2, 2))
        B *= 0.02 / np.linalg.norm(B, 2)
        path = decaying_path(A0, B, t_min=-6.0, samples=25)
        adjoint = MatrixPath(fn=lambda t: -path(t).T,
                             sample_times=path.sample_times)
        inv = inverse_two_regime_bound(A0, path, 0.4, -1.0)
        direct = two_regime_bound(-A0.T, adjoint, 0.4, -1.0)
        assert inv.ell == direct.ell
        assert inv.M_val == direct.M_val
        assert inv.C == pytest.approx(direct.C, rel=1e-12)
        assert (inv.eps, inv.t0) == (direct.eps, direct.t0)

    def test_constant_inverse_of_jordan(self):
        # E(t) = exp(t A0); smallest singular value of exp(t J) decays at
        # the top rate 1, floor has rate 1 + eps, so the claim holds
        rep = inverse_two_regime_bound(JORDAN, MatrixPath.constant(JORDAN),
                                       0.25, -1.0)
        assert not rep.violated


# The parent's RK45 transition read s_min(E(-10)) on this constant path as
# 5.66e-19; the exact value 1/|expm(10 A0)| is 5.02e-20.
A0_STIFF = np.array([[3.4, 2.55, 1.5], [1.5, 1.14, -0.34], [-0.61, 0.53, 0.9]])
BOUNDS = pytest.mark.parametrize("bound", [two_regime_bound,
                                           inverse_two_regime_bound],
                                 ids=["direct", "inverse"])


def exact_reading(kind, X):
    """|expm(X)| or s_min(expm(X)) = 1/|expm(-X)|, the latter without an SVD
    of a nearly singular matrix."""
    if kind == "direct":
        return np.linalg.norm(expm(X), 2)
    return 1.0 / np.linalg.norm(expm(-X), 2)


def recipe_paths(rng, count):
    """(A0, path, eps, t0) of the benchmark's criterion-06 families."""
    recipes = load_recipes()
    for i in range(count):
        A0, B, eps, t0 = recipes.estimate_family(transportkit, rng,
                                                 2 if i % 3 else 3, i, count)
        path = MatrixPath(fn=lambda t, A0=A0, B=B: A0 + math.exp(t) * B,
                          sample_times=np.linspace(-10.0, 0.0, 61))
        yield A0, path, eps, t0


class TestStackedDeviation:
    def test_matches_per_sample_loop(self, rng):
        for A0, path, _, _ in recipe_paths(rng, 6):
            loop = np.array([np.linalg.norm(path(t) - A0, 2)
                             for t in path.sample_times])
            assert np.array_equal(path.deviations(A0), loop)
            assert path.deviation(A0) == loop.max()


class TestTransitionOracles:
    """The measured column against closed forms and the RK45 reference."""

    @BOUNDS
    def test_constant_path_is_expm(self, bound, rng):
        for A0 in (JORDAN, np.diag([1.0, 2.0]), _criterion_06_family(rng, 2),
                   _criterion_06_family(rng, 3)):
            rep = bound(A0, MatrixPath.constant(A0, -10.0, 61), 0.25, -1.0)
            for t, measured, _ in rep.samples:
                assert measured == pytest.approx(
                    exact_reading(rep.kind, t * A0), rel=1e-9, abs=0.0)

    @BOUNDS
    def test_commuting_perturbation_is_expm_of_integral(self, bound, rng):
        for m in (2, 3):
            A0 = _criterion_06_family(rng, m)
            B = 0.3 * A0 - 0.2 * A0 @ A0 + 0.1 * np.eye(m)
            margin = min(0.125 / compute_M(B0, 0.125) for B0 in (A0, -A0.T))
            B *= 0.8 * margin * math.exp(-1.0) / np.linalg.norm(B, 2)
            rep = bound(A0, decaying_path(A0, B, t_min=-10.0, samples=61),
                        0.25, -1.0)
            for t, measured, _ in rep.samples:
                integral = t * A0 + math.expm1(t) * B
                assert measured == pytest.approx(
                    exact_reading(rep.kind, integral), rel=1e-9, abs=0.0)

    def test_rescale_overflow_is_numeric_error(self):
        # s_min(E(t)) = exp(100 t): the rescale exp(lam t) = exp(-100 t)
        # overflows at t = -15, where the floor underflows to 0
        A0 = np.array([[100.0]])
        with pytest.raises(NumericError, match="not finite"):
            inverse_two_regime_bound(A0, MatrixPath.constant(A0, -15.0, 11),
                                     0.5, -1.0)

    def test_inverse_reads_tiny_s_min(self):
        rep = inverse_two_regime_bound(
            A0_STIFF, MatrixPath.constant(A0_STIFF, -10.0, 61), 0.25, -1.0)
        t, measured, _ = rep.samples[0]
        assert t == -10.0
        exact = 1.0 / np.linalg.norm(expm(10.0 * A0_STIFF), 2)
        assert measured == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_criterion_06_families_against_reference(self, rng):
        nfev = ref_nfev = 0
        for A0, path, eps, t0 in recipe_paths(rng, 6):
            E, count = reference_transition(path, -10.0, A0.shape[0])
            for bound, system, read in (
                    (two_regime_bound, lambda M: M,
                     lambda E: np.linalg.norm(E, 2)),
                    (inverse_two_regime_bound, lambda M: -M.T,
                     lambda E: np.linalg.svd(E, compute_uv=False)[-1])):
                rep = bound(A0, path, eps, t0)
                B0 = system(A0)
                lam, M_full = ell(B0), compute_M(B0, eps)
                C = compute_M(B0, eps / 2.0) * M_full * math.exp(
                    -t0 * M_full * path.deviation(A0))
                assert (rep.ell, rep.M_val, rep.C) == (lam, M_full, C)
                assert not rep.violated
                assert [t for t, _, _ in rep.samples] == list(
                    path.sample_times)
                for t, measured, b in rep.samples:
                    if rep.kind == "direct":
                        assert b == C * math.exp(t * (lam - eps))
                    else:
                        assert b == (1.0 / C) * math.exp(t * (-lam + eps))
                    assert measured == pytest.approx(read(E(t)), rel=1e-5,
                                                     abs=0.0)
                nfev, ref_nfev = nfev + rep.nfev, ref_nfev + count
        assert nfev <= 0.35 * ref_nfev
