"""Resonances, kernels, dual distributions, solvability."""

import math
import warnings

import numpy as np
import pytest

import transportkit
from transportkit.errors import NearResonanceWarning, ValidationError
from transportkit.jets import Jet, P_dim, VectorFieldJet, monomials
from transportkit.opmatrix import ProblemData, apply_operator, assemble, jet_to_vec
from transportkit.spectral import (
    RESONANCE_TOL,
    DualDistribution,
    SolvabilityResult,
    dual_kernel_basis,
    eigenvalue_table,
    endo_spectrum,
    enumerate_resonances,
    kernel_basis,
    linearization_spectrum,
    nullspace,
    resonance_degree,
    solvability_test,
    sternberg_resonance_check,
)
from transportkit.taylor import solve_to_order

from conftest import (
    brute_combinations,
    grlex_position,
    load_recipes,
    projector_distance,
    reference_dual_kernel_basis,
    reference_kernel_basis,
)
from test_opmatrix import gradient_example_problem


def _euler_scalar_problem(n, N, lam, v=None):
    X = VectorFieldJet.euler(n, N)
    a = Jet.zero(n, N)
    vv = v if v is not None else Jet.zero(n, N)
    return ProblemData.scalar(X, a, vv, lam, N)


# -- spectra --------------------------------------------------------------

def test_linearization_spectrum_euler():
    X = VectorFieldJet.euler(3, 2)
    assert np.allclose(linearization_spectrum(X), np.ones(3))


def test_linearization_spectrum_gradient_example():
    p = gradient_example_problem()
    assert np.allclose(linearization_spectrum(p.X), [1.0, 2.0])


def test_endo_spectrum_sorted_conjugate_pairs():
    A0 = np.array([[0.0, -2.0], [2.0, 0.0]])  # eigenvalues +-2i
    rho = endo_spectrum(A0)
    assert np.allclose(rho, [-2j, 2j])
    # triangular oracle
    T = np.array([[1.0, 5.0], [0.0, 3.0]])
    assert np.allclose(endo_spectrum(T), [1.0, 3.0])


# -- resonance enumeration --------------------------------------------------

def test_resonance_mu12_lambda2():
    entry = enumerate_resonances([1.0, 2.0], [0.0], 2.0)
    assert entry is not None
    assert entry.multiplicity == 2
    assert set(entry.representations) == {((2, 0), 0), ((0, 1), 0)}
    assert entry.max_alpha_degree == 2


def test_resonance_heat_shift_negative_is_clean():
    # mu = (1,...,1), rho = {0}: lambda = -j has no representation for j >= 1
    for j in (1, 2, 3):
        assert enumerate_resonances([1.0, 1.0], [0.0], -float(j)) is None
    entry = enumerate_resonances([1.0, 1.0], [0.0], 0.0)
    assert entry is not None and entry.multiplicity == 1
    assert entry.representations == (((0, 0), 0),)


def test_resonance_requires_positive_linearization():
    with pytest.raises(ValidationError):
        enumerate_resonances([1.0, -0.5], [0.0], 1.0)


@pytest.mark.parametrize("kwargs", [{"tol": -1e-9}])
def test_resonance_rejects_negative_tolerance(kwargs):
    with pytest.raises(ValidationError, match="nonnegative"):
        enumerate_resonances([1.0], [0.0], 2.0, **kwargs)


def test_near_resonance_warns():
    with pytest.warns(NearResonanceWarning):
        entry = enumerate_resonances([1.0], [0.0], 2.0 + 5e-8, tol=1e-9)
    assert entry is None


def test_resonance_deterministic_order():
    entry = enumerate_resonances([1.0, 1.0], [0.0, 0.0], 1.0)
    # graded-lex on alpha, then rho index
    assert entry.representations == (
        ((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((0, 1), 1))


def test_resonance_enumeration_caches_no_multi_indices():
    # an enumeration up to a new degree (here 40 in 3 variables) must not
    # leave its multi-indices in the monomials cache
    before = monomials.cache_info().currsize
    entry = enumerate_resonances([1.0, 1.0, 1.0], [0.0], 40.0)
    assert len(entry.representations) == P_dim(3, 40) - P_dim(3, 39)
    assert monomials.cache_info().currsize == before


def test_resonance_matches_assembled_spectrum(rng):
    # every matrix eigenvalue is resonant, anything off-spectrum is not
    n, m, N = 2, 2, 3
    mu = np.array([0.7, 1.9])
    rho = np.array([0.4, 1.1])
    X = VectorFieldJet.from_linear(np.diag(mu), N)
    p = ProblemData(X, Jet.constant(n, N, np.diag(rho)),
                    Jet.zero(n, N, (m,)), 0.0, N)
    eigs = np.linalg.eigvals(assemble(p).entries)
    for lam in eigs:
        assert enumerate_resonances(mu, rho, lam, tol=1e-7) is not None
    assert enumerate_resonances(mu, rho, 0.123456, tol=1e-9) is None


# -- kernels ---------------------------------------------------------------

def test_kernel_euler_1d_monomial():
    p = _euler_scalar_problem(1, 4, 3.0)
    basis = kernel_basis(p)
    assert len(basis) == 1
    want = Jet.from_terms(1, 4, {(3,): 1.0})
    got = basis[0]
    got_scalar = Jet(1, 4, got.coeffs[:, 0])
    assert got_scalar.allclose(want, atol=1e-12)


def test_kernel_gradient_example_lambda2_dim1():
    p = gradient_example_problem(N=2, lam=2.0)
    entry = enumerate_resonances(linearization_spectrum(p.X), [0.0], 2.0)
    assert entry.multiplicity == 2      # two representations ...
    basis = kernel_basis(p)
    assert len(basis) == 1              # ... but a one-dimensional kernel
    vec = basis[0].coeffs[:, 0]
    # eigenvector is the y1^2 direction (rank 3 in graded-lex order)
    assert abs(vec[3]) > 0.99
    mask = np.ones(6, dtype=bool)
    mask[3] = False
    assert np.max(np.abs(vec[mask])) < 1e-10


def test_kernel_diagonal_semisimple_dim2():
    N = 2
    X = VectorFieldJet.from_linear(np.diag([1.0, 2.0]), N)
    p = ProblemData.scalar(X, Jet.zero(2, N), Jet.zero(2, N), 2.0, N)
    assert len(kernel_basis(p)) == 2


def test_kernel_auto_raises_order():
    # stated order 1 but the resonance lives at degree 3
    p = _euler_scalar_problem(1, 1, 3.0)
    basis = kernel_basis(p)
    assert len(basis) == 1
    assert basis[0].N == 3


def test_nullspace_report(rng):
    M = np.diag([5.0, 3.0, 0.0])
    basis, report = nullspace(M)
    assert report.rank == 2 and report.nullity == 1
    assert basis.shape == (3, 1)
    assert report.gap == math.inf
    basis, report = nullspace(np.diag([2.0, 1.0j]))
    assert basis.shape == (2, 0) and report.nullity == 0


# -- dual kernel -------------------------------------------------------------

def test_dual_kernel_euler_lambda0_is_delta():
    p = _euler_scalar_problem(2, 3, 0.0)
    duals = dual_kernel_basis(p)
    assert len(duals) == 1
    T = duals[0]
    assert T.order == 0
    assert np.allclose(T.coeffs, [[1.0]])
    # evaluation convention: T(u) = u(0)
    u = Jet.from_terms(2, 3, {(0, 0): 7.0, (1, 0): 1.0})
    uu = Jet(2, 3, u.coeffs.reshape(-1, 1))
    assert np.isclose(T.pair(uu), 7.0)


def test_dual_kernel_gradient_example_lambda2():
    p = gradient_example_problem(N=2, lam=2.0)
    duals = dual_kernel_basis(p)
    assert len(duals) == 1
    T = duals[0]
    assert T.order <= 2
    # the left eigenvector extracts the y2 coefficient
    y2_rank = monomials(2, T.order).index((0, 1))
    dense = np.zeros(P_dim(2, T.order))
    dense[y2_rank] = 1.0
    assert np.allclose(np.abs(T.coeffs[:, 0]), dense, atol=1e-10)


def test_dual_kernel_support_is_exact_over_the_complex_field():
    # the problem of tests/data/cli_golden/complex.json: X = (y1 + 0.5i y2,
    # 2 y2 + (1 - i) y1^2), A = i, lambda = 2 + i, resonant at degree 1.
    # t (D_X + A - lambda) = 0 on degrees <= 2 forces t00 = t20 = t11 =
    # t02 = 0 and t10 = 0.5i t01, so the unit dual is i/sqrt5 at (1, 0)
    # and 2/sqrt5 at (0, 1); round-off must not show up as support
    X = VectorFieldJet([Jet.from_terms(2, 3, {(1, 0): 1.0, (0, 1): 0.5j}),
                        Jet.from_terms(2, 3, {(0, 1): 2.0, (2, 0): 1 - 1j})])
    v = Jet.from_terms(2, 3, {(2, 0): [1 + 2j], (0, 1): [1.0]}, shape=(1,))
    p = ProblemData(X, Jet.constant(2, 3, np.array([[1j]])), v, 2 + 1j, 3)
    (T,) = dual_kernel_basis(p)
    terms = dict(T.terms())
    assert list(terms) == [(1, 0), (0, 1)]
    assert abs(terms[(1, 0)][0] - 1j / math.sqrt(5)) <= 1e-15
    assert abs(terms[(0, 1)][0] - 2 / math.sqrt(5)) <= 1e-15
    (obstruction,) = solvability_test(p).obstructions
    assert abs(obstruction - 2 / math.sqrt(5)) <= 1e-15


def _rounding_residue_problem(shift):
    """X = y, A = a, lambda = a + shift: the 1x1 head block a - lambda is
    all rounding residue for a tiny shift, and 0 with a kernel and a dual
    at lambda = a exactly."""
    a = 0.7444438665631323
    X = VectorFieldJet.from_linear(np.eye(1), 4)
    return ProblemData.scalar(X, Jet.constant(1, 4, a), Jet.zero(1, 4),
                              a + shift, 4)


@pytest.mark.parametrize("shift", [1e-16, 1e-12])
def test_head_of_rounding_residue_keeps_its_kernel(shift):
    p = _rounding_residue_problem(shift)
    entry, degree = resonance_degree(p)
    assert entry is not None and degree == 0
    kernels = solve_to_order(p, 4).kernel_extensions
    duals = dual_kernel_basis(p)
    assert len(kernels) == 1 and len(kernel_basis(p)) == 1 and len(duals) == 1
    op = assemble(p)
    shifted = op.entries - p.lam * np.eye(op.dim)
    # the kernel extension solves (D_X + A - lam) k = 0 to the screen's
    # tolerance and spans the whole-matrix kernel
    k = jet_to_vec(kernels[0])
    assert np.linalg.norm(shifted @ k) <= RESONANCE_TOL * np.linalg.norm(k)
    assert projector_distance(k[:, None], reference_kernel_basis(p)) <= 1e-8
    # the dual pairs to zero against every column of the range
    t = np.zeros(op.dim)
    t[:duals[0].coeffs.size] = jet_to_vec(duals[0])
    assert np.linalg.norm(t @ shifted) <= RESONANCE_TOL * np.linalg.norm(t)


def test_dual_delta_form_roundtrip():
    coeffs = np.zeros((P_dim(2, 2), 1))
    coeffs[3] = 6.0   # multi-index (2,0), alpha! = 2
    T = DualDistribution(2, 2, coeffs)
    deltas = T.to_delta_form()
    assert np.allclose(deltas[(2, 0)], [3.0])
    # multiplying by alpha! converts back
    assert list(deltas) == [(2, 0)]
    assert np.allclose(deltas[(2, 0)] * 2, T.coeffs[3])


def test_dual_pairing_matrix_nonsingular_semisimple():
    # diagonalizable case: kernel and dual kernel pair nondegenerately
    N = 2
    X = VectorFieldJet.from_linear(np.diag([1.0, 2.0]), N)
    p = ProblemData.scalar(X, Jet.zero(2, N), Jet.zero(2, N), 2.0, N)
    ker = kernel_basis(p)
    duals = dual_kernel_basis(p)
    assert len(ker) == len(duals) == 2
    G = np.array([[d.pair(u) for u in ker] for d in duals])
    assert abs(np.linalg.det(G)) > 1e-8


# -- solvability --------------------------------------------------------------

def test_solvable_nonresonant_always():
    p = _euler_scalar_problem(2, 3, 0.5,
                              v=Jet.from_terms(2, 3, {(0, 0): 1.0, (1, 0): 2.0}))
    res = solvability_test(p)
    assert res.solvable and res.obstructions == ()


def test_unsolvable_constant_against_delta():
    p = _euler_scalar_problem(2, 3, 0.0, v=Jet.constant(2, 3, 1.0))
    res = solvability_test(p)
    assert not res.solvable
    assert len(res.obstructions) == 1
    assert np.isclose(abs(res.obstructions[0]), 1.0)


def test_solvable_when_v_vanishes_at_origin():
    p = _euler_scalar_problem(2, 3, 0.0,
                              v=Jet.from_terms(2, 3, {(1, 0): 1.0}))
    assert solvability_test(p).solvable


# -- sternberg ----------------------------------------------------------------

def _sternberg_oracle(mu, tol=1e-9, degree_cap=12):
    """Brute-force enumeration over a generous degree box."""
    mu = np.asarray(mu, dtype=complex)
    n = len(mu)
    hits = []
    for j in range(n):
        for alpha in monomials(n, degree_cap):
            if sum(alpha) < 2:
                continue
            if abs(sum(a * u for a, u in zip(alpha, mu)) - mu[j]) <= tol:
                hits.append((j, alpha))
    return hits


def _random_spectra(seed):
    """Seeded (mu, rho): half-integer real parts give exact coincidences
    (multiplicities above one); some seeds add a conjugate pair, an
    irrational shift, a complex rho or two rho values closer than tol."""
    rng = np.random.default_rng(7000 + seed)
    n, m = 1 + seed % 3, 1 + seed % 2
    mu = (rng.integers(1, 5, size=n) / 2.0).astype(complex)
    rho = (rng.integers(-2, 3, size=m) / 2.0).astype(complex)
    if n >= 2 and seed % 2:
        mu[:2] = mu[0] + 0.5j, mu[0] - 0.5j
    if seed % 4 == 3:
        mu[-1] += rng.uniform(0.0, 0.5)
    if seed % 5 == 4:
        rho[0] += 0.25j
    if seed % 4 == 1:
        rho[1] = rho[0] + 4e-10
    return mu, rho


@pytest.mark.parametrize("seed", range(10))
def test_enumerators_match_brute_force(seed):
    mu, rho = _random_spectra(seed)
    tol, max_re = 1e-9, 3.0

    found = sorted(brute_combinations(mu, rho, max_re + tol),
                   key=lambda c: (c[2].real, c[2].imag, grlex_position(c[0]),
                                  c[1]))
    clusters = []
    for alpha, j, val in found:
        if clusters and abs(val - clusters[-1][0]) <= tol:
            clusters[-1][1].append({"alpha": list(alpha), "j": j})
        else:
            clusters.append((val, [{"alpha": list(alpha), "j": j}]))
    table = eigenvalue_table(mu, rho, max_re, tol)
    assert [(e["re"], e["im"]) for e in table] == \
        [(val.real, val.imag) for val, _ in clusters]
    assert [e["representations"] for e in table] == [r for _, r in clusters]
    assert [e["multiplicity"] for e in table] == [len(r) for _, r in clusters]

    rng = np.random.default_rng(seed)
    lams = [found[k][2] for k in rng.choice(len(found), size=3)]
    lams += [lam + 0.123 for lam in lams]
    for lam in lams:
        reps = sorted(((alpha, j) for alpha, j, val
                       in brute_combinations(mu, rho, lam.real + 1.0)
                       if abs(val - lam) <= tol),
                      key=lambda r: (grlex_position(r[0]), r[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearResonanceWarning)
            entry = enumerate_resonances(mu, rho, lam, tol=tol)
        if not reps:
            assert entry is None
            continue
        assert entry.representations == tuple(reps)
        assert entry.max_alpha_degree == max(sum(a) for a, _ in reps)

    hits = sorted(((j, alpha) for j in range(len(mu)) for alpha, _, val
                   in brute_combinations(mu, [0.0], mu[j].real + 1.0)
                   if sum(alpha) >= 2 and abs(val - mu[j]) <= tol),
                  key=lambda h: (h[0], grlex_position(h[1])))
    assert sternberg_resonance_check(mu, tol=tol) == hits


def test_sternberg_mu_1_2():
    got = sternberg_resonance_check([1.0, 2.0])
    assert got == [(1, (2, 0))]
    assert got == _sternberg_oracle([1.0, 2.0])


def test_sternberg_mu_2_3():
    got = sternberg_resonance_check([2.0, 3.0])
    assert got == _sternberg_oracle([2.0, 3.0]) == []


def test_sternberg_mu_1_pi():
    assert sternberg_resonance_check([1.0, math.pi]) == []


def test_sternberg_enumerates_once(monkeypatch):
    calls = []
    combinations = transportkit.spectral._combinations

    def counting(*args, **kwargs):
        calls.append(args)
        return combinations(*args, **kwargs)

    monkeypatch.setattr(transportkit.spectral, "_combinations", counting)
    mu = [1.0, 2.0, 3.0]
    assert sternberg_resonance_check(mu) == _sternberg_oracle(mu)
    assert len(calls) == 1


def test_sternberg_resonant_triple():
    got = sternberg_resonance_check([1.0, 1.0, 2.0])
    assert set(got) == set(_sternberg_oracle([1.0, 1.0, 2.0]))
    assert (2, (2, 0, 0)) in got and (2, (1, 1, 0)) in got and (2, (0, 2, 0)) in got


# -- randomized Fredholm property suite ----------------------------------------

def _random_structured_problem(rng, resonant):
    """Random problem with known, well-separated spectra.

    The linearization and A(0) are conjugated diagonal matrices, so the
    eigenvalue combinations are known exactly; higher-order jet terms are
    arbitrary.
    """
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    N = int(rng.integers(1, 5))
    mu = np.sort(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], size=n, replace=True)
                 + rng.integers(0, 3, size=n))
    rho = rng.choice([0.25, 0.75, 1.25, 2.25], size=m, replace=True)
    Q = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    lin = Q @ np.diag(mu) @ np.linalg.inv(Q)
    R = np.eye(m) + 0.3 * rng.standard_normal((m, m))
    A0 = R @ np.diag(rho) @ np.linalg.inv(R)

    comps = []
    for i in range(n):
        c = 0.4 * rng.standard_normal(P_dim(n, N))
        c[:n + 1] = 0.0
        lin_part = Jet.from_terms(
            n, N, {tuple(1 if k == j else 0 for k in range(n)): lin[i, j]
                   for j in range(n)})
        comps.append(Jet(n, N, c) + lin_part)
    X = VectorFieldJet(comps)
    A_higher = 0.4 * rng.standard_normal((P_dim(n, N), m, m))
    A_higher[0] = 0.0
    A = Jet.constant(n, N, A0) + Jet(n, N, A_higher)
    v = Jet(n, N, rng.standard_normal((P_dim(n, N), m)))

    if resonant:
        alpha = tuple(int(a) for a in rng.integers(0, 2, size=n))
        j = int(rng.integers(0, m))
        lam = float(np.dot(alpha, mu) + rho[j])
    else:
        lam = float(rng.uniform(0.05, 4.0)) + 0.318309886  # irrational-ish offset
        while enumerate_resonances(mu, rho, lam, tol=1e-6) is not None:
            lam += 0.1
    return ProblemData(X, A, v, lam, N), mu, rho


def test_fredholm_properties_randomized(rng):
    for trial in range(60):
        resonant = trial % 2 == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p, mu, rho = _random_structured_problem(rng, resonant)
            entry = enumerate_resonances(mu, rho, p.lam, tol=1e-7)
            ker = kernel_basis(p, tol=1e-7)
            duals = dual_kernel_basis(p, tol=1e-7)
        k = len(ker)
        assert k == len(duals)
        if entry is None:
            assert k == 0
        else:
            assert 1 <= k <= entry.multiplicity


# -- head-block kernels against the whole-matrix reference ------------------

def _random_resonant_problem(rng, complex_field):
    """Criterion-03 style: triangular linear data with integer spectrum,
    O(0.2) tails and a resonant lambda; complex tails and rho when asked."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    N = int(rng.integers(1, 5))
    P = P_dim(n, N)

    def noise(*shape):
        out = 0.2 * rng.standard_normal(shape)
        return out + 0.2j * rng.standard_normal(shape) if complex_field else out

    mu = rng.integers(1, 3, size=n).astype(float)
    rho = rng.integers(-1, 2, size=m) + (1j * rng.integers(-1, 2, size=m)
                                         if complex_field else 0.0)
    comps = []
    for i in range(n):
        c = noise(P)
        c[:1 + n] = 0.0
        c[1 + i] = mu[i]
        c[2 + i:1 + n] = noise(n - i - 1)  # upper-triangular linear part
        comps.append(Jet(n, N, c))
    A_c = noise(P, m, m)
    A_c[0] = np.triu(noise(m, m), k=1) + np.diag(rho)
    alpha = rng.integers(0, N + 1, size=n)
    while alpha.sum() > N:
        alpha = rng.integers(0, N + 1, size=n)
    lam = complex(alpha @ mu + rho[rng.integers(0, m)])
    p = ProblemData(VectorFieldJet(comps), Jet(n, N, A_c),
                    Jet(n, N, rng.standard_normal((P, m))),
                    lam if complex_field else lam.real, N)
    if rng.random() < 0.3:  # v in the range: the solvable branch runs
        u = Jet(n, N, 5.0 * noise(P, m))
        p = p.with_v(apply_operator(p, u) - p.lam * u)
    return p


@pytest.mark.parametrize("complex_field", [False, True])
def test_head_kernels_match_whole_matrix_reference(rng, complex_field):
    for _ in range(30):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearResonanceWarning)
            p = _random_resonant_problem(rng, complex_field)
            ker = kernel_basis(p)
            duals = dual_kernel_basis(p)
            sol = solve_to_order(p, p.N)
        assert p.is_complex == complex_field
        assert 1 <= len(ker) == len(duals) == len(sol.kernel_extensions)
        ref = reference_kernel_basis(p)
        ref_head, ref_tails = reference_dual_kernel_basis(p)
        assert np.all(ref_tails <= 1e-8)
        got = np.column_stack([jet_to_vec(k) for k in ker])
        assert projector_distance(got, ref) <= 1e-8
        got = np.column_stack([d.coeffs.reshape(-1) for d in duals])
        assert projector_distance(got, ref_head) <= 1e-8


def test_ladder_rung_counts_agree():
    """The (3,2,10) resonant solvable rung of the benchmark ladder, seed 11.

    Its head block has sigma / sigma_max = 4.5e-10 where the whole matrix
    has 1.8e-11, on either side of RANK_RTOL, so rank decisions taken on
    the two matrices found 6 and 7 kernel vectors.
    """
    recipes = load_recipes()
    rng = np.random.default_rng(11)
    for rung in recipes.LADDER:  # replay the benchmark's draws up to the rung
        for kind in recipes.LADDER_KINDS:
            p = recipes.fredholm_problem(transportkit, rng, *rung, kind)
            if (rung, kind) == ((3, 2, 10), "solvable"):
                break
    sol = solve_to_order(p, p.N)
    assert sol.solvable
    assert len(kernel_basis(p)) == len(dual_kernel_basis(p)) \
        == len(sol.kernel_extensions)
