"""Shared brute-force oracles used to check jet arithmetic independently.

These work on plain dictionaries {multi-index tuple: coefficient} with no
truncation cleverness, so they stay independent of the code under test.
The kernel references below instead decide rank on the whole assembled
matrix, the path that the head-block SVD of spectral replaced, and the
flow references sample X, A and v through one Jet.evaluate call each,
the path that the fused polynomial sampler of flow replaced, and
reference_tail_integrate is the RK45 tail integration that DOP853 replaced.
reference_apply_operator is D_X + A by jet arithmetic (jet_mul and
partial derivatives), the path that the index-built sparse operator of
opmatrix replaced; reference_assemble is the dense operator built by one
reference_apply_operator call per basis jet, and the whole-matrix
references use it, so they share no code with that builder but the
product table jets._mul_table, which test_jets checks against
reference_mul_table.  reference_solve_family is the jet solver that
assembled the whole dense operator and read the head and the degree
slices off it, the path that the degree-by-degree forward substitution
of taylor replaced.  reference_mul_table is the double loop over monomial
pairs that the graded index arithmetic of jets._mul_table replaced.
reference_compute_M evaluates exp(tS) one time at a time with scipy's
expm, the path that the batched eigendecomposition of estimates replaced.
reference_tangent is the derivative of the solution with respect to the
data, one more jet solve built from public calls, which the tests compare
with central differences of the flow evaluator and of the jet solver.
reference_heat_coefficients is the heat ladder by one resonant jet solve
per column per step, the path that the division by degree of
applications replaced, and reference_heat_numeric its quadrature by one
Jet.evaluate per node, the path that one monomial product per rule
replaced.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: under OpenBLAS's default of one thread per core, a
# busy second core slowed the estimates tests up to fifteenfold.  BLAS
# reads these variables once, when numpy loads, so a pin set after that
# would do nothing; fail instead of running slow unnoticed.
_unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if v not in os.environ]
if _unset and "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one "
        f"thread; set {', '.join(_unset)}=1 in the environment")
for _var in _unset:
    os.environ[_var] = "1"

import importlib.util  # noqa: E402
import itertools  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, lu_factor, lu_solve

from transportkit.applications import _apply_L, heat_coefficients_jet
from transportkit.errors import TailDecayError
from transportkit.estimates import ell
from transportkit.flow import EvaluationResult

from transportkit.errors import ShapeMismatchError
from transportkit.jets import (Jet, P_dim, VectorFieldJet, degree_starts,
                               jet_mul, monomial_powers, monomial_rank,
                               monomials)
from transportkit.opmatrix import (OperatorMatrix, ProblemData, _common_field,
                                   jet_to_vec, vec_to_jet)
from transportkit.spectral import (RANK_RTOL, RESONANCE_TOL, DualDistribution,
                                   _canonicalize_columns, _screen, _svd_rank,
                                   enumerate_resonances, resonance_degree)
from transportkit.taylor import JetSolution, solve_to_order


def dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for alpha, ca in a.items():
        for beta, cb in b.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            out[gamma] = out.get(gamma, 0.0) + ca * cb
    return out


def dict_truncate(a: dict, N: int) -> dict:
    return {alpha: c for alpha, c in a.items() if sum(alpha) <= N}


def dict_diff(a: dict, i: int) -> dict:
    out = {}
    for alpha, c in a.items():
        if alpha[i] == 0:
            continue
        beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        out[beta] = out.get(beta, 0.0) + alpha[i] * c
    return out


def dict_eval(a: dict, point) -> float:
    total = 0.0
    for alpha, c in a.items():
        term = c
        for x, e in zip(point, alpha):
            term = term * x**e
        total += term
    return total


def dict_directional(components: list, u: dict) -> dict:
    """sum_i X^i du/dy_i on raw dictionaries."""
    out = {}
    for i, comp in enumerate(components):
        for alpha, c in dict_mul(comp, dict_diff(u, i)).items():
            out[alpha] = out.get(alpha, 0.0) + c
    return out


def jet_to_dict(u) -> dict:
    return {alpha: (np.array(c) if np.ndim(c) else float(c))
            for alpha, c in u.terms()}


def dicts_close(a: dict, b: dict, tol=1e-12) -> bool:
    keys = set(a) | set(b)
    return all(np.allclose(np.asarray(a.get(k, 0.0)), np.asarray(b.get(k, 0.0)),
                           atol=tol, rtol=tol) for k in keys)


def brute_combinations(mu, rho, re_max: float) -> list:
    """Every (alpha, j, alpha . mu + rho_j) with real part <= re_max.

    Scans the box 0 <= alpha_i <= D with D from the smallest Re mu, so it
    shares no monomial order or degree bound with the code under test.
    Values are summed over coordinates in order, as the package sums them,
    so exact ties between combinations stay exact.
    """
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    side = max(0, math.floor((re_max - rho.real.min()) / mu.real.min()) + 1)
    out = []
    for alpha in itertools.product(range(side + 1), repeat=len(mu)):
        for j in range(len(rho)):
            val = complex(sum(a * u for a, u in zip(alpha, mu)) + rho[j])
            if val.real <= re_max:
                out.append((alpha, j, val))
    return out


def grlex_position(alpha):
    """Graded-lex sort key: total degree, then larger leading exponents first."""
    return (sum(alpha), [-a for a in alpha])


def reference_mul_table(n, N):
    """Index triples (i, j, k) of monomial products, by a loop over all pairs."""
    mons = monomials(n, N)
    rank = monomial_rank(n, N)
    ii, jj, kk = [], [], []
    for i, a in enumerate(mons):
        for j, b in enumerate(mons):
            if sum(a) + sum(b) <= N:
                ii.append(i)
                jj.append(j)
                kk.append(rank[tuple(x + y for x, y in zip(a, b))])
    return (np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp),
            np.array(kk, dtype=np.intp))


def reference_directional_derivative(X, u):
    """The derivative sum_i X^i * du/dy_i, exact on P_N because X(0) = 0.

    The degree-k part of the result depends only on coefficients of u of
    degree <= k, so the operation descends to the quotient P_N.
    """
    if X.n != u.n:
        raise ShapeMismatchError(f"field in {X.n} variables, jet in {u.n}")
    if X.N != u.N:
        raise ShapeMismatchError(f"field order {X.N} != jet order {u.N}")
    if u.N == 0:
        return Jet.zero(u.n, 0, u.value_shape,
                        dtype=np.result_type(X.dtype, u.dtype))
    out = None
    for i in range(u.n):
        # padding the (unknown) top-degree slot of du/dy_i with zeros is
        # harmless: it only ever multiplies the vanishing constant term of X
        term = jet_mul(X.components[i], u.partial(i).extend(u.N))
        out = term if out is None else out + term
    return out


def reference_tangent(p, dX, dA, dv, dlam, order):
    """Derivative of the solution u of (D_X + A - lam) u = v along the
    direction (dX, dA, dv, dlam) of the data, as a jet of the given order.

    Differentiating the equation gives one more solve with the same
    operator: (D_X + A - lam) du = dv - dX.grad u - dA u + dlam u.  Every
    step is a public call (solve_to_order, jet_mul, Jet.partial,
    ProblemData.with_v).  dX must vanish at the origin and lam must be
    non-resonant, so that u and du are unique.
    """
    q = p.at_order(order)
    u = solve_to_order(q, order).particular
    rhs = (dv.extend(order)
           - reference_directional_derivative(dX.extend(order), u)
           - jet_mul(dA.extend(order), u) + dlam * u)
    return solve_to_order(q.with_v(rhs), order).particular


def reference_heat_coefficients(h):
    """Phi_0 .. Phi_J of a HeatProblem by one solve_to_order per column
    per j, the general resonant jet solver applied to the radial field
    with A = 0, the path that the division by |alpha| + j of
    applications.heat_coefficients_jet replaced.  The right-hand sides
    come from applications._apply_L, as there."""
    out = [Jet.constant(h.n, h.N, np.eye(h.m))]
    mu = np.ones(h.n)
    for j in range(1, h.J + 1):
        assert enumerate_resonances(mu, np.zeros(h.m), -float(j)) is None
        M_j = h.N - 2 * j
        rhs = -_apply_L(h.K, out[-1])
        X = VectorFieldJet.euler(h.n, M_j)
        A = Jet.zero(h.n, M_j, (h.m, h.m))
        cols = []
        for i in range(h.m):
            column = Jet(rhs.n, rhs.N, rhs.coeffs[:, :, i])
            p = ProblemData(X, A, column, -float(j), M_j)
            sol = solve_to_order(p, M_j)
            cols.append(sol.particular)
        coeffs = np.stack([c.coeffs for c in cols], axis=2)
        out.append(Jet(h.n, M_j, coeffs, copy=False))
    return out


def reference_heat_numeric(h, q, tol=1e-10):
    """Phi_0(q) .. Phi_J(q) as applications.heat_coefficients_numeric
    computes them, but summing Jet.evaluate over the Gauss-Legendre nodes
    one node at a time."""
    jets = heat_coefficients_jet(h)
    out = [np.eye(h.m)]
    for j in range(1, h.J + 1):
        Lj = _apply_L(h.K, jets[j - 1])

        def quad(k):
            x, w = np.polynomial.legendre.leggauss(k)
            acc = np.zeros((h.m, h.m))
            for si, wi in zip(0.5 * (x + 1.0), 0.5 * w):
                acc += wi * si ** (j - 1) * Lj.evaluate(si * q)
            return -acc

        nodes, val = 8, quad(8)
        while True:
            nodes *= 2
            nxt = quad(nodes)
            if np.max(np.abs(nxt - val)) <= tol * (1.0 + np.max(np.abs(nxt))):
                break
            val = nxt
        out.append(nxt)
    return out


def reference_apply_operator(p, u):
    """(D_X + A) u by jet arithmetic at order min(p.N, u.N).

    The directional derivative is summed over i = 0, ..., n-1 and A u
    added last, the order in which opmatrix._sparse_operator adds
    repeated entries.
    """
    order = min(p.N, u.N)
    q, uu = _common_field(p.at_order(order), u.project(order))
    return reference_directional_derivative(q.X, uu) + jet_mul(q.A, uu)


def reference_assemble(p):
    """Dense matrix of D_X + A, column (alpha, j) = reference_apply_operator
    on y^alpha e_j."""
    n, N, m = p.n, p.N, p.m
    dim = m * P_dim(n, N)
    dtype = np.complex128 if p.is_complex else np.float64
    entries = np.zeros((dim, dim), dtype=dtype)
    basis = tuple((alpha, j) for alpha in monomials(n, N) for j in range(m))
    for col, (alpha, j) in enumerate(basis):
        unit = np.zeros((P_dim(n, N), m), dtype=dtype)
        unit[monomial_rank(n, N)[alpha], j] = 1.0
        entries[:, col] = jet_to_vec(reference_apply_operator(
            p, Jet(n, N, unit)))
    return OperatorMatrix(entries=entries, n=n, N=N, m=m, basis=basis,
                          offsets=degree_starts(n, N) * m)


def _full_matrix(p, tol):
    """L - lambda on P_N' tensor V, N' = max(N, resonance degree), and the degree."""
    _, n_star = resonance_degree(p, tol)
    q = p.at_order(max(p.N, n_star))
    M = reference_assemble(q)
    return M.entries - q.lam * np.eye(M.dim), M.offsets, n_star


def _full_null(mat, rtol):
    """Right null basis by one SVD and the relative threshold rtol * sigma_max."""
    _, s, Vh = np.linalg.svd(mat)
    rank = int(np.sum(s > rtol * s[0]))
    return Vh[rank:].conj().T


def reference_kernel_basis(p, rtol=RANK_RTOL, tol=RESONANCE_TOL):
    """Kernel of L - lambda as columns, from an SVD of the whole matrix."""
    L, _, _ = _full_matrix(p, tol)
    return _full_null(L, rtol)


def reference_dual_kernel_basis(p, rtol=RANK_RTOL, tol=RESONANCE_TOL):
    """Left (bilinear) null space of the whole matrix: (head, tails).

    head holds the rows of degree <= N* of each null vector, as columns;
    tails the norm of each vector above N* relative to its whole norm,
    which theory says vanishes.
    """
    L, offsets, n_star = _full_matrix(p, tol)
    basis = _full_null(L.T, rtol)
    rows = int(offsets[n_star + 1])
    tails = np.linalg.norm(basis[rows:], axis=0) / np.linalg.norm(basis, axis=0)
    return basis[:rows], tails


def projector_distance(a, b):
    """Spectral-norm distance of the orthogonal projectors onto span(a), span(b)."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return float(np.linalg.norm(qa @ qa.conj().T - qb @ qb.conj().T, 2))


def reference_solve_family(q, entry, n_star, obstruction_tol=1e-9):
    """taylor._solve_family on the whole assembled operator of q.

    One SVD of the head block (degrees <= n_star) when lambda is resonant,
    a dense solve of it otherwise; then each degree slice is factored and
    the particular solution and every head kernel vector are extended by
    block forward substitution on the dense rows.  No warnings.
    """
    op = reference_assemble(q)
    head_dim = int(op.offsets[n_star + 1])
    head = op.entries[:head_dim, :head_dim] - q.lam * np.eye(head_dim)
    v_vec = jet_to_vec(q.v)
    condition_report = {}
    slice_lu = {}
    for k in range(n_star + 1, q.N + 1):
        r0, r1 = int(op.offsets[k]), int(op.offsets[k + 1])
        block = op.entries[r0:r1, r0:r1] - q.lam * np.eye(r1 - r0)
        condition_report[f"slice_{k}"] = float(np.linalg.cond(block))
        slice_lu[k] = lu_factor(block)

    def extend_by_slices(head_vec, rhs_vec):
        out = np.zeros(op.dim, dtype=op.entries.dtype)
        out[:head_dim] = head_vec
        for k in range(n_star + 1, q.N + 1):
            r0, r1 = int(op.offsets[k]), int(op.offsets[k + 1])
            rhs_k = rhs_vec[r0:r1] - op.entries[r0:r1, :r0] @ out[:r0]
            out[r0:r1] = lu_solve(slice_lu[k], rhs_k)
        return out

    obstructions = ()
    particular_head = None
    kernel_extensions = ()
    if entry is not None:
        U, s, Vh, report = _svd_rank(head)
        r = report.rank
        left = _canonicalize_columns(U[:, r:].conj())
        duals = [DualDistribution(q.n, n_star, left[:, k].reshape(-1, q.m))
                 for k in range(left.shape[1])]
        screen = _screen(duals, q.v, obstruction_tol)
        obstructions = screen.obstructions
        if screen.solvable:
            particular_head = Vh[:r].conj().T @ (
                (U[:, :r].conj().T @ v_vec[:head_dim]) / s[:r])
        kernel_extensions = tuple(
            vec_to_jet(extend_by_slices(col, 0 * v_vec), q.n, q.N, q.m)
            for col in _canonicalize_columns(Vh[r:].conj().T).T)
    else:
        condition_report["head"] = float(np.linalg.cond(head))
        particular_head = np.linalg.solve(head, v_vec[:head_dim])
    particular = (None if particular_head is None else vec_to_jet(
        extend_by_slices(particular_head, v_vec), q.n, q.N, q.m))
    return JetSolution(particular=particular,
                       kernel_extensions=kernel_extensions, resonance=entry,
                       obstructions=obstructions,
                       condition_report=condition_report)


def reference_jet_evaluate(u, point):
    """Jet value at a point as one y**alpha product per monomial and a tensordot."""
    point = np.asarray(point)
    mono = np.prod(point[None, :] ** monomial_powers(u.n, u.N), axis=1)
    return np.tensordot(mono, u.coeffs, axes=1)


def reference_reversed_rhs(X, A, v, lam):
    """Time-reversed flow RHS for (X, A - lam, v) from three Jet.evaluate samplers.

    State z = (y, vec Finv, I); returns (-X(y), -Finv (A(y) - lam), Finv v(y)).
    """
    n, m = X.n, A.value_shape[0]

    def rhs(_tau, z):
        y = z[:n]
        Finv = z[n:n + m * m].reshape(m, m)
        Xy = np.array([c.evaluate(y) for c in X.components])
        Ay = np.asarray(A.evaluate(y)) - lam * np.eye(m)
        vy = np.asarray(v.evaluate(y))
        return np.concatenate([-Xy, (-Finv @ Ay).reshape(-1), Finv @ vy])

    return rhs


def reference_flow_segment(f, z0, tau0: float, tau1: float, rel_tol: float,
                           abs_tol: float):
    """RK45 solution of the time-reversed joint system on [tau0, tau1].

    State z = (y, vec Finv, I), with X, A and v read through the sampler's
    three public callables; returns scipy's result with dense output.
    """
    n, m = f.n, f.m

    def rhs(_tau, z):
        y, Finv = z[:n], z[n:n + m * m].reshape(m, m)
        A = np.asarray(f.A_eval(y), dtype=float)
        return np.concatenate([-np.asarray(f.X_eval(y), dtype=float),
                               (-Finv @ A).reshape(-1),
                               Finv @ np.asarray(f.v_eval(y), dtype=float)])

    return _rk45_segment(rhs, z0, tau0, tau1, rel_tol, abs_tol)


def _rk45_segment(rhs, z0, tau0, tau1, rel_tol, abs_tol):
    res = solve_ivp(rhs, (tau0, tau1), z0, method="RK45", rtol=rel_tol,
                    atol=abs_tol, dense_output=True)
    assert res.success, res.message
    return res


def reference_tail_integrate(f, sample, ys, cfg):
    """Direct-mode evaluation by RK45, one point at a time, checking the
    tail one sample at a time.

    The flow evaluator's tail integration before it moved to DOP853, the
    (y, rows of [Finv | I]) layout and shared solvers: chunks of
    cfg.chunk, 16 samples of g(t) = |Finv v(y_t)| per chunk, each from
    its own dense-output and sample call, and the same stopping rule.
    sample is the integrand, rows y -> [-X | rows of (-A | v)], of
    flow._tail_integrate, whose layout TestFusedSampler checks against
    reference_reversed_rhs; ys has one point per row, and the result is
    one EvaluationResult per point.  There are no region-exit or overflow
    events; the corpora it is run on stay inside both.  Monkeypatch it
    over flow._tail_integrate to evaluate through the RK45 path.
    """
    return [_reference_tail_point(f, sample, y, cfg) for y in ys]


def _reference_tail_point(f, sample, y, cfg):
    n, m = f.n, f.m
    k = n + m * m

    def parts(y):  # (-X, -A, v) at y
        s = sample(y[None])[0]
        block = s[n:].reshape(m, m + 1)
        return s[:n], block[:, :m], block[:, m]

    def rhs(_tau, z):
        minus_X, minus_A, v = parts(z[:n])
        Finv = z[n:k].reshape(m, m)
        return np.concatenate([minus_X, (Finv @ minus_A).reshape(-1),
                               Finv @ v])
    z = np.concatenate([np.asarray(y, dtype=float), np.eye(m).reshape(-1),
                        np.zeros(m)])
    tau = 0.0
    window_ts, window_gs = [], []
    counts = {"nfev": 0, "n_steps": 0, "n_chunks": 0}

    def result(tail, rate):
        return EvaluationResult(u=z[k:], tail_estimate=tail, horizon=-tau,
                                rate=rate, mode="direct", split_order=None,
                                method="RK45", **counts)

    while True:
        tau1 = min(tau + cfg.chunk, cfg.max_horizon)
        res = _rk45_segment(rhs, z, tau, tau1, cfg.rel_tol, cfg.abs_tol)
        counts["nfev"] += int(res.nfev)
        counts["n_steps"] += len(res.t) - 1
        counts["n_chunks"] += 1
        for tk in np.linspace(tau, tau1, 17)[1:]:
            zz = res.sol(tk)
            window_ts.append(-tk)
            window_gs.append(float(np.linalg.norm(
                zz[n:k].reshape(m, m) @ parts(zz[:n])[2])))
        z = res.y[:, -1]
        tau = tau1
        keep = [i for i, t in enumerate(window_ts)
                if t <= -tau + 2.5 * cfg.chunk]
        window_ts = [window_ts[i] for i in keep]
        window_gs = [window_gs[i] for i in keep]

        g_last = window_gs[-1]
        if g_last <= 1e-250:
            return result(0.0, math.inf)
        logs = np.log(np.maximum(window_gs, 1e-290))
        rate = float(np.polyfit(window_ts, logs, 1)[0])
        if tau >= cfg.t_min and g_last <= cfg.tail_tol and rate > 0:
            return result(g_last / rate, rate)
        if tau >= cfg.max_horizon:
            if rate <= 0:
                raise TailDecayError(f"no decay (fitted rate {rate:.3e})")
            return result(g_last / rate, rate)


def _reference_golden_max(fn, a: float, b: float, iters: int = 80) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - g * (b - a)
    x2 = a + g * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = fn(x1)
        if b - a < 1e-12 * max(1.0, abs(a)):
            break
    return max(f1, f2)


def reference_compute_M(A0, eps: float) -> float:
    """M(A0, eps) from one scalar expm and 2-norm per time: the doubling
    window, the 513-point log grid and a golden-section search around each
    of the three best grid points, one after the other."""
    A0 = np.asarray(A0, dtype=float)
    S = A0 - (ell(A0) - eps) * np.eye(A0.shape[0])

    def f(t: float) -> float:
        return float(np.linalg.norm(expm(t * S), 2))

    T = 10.0 / eps
    while (f(-T) >= 0.5 or f(-T) > f(-T / 2)) and T < 1e7:
        T *= 2.0
    ts = np.sort(np.concatenate([-T * np.geomspace(1e-7, 1.0, 512), [0.0]]))
    vals = np.array([f(t) for t in ts])
    best = 1.0
    for idx in np.argsort(vals)[::-1][:3]:
        lo = ts[max(int(idx) - 1, 0)]
        hi = ts[min(int(idx) + 1, ts.size - 1)]
        best = max(best, vals[idx], _reference_golden_max(f, lo, hi))
    return best


def reference_transition(path, t_min: float, m: int, rel_tol: float = 1e-10,
                         abs_tol: float = 1e-13):
    """Dense solution of dE/dt = A(t) E on [t_min, 0], E(0) = id, by RK45 on
    E itself, and its RHS count.  Its accuracy is absolute: |E| and s_min(E)
    read off it lose relative accuracy as they fall toward abs_tol."""

    def rhs(tau, z):
        return (-path(-tau) @ z.reshape(m, m)).reshape(-1)

    res = solve_ivp(rhs, (0.0, -t_min), np.eye(m).reshape(-1), method="RK45",
                    rtol=rel_tol, atol=abs_tol, dense_output=True)
    assert res.success, res.message
    return (lambda t: res.sol(-t).reshape(m, m)), res.nfev


def load_recipes():
    """perfbench/recipes.py, the benchmark's problem generators, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "recipes.py"
    spec = importlib.util.spec_from_file_location("ladder_recipes", path)
    recipes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipes)
    return recipes


@pytest.fixture
def rng():
    return np.random.default_rng(20250818)
