"""Seeded input recipes for the three workloads, plus a dense reference operator.

The recipes follow the acceptance suite's criteria 03 (Fredholm problems),
04 (cross-solver flow problems) and 06 (envelope families), but live here so
that edits to the tests cannot change what the benchmark measures.  Every
function takes the imported ``transportkit`` package as ``tk`` because the
benchmark re-imports the package for each set-up repetition.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# jet_ladder: criterion-03 problems on an (n, m, N) ladder

# dim = m * C(n + N, n); includes the (2,2,16), (4,1,8) and (3,2,10) rungs
# of the baseline table (dim 306, 495, 572).
LADDER = ((1, 2, 24), (2, 1, 12), (2, 3, 8), (3, 1, 9), (2, 2, 16),
          (4, 1, 8), (3, 2, 10))
TINY_LADDER = ((1, 2, 6), (2, 1, 4))
LADDER_KINDS = ("nonresonant", "solvable", "obstructed")


def fredholm_problem(tk, rng, n, m, N, kind):
    """Triangular linear data with integer spectrum, plus dense O(0.2) tails.

    kind "nonresonant" puts lambda between integers.  The two resonant kinds
    take lambda = alpha.mu + rho_j with |alpha| = N // 2, alpha on the
    coordinates of smallest mu and rho_j the smallest rho, so every other
    representation has degree <= N // 2 and the resonance degree (the size
    of the head block, which sets the cost of the solve) is the same for
    every seed.  "solvable" replaces v by (L - lambda) u for a random u;
    "obstructed" keeps a random v.
    """
    P = tk.jets.P_dim(n, N)
    mu = rng.integers(1, 3, size=n).astype(float)
    rho = rng.integers(-1, 2, size=m).astype(float)

    comps = []
    for i in range(n):
        c = 0.2 * rng.standard_normal(P)
        c[:1 + n] = 0.0
        for j in range(i, n):  # upper-triangular linear part
            c[1 + j] = mu[i] if j == i else 0.2 * rng.standard_normal()
        comps.append(tk.Jet(n, N, c))
    X = tk.VectorFieldJet(comps)

    A_c = 0.2 * rng.standard_normal((P, m, m))
    A_c[0] = np.triu(0.2 * rng.standard_normal((m, m)), k=1) + np.diag(rho)
    A = tk.Jet(n, N, A_c)
    v = tk.Jet(n, N, rng.standard_normal((P, m)))

    if kind == "nonresonant":
        lam = float(rng.integers(0, 2 * N) + 0.37)
    else:
        degree = N // 2
        slow = np.flatnonzero(mu == mu.min())
        alpha = np.zeros(n, dtype=int)
        np.add.at(alpha, rng.choice(slow, size=degree), 1)
        lam = float(alpha @ mu + rho.min())
        entry = tk.enumerate_resonances(tk.linearization_spectrum(X),
                                        tk.endo_spectrum(A_c[0]), lam)
        if entry is None or entry.max_alpha_degree != degree:
            raise AssertionError(f"resonance degree of lambda = {lam} is not "
                                 f"{degree}")
    p = tk.ProblemData(X, A, v, lam, N)
    if kind == "solvable":
        u = tk.Jet(n, N, rng.standard_normal((P, m)))
        p = p.with_v(tk.apply_operator(p, u) - lam * u)
    return p


def dense_operator(tk, p):
    """Matrix of D_X + A - lambda on P_N tensor V, built by index arithmetic.

    Independent of ``opmatrix.assemble``: it scatters the coefficients of X
    and A through a monomial-sum table instead of applying the operator to
    basis jets.  Only the basis order (graded lex, value index fastest) is
    taken from the package.
    """
    n, N, m = p.n, p.N, p.m
    E = np.array(tk.jets.monomials(n, N), dtype=np.int64).reshape(-1, n)
    P = E.shape[0]
    base = 2 * N + 1  # exponent sums stay below the base: no carries
    weights = base ** np.arange(n, dtype=np.int64)
    codes = E @ weights
    order = np.argsort(codes)
    sorted_codes = codes[order]
    deg = E.sum(axis=1)

    def sum_rank(rows, cols):
        """Rank of E[rows] + E[cols], or -1 when the degree exceeds N."""
        s = codes[rows] + codes[cols]
        ok = deg[rows] + deg[cols] <= N
        pos = np.searchsorted(sorted_codes, s)
        pos = np.minimum(pos, P - 1)
        out = np.where(ok, order[pos], -1)
        if np.any(ok & (sorted_codes[pos] != s)):
            raise AssertionError("monomial-sum table is inconsistent")
        return out

    dim = P * m
    dtype = np.complex128 if p.is_complex else np.float64
    L = np.zeros((dim, dim), dtype=dtype)
    ra, rb = np.meshgrid(np.arange(P), np.arange(P), indexing="ij")
    ra, rb = ra.ravel(), rb.ravel()

    # A: column (alpha, j) gains A_beta[i, j] in row (alpha + beta, i)
    t = sum_rank(ra, rb)
    keep = t >= 0
    ta, tb, tt = ra[keep], rb[keep], t[keep]
    Ac = np.asarray(p.A.coeffs)
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    rows = tt[:, None, None] * m + ii[None]
    cols = ta[:, None, None] * m + jj[None]
    np.add.at(L, (rows.ravel(), cols.ravel()), Ac[tb].ravel())

    # D_X: column (alpha, j) gains alpha_i X^i_beta in row (alpha - e_i + beta, j)
    rank = {tuple(e): r for r, e in enumerate(E.tolist())}
    for i, comp in enumerate(p.X.components):
        src = np.nonzero(E[:, i] > 0)[0]
        lowered = E[src].copy()
        lowered[:, i] -= 1
        low = np.array([rank[tuple(e)] for e in lowered.tolist()], dtype=np.int64)
        s_idx, b_idx = np.meshgrid(np.arange(src.size), np.arange(P), indexing="ij")
        s_idx, b_idx = s_idx.ravel(), b_idx.ravel()
        t = sum_rank(low[s_idx], b_idx)
        keep = t >= 0
        s_idx, b_idx, t = s_idx[keep], b_idx[keep], t[keep]
        vals = E[src[s_idx], i] * np.asarray(comp.coeffs)[b_idx]
        for j in range(m):
            np.add.at(L, (t * m + j, src[s_idx] * m + j), vals)

    L -= p.lam * np.eye(dim)
    return L


def ladder_reference(tk, p, resonant):
    """Expected verdicts: solvable, and the left nullity of L - lambda.

    Resonant problems take criterion 03's verdicts from the dense matrix:
    solvable iff the least-squares residual is below 1e-9 |v|, nullity by
    the relative rank rule of spectral.nullspace.  A non-resonant lambda is
    no eigenvalue, so L - lambda is invertible: solvable, nullity 0.  The
    dense rank rule cannot say so at the high rungs, where sigma_min /
    sigma_max of the dense matrix falls to 1e-14 although every eigenvalue
    is at least 0.37 away from lambda.
    """
    L = dense_operator(tk, p)
    v = np.asarray(p.v.coeffs).reshape(-1)
    ref = {"L": L, "v": v, "L_norm": float(np.linalg.norm(L)),
           "solvable": True, "nullity": 0}
    if resonant:
        x, _, _, s = np.linalg.lstsq(L, v, rcond=None)
        resid = float(np.linalg.norm(L @ x - v))
        ref["solvable"] = resid <= 1e-9 * float(np.linalg.norm(v))
        ref["nullity"] = int(L.shape[1]
                             - np.sum(s > tk.spectral.RANK_RTOL * s[0]))
    return ref


# ---------------------------------------------------------------------------
# grid_sweep: criterion-04 problems, written as solve-grid documents

GRID_CONFIG = {"rel_tol": 1e-8, "abs_tol": 1e-11, "tail_tol": 1e-8}


# (n, m, indefinite A(0), stratum) of each solve-grid document.  The
# criterion draws n and m at random; here each (n, m) in {1, 2}^2 appears in
# direct and in split mode, once per stratum.  The uniform draws that set the
# decay rates (mu, rho) and the point radii are stratified (k + U) / K, so
# their distribution is the criterion's while the cost mix of a pass barely
# depends on the seed: the integration horizon, and with it the work per
# point, follows the decay rates.
GRID_STRATA = 3
GRID_DOCS = tuple((n, m, indefinite, k) for k in range(GRID_STRATA)
                  for indefinite in (False, True)
                  for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)))
TINY_GRID_DOCS = ((1, 1, False, 0), (1, 1, True, 0))


def _stratified(rng, k, K, size=None):
    return (k + rng.uniform(0.0, 1.0, size=size)) / K


def flow_problem(tk, rng, n, m, indefinite, k=0, K=1):
    """N = 10, lambda = 0, non-resonant by construction; stratum k of K.

    A(0) = diag(rho) with rho > 0 (direct mode), or with rho_0 < 0 when
    indefinite (split mode).
    """
    P_dim = tk.jets.P_dim
    N = 10
    mu = 1.0 + _stratified(rng, k, K, size=n)
    if indefinite:
        rho = np.array([(-(0.4 + 0.4 * _stratified(rng, k, K)) if i == 0
                         else 0.6 + 0.6 * _stratified(rng, k, K))
                        for i in range(m)])
    else:
        rho = 0.5 + _stratified(rng, k, K, size=m)

    comps = []
    for i in range(n):
        c = np.zeros(P_dim(n, N))
        c[1 + i] = mu[i]
        for r, alpha in enumerate(tk.jets.monomials(n, N)):
            if sum(alpha) == 2:
                c[r] = 0.1 * rng.standard_normal()
        comps.append(tk.Jet(n, N, c))
    X = tk.VectorFieldJet(comps)

    A_c = np.zeros((P_dim(n, N), m, m))
    A_c[0] = np.diag(rho)
    A_c[1:1 + n] = 0.1 * rng.standard_normal((n, m, m))
    A = tk.Jet(n, N, A_c)

    v_c = np.zeros((P_dim(n, N), m))
    v_c[:P_dim(n, 3)] = rng.standard_normal((P_dim(n, 3), m))
    v = tk.Jet(n, N, v_c)
    return tk.ProblemData(X, A, v, 0.0, N)


def ball_points(rng, n, count):
    """Points at radius in [0.02, 0.2] around the source, radii stratified."""
    out = []
    for j in range(count):
        y = rng.standard_normal(n)
        y *= (0.02 + 0.18 * _stratified(rng, j, count)) / np.linalg.norm(y)
        out.append(y)
    return out


def grid_document(tk, p, points):
    to_json = tk.jets.jet_to_json
    return {
        "schema_version": 1,
        "field": "real",
        "problem": {
            "n": p.n, "m": p.m, "N": p.N, "lambda": float(p.lam),
            "X": [to_json(c) for c in p.X.components],
            "A": to_json(p.A),
            "v": to_json(p.v),
        },
        "grid": {"points": [[float(c) for c in y] for y in points],
                 "config": dict(GRID_CONFIG)},
    }


# ---------------------------------------------------------------------------
# envelope_check: criterion-06 families, written as verify-estimates documents

ENVELOPE_T_MIN = -10.0
ENVELOPE_SAMPLES = 61


def estimate_family(tk, rng, m, k=0, K=1):
    """A0 with a small eigenvalue spread, eps, t0 and B inside the margin.

    The path is A0 + exp(t) B, with |B| at 0.8 of the smaller of the direct
    and inverse hypothesis margins (scaled by exp(-t0)).  Family k of K
    draws the spread target from stratum k and eps from stratum 5k mod K
    (a permutation when K is prime to 5), so the two are not paired.  Both
    set the window and the norms compute_M works over, and so the cost of
    a document.
    """
    base = rng.standard_normal((m, m))
    re = np.real(np.linalg.eigvals(base))
    spread = float(np.max(re) - np.min(re))
    # s_min(E(t)) / s_max(E(t)) decays like exp(spread * t); a small spread
    # keeps the inverse floor above double-precision noise at t = -10.
    target = 0.6 + 0.4 * _stratified(rng, k, K)
    if spread > target:
        base *= target / spread
    lam_min = float(np.min(np.real(np.linalg.eigvals(base))))
    A0 = base + (0.5 + rng.random() - lam_min) * np.eye(m)
    eps = 0.2 + 0.2 * _stratified(rng, (k * 5) % K, K)
    t0 = -float(rng.uniform(0.5, 2.0))
    margin_dir = (eps / 2.0) / tk.compute_M(A0, eps / 2.0)
    margin_inv = (eps / 2.0) / tk.compute_M(-A0.T, eps / 2.0)
    B = rng.standard_normal((m, m))
    B *= 0.8 * min(margin_dir, margin_inv) * math.exp(-t0) / np.linalg.norm(B, 2)
    return A0, B, eps, t0


def envelope_document(A0, B, eps, t0, mode):
    return {
        "schema_version": 1,
        "estimates": {
            "A0": A0.tolist(), "eps": eps, "t0": t0, "mode": mode,
            "path": {"rate": 1.0, "B": B.tolist(), "t_min": ENVELOPE_T_MIN,
                     "samples": ENVELOPE_SAMPLES},
        },
    }
