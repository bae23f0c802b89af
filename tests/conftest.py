"""Shared brute-force oracles used to check jet arithmetic independently.

These work on plain dictionaries {multi-index tuple: coefficient} with no
truncation cleverness, so they stay independent of the code under test.
The kernel references below instead decide rank on the whole assembled
matrix, the path that the head-block SVD of spectral replaced.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from transportkit.opmatrix import assemble
from transportkit.spectral import RANK_RTOL, RESONANCE_TOL, resonance_degree


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


def _full_matrix(p, tol):
    """L - lambda on P_N' tensor V, N' = max(N, resonance degree), and the degree."""
    _, n_star = resonance_degree(p, tol)
    q = p.at_order(max(p.N, n_star))
    M = assemble(q)
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


@pytest.fixture
def rng():
    return np.random.default_rng(20250818)
