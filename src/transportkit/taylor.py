"""Order-by-order jet solutions of (D_X + A - lambda) u = v.

The operator is block lower triangular by degree, so the solve is one
forward substitution over degrees (the order-by-order solve of a
homological equation), with a dense matrix only where the theory needs
one:

1. Head: for resonant lambda, the block on polynomials of degree <= N*
   (the largest degree appearing in a representation of lambda) is
   singular.  One SVD of it gives the dual kernel that screens
   solvability, the minimum-norm head of the particular solution taken
   when the screen passes (a policy choice, the solution is only unique
   modulo the kernel) and the kernel of the head.  For non-resonant
   lambda there is no head.
2. Degrees: for each degree k above the head (from 0 when lambda is
   non-resonant) the diagonal block D_0 + A(0) - lambda on the
   homogeneous slice is invertible.  It is factored once, and one LU
   solve gives the degree-k coefficients of the particular solution and
   of every kernel extension (v = 0) together, from the degree-k part of
   (D_X + A) applied to their lower-degree coefficients.  The solutions
   on P_N tensor V form the family particular + span(kernel_extensions).

Jet methods only see Taylor data at the base point; a solution that is
flat there (all derivatives zero without vanishing identically) is
invisible to this solver, which is what the flow-integral solver is for.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import IllConditionedWarning, ValidationError
from .jets import Jet, P_dim, degree_starts
from .opmatrix import (ProblemData, _common_field, apply_operator,
                       assemble_slice, jet_to_vec)
from .spectral import (RANK_RTOL, RESONANCE_TOL, _head_split, _screen,
                       resonance_degree)

__all__ = ["JetSolution", "solve_to_order", "residual", "MAX_ORDER"]

MAX_ORDER = 64
_COND_WARN = 1e12


@dataclass(frozen=True)
class JetSolution:
    """Solution family of the projected transport equation.

    particular is None exactly when an obstruction blocks the head solve;
    otherwise the solutions on P_N tensor V form the affine family
    particular + span(kernel_extensions).  obstructions holds the pairing
    of v against each dual kernel functional (empty when lambda is
    non-resonant), condition_report the condition numbers of the solves.
    """

    particular: Jet | None
    kernel_extensions: tuple
    resonance: object
    obstructions: tuple
    condition_report: dict

    @property
    def solvable(self) -> bool:
        return self.particular is not None


def solve_to_order(p: ProblemData, M: int, *,
                   tol: float = RESONANCE_TOL,
                   obstruction_tol: float = 1e-9,
                   max_order: int = MAX_ORDER) -> JetSolution:
    """Solve (D_X + A - lambda) u = v on P_M tensor V.

    M is raised to the largest resonance degree when the request sits
    below it, and capped at max_order.  Jets of lower order than the
    working order are treated as polynomial data.
    """
    if not obstruction_tol >= 0:
        raise ValidationError(
            f"obstruction_tol must be nonnegative, got {obstruction_tol}")
    entry, n_star = resonance_degree(p, tol)
    M = max(M, n_star)
    if M > max_order:
        raise ValidationError(
            f"requested order {M} exceeds the solver cap {max_order}")
    return _solve_family(p.at_order(M), entry, n_star, obstruction_tol,
                         RANK_RTOL)


def _solve_family(q: ProblemData, entry, n_star: int, obstruction_tol: float,
                  rtol: float) -> JetSolution:
    """solve_to_order at the working order q.N >= n_star, rank threshold rtol."""
    n, N, m = q.n, q.N, q.m
    starts = degree_starts(n, N)
    obstructions = ()
    solvable = True
    heads = np.zeros((0, 1))
    if entry is not None:
        kernel, duals, head_solve = _head_split(q, n_star, rtol)
        screen = _screen(duals, q.v, obstruction_tol)
        obstructions, solvable = screen.obstructions, screen.solvable
        heads = kernel if not solvable else np.column_stack(
            [head_solve(jet_to_vec(q.v)[:kernel.shape[0]]), kernel])

    # one column per unknown jet: the particular solution first when the
    # screen passed, then the extension of each head kernel vector (v = 0)
    cols = heads.shape[1]
    dtype = np.complex128 if q.is_complex else np.float64
    u = np.zeros((cols, P_dim(n, N), m), dtype=dtype)
    u[:, :heads.shape[0] // m] = heads.T.reshape(cols, -1, m)
    target = np.zeros_like(u)
    if solvable:
        target[0] = q.v.coeffs

    condition_report = {}
    for k in range(n_star + 1 if entry is not None else 0, N + 1):
        s0, s1 = int(starts[k]), int(starts[k + 1])
        block = assemble_slice(q, k) - q.lam * np.eye((s1 - s0) * m)
        label = f"slice {k}" if k else "head"
        cond = float(np.linalg.cond(block))
        condition_report[label.replace(" ", "_")] = cond
        if cond > _COND_WARN:
            warnings.warn(f"{label} solve condition number {cond:.2e}",
                          IllConditionedWarning, stacklevel=3)
        # degree k of each u_c is still zero, so lambda drops out here
        image = np.stack([apply_operator(q, Jet(n, N, uc)).coeffs[s0:s1]
                          for uc in u])
        rhs = (target[:, s0:s1] - image).reshape(cols, -1).T
        u[:, s0:s1] = lu_solve(lu_factor(block), rhs).T.reshape(cols, -1, m)

    jets = [Jet(n, N, uc) for uc in u]
    return JetSolution(particular=jets.pop(0) if solvable else None,
                       kernel_extensions=tuple(jets),
                       resonance=entry,
                       obstructions=obstructions,
                       condition_report=condition_report)


def residual(p: ProblemData, u: Jet) -> Jet:
    """(D_X + A - lambda) u - v by jet arithmetic at order min(p.N, u.N)."""
    order = min(p.N, u.N)
    q, uu = _common_field(p.at_order(order), u.project(order))
    return apply_operator(q, uu) - q.lam * uu - q.v
