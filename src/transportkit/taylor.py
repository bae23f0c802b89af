"""Order-by-order jet solutions of (D_X + A - lambda) u = v.

The operator is block lower triangular by degree, so a solve is one
forward substitution over degrees (the order-by-order solve of a
homological equation) through factors built once per operator from one
sparse matrix L of D_X + A, dense only where the theory needs it; a
solve at a lower order is their projection, stopped at that degree:

1. Head: for resonant lambda, the block of L on polynomials of degree
   <= N* (the largest degree appearing in a representation of lambda) is
   singular.  One SVD of it gives the dual kernel that screens
   solvability, the minimum-norm head of the particular solution taken
   when the screen passes (a policy choice, the solution is only unique
   modulo the kernel) and the kernel of the head.  For non-resonant
   lambda there is no head.
2. Degrees: for each degree k above the head (from 0 when lambda is
   non-resonant) the diagonal block L[k, k] - lambda, the action of
   D_0 + A(0) - lambda on the homogeneous slice, is invertible.  LAPACK
   getrf factors it once, gecon estimates its 1-norm condition number
   from that LU (no SVD; IllConditionedWarning above 1e12), and one getrs
   solve gives the degree-k coefficients of the particular solution and
   of every kernel extension (v = 0) together:
   with the unknowns as the columns of U, the right-hand side is the
   sparse product target[k] - L[k, <k] U[<k], read from L's CSR arrays
   and added in scipy.sparse's order, so bit for bit its value.  The
   solutions on P_N tensor V form the family particular +
   span(kernel_extensions).

residual checks a candidate with the same matrix, through apply_operator.

Jet methods only see Taylor data at the base point; a solution that is
flat there (all derivatives zero without vanishing identically) is
invisible to this solver, which is what the flow-integral solver is for.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (IllConditionedWarning, NumericError, ValidationError,
                     _stacklevel)
from .jets import Jet, degree_starts
from .opmatrix import (ProblemData, _common_field, _row_blocks,
                       _sparse_operator, apply_operator, jet_to_vec, vec_to_jet)
from .spectral import (OBSTRUCTION_TOL, RESONANCE_TOL, _head_split, _screen,
                       resonance_degree)

__all__ = ["JetSolution", "solve_to_order", "residual", "MAX_ORDER"]

MAX_ORDER = 64
_COND_WARN = 1e12


@dataclass(frozen=True)
class JetSolution:
    """Solution family of the projected transport equation.

    particular is None exactly when an obstruction blocks the head solve;
    otherwise the solutions on P_N tensor V form the affine family
    particular + span(kernel_extensions).  obstructions pairs v with each
    dual kernel functional in duals (both empty when lambda is
    non-resonant), condition_report each slice's LAPACK 1-norm condition
    estimate (IllConditionedWarning above 1e12) and working_order the order
    of its jets, M raised to the resonance degree.
    """

    particular: Jet | None
    kernel_extensions: tuple
    resonance: object
    duals: tuple
    obstructions: tuple
    condition_report: dict
    working_order: int

    @property
    def solvable(self) -> bool:
        return self.particular is not None


def solve_to_order(p: ProblemData, M: int, *,
                   tol: float = RESONANCE_TOL,
                   obstruction_tol: float = OBSTRUCTION_TOL) -> JetSolution:
    """Solve (D_X + A - lambda) u = v on P_M tensor V.

    M is raised to the largest resonance degree when the request sits
    below it, and capped at MAX_ORDER.  Jets of lower order than the
    working order are treated as polynomial data.
    """
    if not obstruction_tol >= 0:
        raise ValidationError(
            f"obstruction_tol must be nonnegative, got {obstruction_tol}")
    entry, n_star = resonance_degree(p, tol)
    M = max(M, n_star)
    if M > MAX_ORDER:
        raise ValidationError(
            f"requested order {M} exceeds the solver cap {MAX_ORDER}")
    q = p.at_order(M)
    return _factor(q, entry, n_star, tol)(q.v, obstruction_tol)


def _factor(q: ProblemData, entry, n_star: int, tol: float):
    """Factors of D_X + A - lambda at the order q.N >= n_star, entry found within tol.

    Returns solve(v, obstruction_tol=OBSTRUCTION_TOL), bit for bit
    solve_to_order's JetSolution for v at any order v.N in [n_star, q.N].
    A slice that is not finite or singular, or a right-hand side that is
    not finite, raises NumericError naming its degree, and so does a
    solution that overflows.
    """
    offsets = degree_starts(q.n, q.N) * q.m
    L = _sparse_operator(q)
    head = _head_split(q, L, n_star, tol) if entry is not None else None
    first = n_star + 1 if entry is not None else 0
    names = [f"the degree-{k} slice" for k in range(first, q.N + 1)]
    cut = _row_blocks(L, offsets[first:], q.lam, names)
    slices = [(k, int(offsets[k]), int(offsets[k + 1]), left, *_slice_lu(block, name))
              for k, name, (block, left) in zip(range(first, q.N + 1), names, cut)]
    getrs = get_lapack_funcs("getrs", dtype=L.dtype)

    def solve(v: Jet, obstruction_tol: float = OBSTRUCTION_TOL) -> JetSolution:
        duals = obstructions = ()
        solvable = True
        heads = np.zeros((0, 1))
        if head is not None:
            kernel, duals, head_solve = head
            screen = _screen(duals, v, obstruction_tol)
            obstructions, solvable = screen.obstructions, screen.solvable
            heads = kernel if not solvable else np.column_stack(
                [head_solve(jet_to_vec(v)[:kernel.shape[0]]), kernel])

        # one column per unknown jet: the particular solution first when
        # the screen passed, then the extension of each head kernel vector
        # (v = 0)
        U = np.zeros((int(offsets[v.N + 1]), heads.shape[1]), dtype=L.dtype)
        U[:heads.shape[0]] = heads
        target = np.zeros_like(U)
        if solvable:
            target[:, 0] = jet_to_vec(v)

        condition_report = {}
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            for k, r0, r1, left, lu, piv, cond in slices[:v.N + 1 - first]:
                label = f"slice {k}" if k else "head"
                condition_report[label.replace(" ", "_")] = cond
                if cond > _COND_WARN:
                    warnings.warn(f"{label} solve condition number {cond:.2e}",
                                  IllConditionedWarning, stacklevel=_stacklevel())
                # degree k of U is still zero, so the block and lambda drop out
                rhs = target[r0:r1] - _left_product(left, U, r1 - r0)
                if not np.isfinite(rhs).all():
                    raise NumericError(f"the degree-{k} right-hand side is not finite")
                U[r0:r1] = getrs(lu, piv, rhs, overwrite_b=True)[0]
        if not np.isfinite(U).all():  # the head or the last degree overflows
            raise NumericError(f"the order-{v.N} solution is not finite")

        jets = [vec_to_jet(col, q.n, v.N, q.m) for col in U.T]
        return JetSolution(particular=jets.pop(0) if solvable else None,
                           kernel_extensions=tuple(jets), resonance=entry,
                           duals=duals, obstructions=obstructions,
                           condition_report=condition_report, working_order=v.N)

    return solve


def _slice_lu(block: np.ndarray, name: str):
    """getrf's (lu, piv) of a slice and 1 / rcond, gecon's 1-norm condition
    estimate from them; NumericError naming the slice when a pivot is 0."""
    getrf, gecon, lange = get_lapack_funcs(("getrf", "gecon", "lange"), (block,))
    lu, piv, info = getrf(block)
    if info > 0:
        raise NumericError(f"{name} is singular: pivot {info} is exactly zero")
    rcond = gecon(lu, lange("1", block))[0]
    return lu, piv, 1 / rcond if rcond > 0 else np.inf


def _left_product(left, U: np.ndarray, h: int) -> np.ndarray:
    """The product of a slice's left entries (row, column, value) with U.

    Each row's terms are added in column order from zero, real and
    imaginary parts apart, as scipy.sparse adds them: bit for bit its
    product of the slice's rows of L with U.
    """
    rows, cols, vals = left
    c = U.shape[1]
    slots = (rows[:, None] * c + np.arange(c)).ravel()
    x, a, b = U[cols], vals.real[:, None], vals.imag[:, None]
    parts = ([a * x.real - b * x.imag, a * x.imag + b * x.real]
             if np.iscomplexobj(U) else [a * x])
    sums = [np.bincount(slots, part.ravel(), minlength=h * c) for part in parts]
    return (np.stack(sums, -1).view(U.dtype) if len(sums) > 1 else sums[0]).reshape(h, c)


def residual(p: ProblemData, u: Jet) -> Jet:
    """(D_X + A - lambda) u - v at order min(p.N, u.N), by apply_operator."""
    order = min(p.N, u.N)
    q, uu = _common_field(p.at_order(order), u.project(order))
    return apply_operator(q, uu) - q.lam * uu - q.v
