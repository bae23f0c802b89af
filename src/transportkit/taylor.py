"""Order-by-order jet solutions of (D_X + A - lambda) u = v.

The assembled operator is block lower triangular by degree, so the solve
runs as a block forward substitution:

1. Head: on polynomials of degree <= N* (the largest degree appearing in a
   representation of lambda; 0 when lambda is non-resonant) the system is
   solved once as a whole.  For resonant lambda the head matrix is
   singular; solvability is screened through the dual kernel and, when it
   passes, the minimum-norm solution is taken (a policy choice, the
   solution is only unique modulo the kernel).
2. Slices: for each degree k > N* the diagonal block D_0 + A(0) - lambda
   on the homogeneous slice is invertible, and the degree-k coefficients
   follow from the lower-degree ones by a dense LU solve.
3. Kernel extensions: each kernel basis jet of the head extends through
   the same recursion with v = 0, giving the affine solution family
   particular + span(kernel_extensions).

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
from .jets import Jet
from .opmatrix import ProblemData, apply_operator, assemble, jet_to_vec, vec_to_jet
from .spectral import RESONANCE_TOL, dual_kernel_basis, nullspace, resonance_degree

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
    entry, n_star = resonance_degree(p, tol)
    M = max(M, n_star)
    if M > max_order:
        raise ValidationError(
            f"requested order {M} exceeds the solver cap {max_order}")

    q = p.at_order(M)
    op = assemble(q)
    lam = q.lam
    head_dim = int(op.offsets[n_star + 1])
    head = op.entries[:head_dim, :head_dim] - lam * np.eye(head_dim)
    v_vec = jet_to_vec(q.v)
    condition_report = {}

    # factor each diagonal slice block once; the particular solve and all
    # kernel extensions share them
    slice_lu = {}
    for k in range(n_star + 1, M + 1):
        r0, r1 = int(op.offsets[k]), int(op.offsets[k + 1])
        block = op.entries[r0:r1, r0:r1] - lam * np.eye(r1 - r0)
        cond = float(np.linalg.cond(block))
        condition_report[f"slice_{k}"] = cond
        if cond > _COND_WARN:
            warnings.warn(f"slice {k} solve condition number {cond:.2e}",
                          IllConditionedWarning, stacklevel=2)
        slice_lu[k] = lu_factor(block)

    def extend_by_slices(head_vec: np.ndarray, rhs_vec: np.ndarray) -> np.ndarray:
        out = np.zeros(op.dim, dtype=op.entries.dtype)
        out[:head_dim] = head_vec
        for k in range(n_star + 1, M + 1):
            r0, r1 = int(op.offsets[k]), int(op.offsets[k + 1])
            rhs_k = rhs_vec[r0:r1] - op.entries[r0:r1, :r0] @ out[:r0]
            out[r0:r1] = lu_solve(slice_lu[k], rhs_k)
        return out

    obstructions = ()
    particular_head = None
    if entry is not None:
        duals = dual_kernel_basis(q, tol=tol)
        obstructions = tuple(d.pair(q.v) for d in duals)
        scale = max(q.v.norm(), float(np.finfo(float).tiny))
        total = float(np.sqrt(sum(abs(o) ** 2 for o in obstructions)))
        if total <= obstruction_tol * scale:
            particular_head, *_ = np.linalg.lstsq(head, v_vec[:head_dim],
                                                  rcond=None)
    else:
        cond = float(np.linalg.cond(head))
        condition_report["head"] = cond
        if cond > _COND_WARN:
            warnings.warn(f"head solve condition number {cond:.2e}",
                          IllConditionedWarning, stacklevel=2)
        particular_head = np.linalg.solve(head, v_vec[:head_dim])

    particular = None
    if particular_head is not None:
        particular = vec_to_jet(extend_by_slices(particular_head, v_vec),
                                q.n, M, q.m)

    kernel_extensions = []
    if entry is not None:
        head_basis, _ = nullspace(head)
        zero_rhs = np.zeros(op.dim, dtype=op.entries.dtype)
        for k in range(head_basis.shape[1]):
            kernel_extensions.append(
                vec_to_jet(extend_by_slices(head_basis[:, k], zero_rhs),
                           q.n, M, q.m))

    return JetSolution(particular=particular,
                       kernel_extensions=tuple(kernel_extensions),
                       resonance=entry,
                       obstructions=obstructions,
                       condition_report=condition_report)


def residual(p: ProblemData, u: Jet) -> Jet:
    """(D_X + A - lambda) u - v by jet arithmetic at order min(p.N, u.N)."""
    order = min(p.N, u.N)
    q = p.at_order(order)
    uu = u.project(order)
    if uu.is_complex and not q.is_complex:
        q = ProblemData(q.X, q.A.to_complex(), q.v, q.lam, order)
    if q.is_complex and not uu.is_complex:
        uu = uu.to_complex()
    return apply_operator(q, uu) - q.lam * uu - q.v
