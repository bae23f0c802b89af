"""Point evaluation of decaying solutions along the backward flow.

For fields sampled as callables, the solution of (D_X + A - lambda) u = v
at a point y is the integral of E(s, y)^{-1} v(Phi_s(y)) over s in
(-inf, 0], where Phi is the flow of X and the transition frame E solves
dE/dt = -A(Phi_t(y)) E, E(0) = id (lambda absorbed into A beforehand).
The joint state (position, inverse frame, accumulated integral) is one
ODE system, integrated forward in reversed time tau = -t with the
adaptive explicit Runge-Kutta 8(5,3) pair DOP853 of Hairer, Norsett and
Wanner (Solving Ordinary Differential Equations I, ch. II).  The state
is stored as [y | rows of (Finv | I)]: the (m, m+1) block W = [Finv | I]
has derivative Finv [-A | v], so with the samplers' values stored as
[-X | rows of (-A | v)] one RHS call is one sample and one matrix product.
The evaluator steps scipy's DOP853 solver directly and reads the
integrand's decay at its accepted steps; integrate_flow, which returns a
dense trajectory, goes through solve_ivp.

When A(p) - lambda has an eigenvalue with nonpositive real part the raw
integral diverges; the solution splits into a polynomial head (from the
order-by-order solver) plus a flat remainder whose integral does decay.
That head is prepared once per problem and shared by all its points.

Everything here is real arithmetic.  Complex eigenvalue shifts are the
jet solver's territory; they are rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import (
    FlowIntegrationError,
    QuantityUnderflowError,
    RegionExitError,
    ResonantProblemError,
    TailDecayError,
    TransportKitError,
    ValidationError,
)
from .jets import Jet, P_dim, _monomial_vector, degree_starts
from .opmatrix import ProblemData
from .spectral import linearization_spectrum, resonance_degree
from .taylor import MAX_ORDER, residual, solve_to_order

__all__ = [
    "EvalConfig",
    "EvaluationResult",
    "FieldSampler",
    "FlowState",
    "FlowTrajectory",
    "integrate_flow",
    "evaluate_solution",
    "empirical_decay_rate",
]

_METHOD = "DOP853"  # the scipy integrator of every flow segment
_FRAME_OVERFLOW = 1e100
_UNDERFLOW = 1e-250
# solve_ivp raises a smaller rtol to this floor, with a warning
_MIN_REL_TOL = 100 * np.finfo(float).eps
# empirical_decay_rate fits quantities spanning many decades, which needs
# relative accuracy: an essentially zero absolute tolerance leaves the
# error control purely relative
_DECAY_ABS_TOL = 1e-280


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances and policy knobs for evaluate_solution."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    tail_tol: float = 1e-12
    max_horizon: float = 200.0
    split_order: int | None = None  # None picks the smallest decaying order
    chunk: float = 10.0  # horizon extension between tail checks
    t_min: float = 2.0  # smallest |t| at which the tail may stop

    def __post_init__(self):
        for name in ("rel_tol", "tail_tol", "max_horizon", "chunk"):
            if not getattr(self, name) > 0:
                raise ValidationError(
                    f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("abs_tol", "t_min"):
            if not getattr(self, name) >= 0:
                raise ValidationError(
                    f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if self.rel_tol < _MIN_REL_TOL:
            raise ValidationError(f"rel_tol must be at least {_MIN_REL_TOL:.3g} "
                                  f"(100 machine epsilons), got {self.rel_tol!r}")


@dataclass(frozen=True)
class FieldSampler:
    """Pointwise samplers for X, A, v around a declared source point.

    The callables take a length-n point and return arrays of shape (n,),
    (m, m) and (m,).  They must be pure.
    radius bounds the trusted ball around the source; trajectories are
    stopped with RegionExitError when they leave it.  consistent_jets,
    when given, is cross-checked at construction: X_eval minus the jet
    polynomial of X must have zero central differences at the source, to
    1e-4.  from_problem attaches its p after construction, since its
    samplers are p's own polynomials.

    Samplers made by from_problem are one polynomial map
    y -> [-X | rows of (-A | v)], the layout of the flow RHS (see the
    module docstring): the flow evaluates it as one monomial vector times
    one coefficient matrix per point, and X_eval, A_eval, v_eval are read
    off that joint value.  dataclasses.replace drops the joint map, so a
    replaced sampler is a plain callable sampler: it is sampled through
    its three callables, and its split-mode remainder is evaluated
    pointwise from them.
    """

    X_eval: object
    A_eval: object
    v_eval: object
    source: np.ndarray
    radius: float = math.inf
    consistent_jets: ProblemData | None = None
    # -X components and the rows of (-A | v) as one jet, values of length
    # n + m*(m+1)
    _joint: Jet | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        source = np.atleast_1d(np.asarray(self.source, dtype=float))
        object.__setattr__(self, "source", source)
        x0 = np.asarray(self.X_eval(source), dtype=float)
        A0 = np.asarray(self.A_eval(source), dtype=float)
        v0 = np.asarray(self.v_eval(source), dtype=float)
        n = source.shape[0]
        if x0.shape != (n,):
            raise ValidationError(f"X_eval must return shape ({n},), got {x0.shape}")
        if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise ValidationError(f"A_eval must return a square matrix, got {A0.shape}")
        m = A0.shape[0]
        if v0.shape != (m,):
            raise ValidationError(f"v_eval must return shape ({m},), got {v0.shape}")
        if not self.radius > 0:
            raise ValidationError("radius must be positive")
        scale = 1.0 + float(np.linalg.norm(source))
        if np.linalg.norm(x0) > 1e-8 * scale:
            raise ValidationError(
                f"X does not vanish at the declared source: |X(p)| = "
                f"{np.linalg.norm(x0):.3e}")
        object.__setattr__(self, "_shape", (n, m))
        jets = self.consistent_jets
        if jets is not None:
            if jets.is_complex:
                raise ValidationError("flow sampling is real arithmetic; "
                                      "complex jet data is not supported here")
            if (jets.n, jets.m) != (n, m):
                raise ValidationError(
                    f"consistent_jets has (n, m) = {(jets.n, jets.m)}, "
                    f"samplers have {(n, m)}")
            # central differences of X_eval minus the jet polynomial: the
            # jet's own higher-order terms cancel, only a mismatch is left
            def off(y):
                return np.asarray(self.X_eval(source + y)) - jets.X.evaluate(y)
            dev = max(np.max(np.abs(off(h) - off(-h)))
                      for h in 1e-6 * np.eye(n)) / 2e-6
            if dev > 1e-4:
                raise ValidationError(
                    "finite-difference linearization of X_eval disagrees with "
                    f"the declared jets (max deviation {dev:.3e})")

    @property
    def n(self) -> int:
        return self._shape[0]

    @property
    def m(self) -> int:
        return self._shape[1]

    def _sample(self, y: np.ndarray) -> np.ndarray:
        """-X(y) and the rows of (-A(y) | v(y)) as one vector of length n + m*(m+1)."""
        if self._joint is not None:
            return _joint_at(self._joint, y)
        A = np.asarray(self.A_eval(y), dtype=float)
        v = np.asarray(self.v_eval(y), dtype=float)
        return np.concatenate([-np.asarray(self.X_eval(y), dtype=float),
                               np.hstack([-A, v[:, None]]).reshape(-1)])

    def linearization(self, step: float = 1e-6) -> np.ndarray:
        """Jacobian of X_eval at the source by central differences."""
        n = self.n
        J = np.zeros((n, n))
        for j in range(n):
            h = np.zeros(n)
            h[j] = step
            J[:, j] = (np.asarray(self.X_eval(self.source + h))
                       - np.asarray(self.X_eval(self.source - h))) / (2 * step)
        return J

    @classmethod
    def from_problem(cls, p: ProblemData, radius: float = math.inf) -> "FieldSampler":
        """Samplers that evaluate the jet polynomials exactly (source at the origin)."""
        if p.is_complex:
            raise ValidationError("flow sampling is real arithmetic; use the "
                                  "jet solver for complex problems")
        rows = P_dim(p.n, p.N)
        block = np.concatenate([-p.A.coeffs, p.v.coeffs[:, :, None]], axis=2)
        joint = Jet(p.n, p.N, np.hstack([-p.X.coeffs, block.reshape(rows, -1)]))
        f = cls._fused(joint, p.m, radius)
        object.__setattr__(f, "consistent_jets", p)
        return f

    @classmethod
    def _fused(cls, joint: Jet, m: int, radius: float) -> "FieldSampler":
        """Sampler of the joint polynomial [-X | rows of (-A | v)], source at the origin."""
        n = joint.n
        a_cols, v_cols = _block_columns(n, m)
        f = cls(X_eval=lambda y: -_joint_at(joint, y)[:n],
                A_eval=lambda y: -_joint_at(joint, y)[a_cols],
                v_eval=lambda y: _joint_at(joint, y)[v_cols],
                source=np.zeros(n), radius=radius)
        object.__setattr__(f, "_joint", joint)
        return f


def _joint_at(joint: Jet, y) -> np.ndarray:
    """One monomial vector times the coefficients."""
    return _monomial_vector(np.asarray(y, dtype=float), joint.N) @ joint.coeffs


def _block_columns(n: int, m: int):
    """Positions of -A, shape (m, m), and of v, shape (m,), in a sampled vector."""
    cols = n + np.arange(m * (m + 1)).reshape(m, m + 1)
    return cols[:, :m], cols[:, m]


def _frame_block(z: np.ndarray, n: int, m: int) -> np.ndarray:
    """The block [Finv | I], shape (m, m+1), of a joint state."""
    return z[n:].reshape(m, m + 1)


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the joint backward-flow state at a time t <= 0.

    y_t = Phi_t(y), Finv = E(t, y)^{-1}, and I accumulates
    the integral of E(s, y)^{-1} v(Phi_s(y)) over s in [t, 0].
    """

    t: float
    y_t: np.ndarray
    Finv: np.ndarray
    I: np.ndarray


class FlowTrajectory:
    """Dense-output trajectory of (y_t, Finv, I) on [t_end, 0]."""

    def __init__(self, sampler: FieldSampler, dense, t_end: float):
        self._sampler = sampler
        self._dense = dense
        self.t_end = t_end
        self.n = sampler.n
        self.m = sampler.m

    def at(self, t: float) -> FlowState:
        if not self.t_end <= t <= 0.0:
            raise ValidationError(
                f"time {t} outside the integrated window [{self.t_end}, 0]")
        z = self._dense(-t)
        W = _frame_block(z, self.n, self.m)
        return FlowState(t=float(t), y_t=z[:self.n], Finv=W[:, :-1],
                         I=W[:, -1])


def _pack(y: np.ndarray, Finv: np.ndarray, I: np.ndarray) -> np.ndarray:
    """The joint state [y | rows of (Finv | I)]."""
    return np.concatenate([y, np.hstack([Finv, I[:, None]]).reshape(-1)])


def _reversed_rhs(f: FieldSampler):
    """RHS of the time-reversed joint system in tau = -t >= 0.

    d/dtau (y, [Finv | I]) = (-X, Finv [-A | v]): one sample and one
    (m, m) @ (m, m+1) product.  A fused sampler is one monomial vector
    and one coefficient matmul.
    """
    n, m = f.n, f.m

    def rhs(_tau, z):
        s = f._sample(z[:n])
        Finv = z[n:].reshape(m, m + 1)[:, :m]
        dW = Finv @ s[n:].reshape(m, m + 1)
        return np.concatenate([s[:n], dW.ravel()])

    return rhs


def integrate_flow(f: FieldSampler, y, t_end: float, *,
                   rel_tol: float = 1e-9,
                   abs_tol: float = 1e-12,
                   first_step: float | None = None) -> FlowTrajectory:
    """Integrate the joint (y_t, Finv, I) system from 0 back to t_end <= 0.

    Region exit and frame overflow are solve_ivp events, so a
    RegionExitError reports the root-found crossing of the region's boundary.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (f.n,):
        raise ValidationError(f"point must have shape ({f.n},), got {y.shape}")
    if t_end > 0:
        raise ValidationError("t_end must be nonpositive")
    if np.linalg.norm(y - f.source) > f.radius:
        raise ValidationError("evaluation point outside the declared region")
    z0 = _pack(y, np.eye(f.m), np.zeros(f.m))
    if t_end == 0.0:
        return FlowTrajectory(f, lambda _tau: z0.copy(), 0.0)
    n, m = f.n, f.m

    def exit_event(_tau, z):  # constant +inf for an unbounded region
        return f.radius - float(np.linalg.norm(z[:n] - f.source))

    def overflow_event(_tau, z):
        Finv = _frame_block(z, n, m)[:, :m]
        return _FRAME_OVERFLOW - float(np.linalg.norm(Finv))

    exit_event.terminal = overflow_event.terminal = True
    res = solve_ivp(_reversed_rhs(f), (0.0, -t_end), z0, method=_METHOD,
                    rtol=rel_tol, atol=abs_tol, dense_output=True,
                    first_step=first_step, events=[exit_event, overflow_event])
    if res.status == -1:
        raise FlowIntegrationError(f"integrator failed: {res.message}")
    (t_exit, t_overflow), (z_exit, _) = res.t_events, res.y_events
    if len(t_exit):
        raise _region_exit(f, -float(t_exit[0]), z_exit[0][:n])
    if len(t_overflow):
        raise _frame_overflow(-float(t_overflow[0]))
    return FlowTrajectory(f, res.sol, t_end)


def _region_exit(f: FieldSampler, t: float, point) -> RegionExitError:
    return RegionExitError("trajectory left the declared region of radius "
                           f"{f.radius:g} at t = {t:.6g}", point=point, t=t)


def _frame_overflow(t: float) -> FlowIntegrationError:
    return FlowIntegrationError(
        f"inverse frame norm exceeded {_FRAME_OVERFLOW:.0e} at "
        f"t = {t:.6g}; the integral cannot converge")


@dataclass(frozen=True)
class EvaluationResult:
    """u(y) with convergence diagnostics of the tail integration.

    tail_estimate is g(horizon) / rate, with g the integrand norm at the
    horizon: the size of the neglected tail if the fitted exponential
    decay holds beyond it.  It is an estimate, not an error bound; below
    the integrator's abs_tol it is integrator noise.
    """

    u: np.ndarray
    tail_estimate: float
    horizon: float  # most negative time actually integrated
    rate: float  # fitted decay rate of the integrand (in t, positive = decaying)
    mode: str  # "direct" or "split"
    split_order: int | None
    nfev: int  # RHS evaluations, summed over the integration chunks
    n_steps: int  # accepted integrator steps, summed over the chunks
    n_chunks: int  # integration chunks, one DOP853 solver each
    method: str = _METHOD  # the scipy integrator


def _fit_rate(ts: np.ndarray, gs: np.ndarray) -> float:
    """Least-squares slope of log g against t."""
    logs = np.log(np.maximum(gs, _UNDERFLOW * 1e-40))
    slope = np.polyfit(ts, logs, 1)[0]
    return float(slope)


def _tail_integrate(f: FieldSampler, y: np.ndarray, cfg: EvalConfig):
    """Integrate until the integrand decays below tail_tol, in chunks.

    Returns a direct-mode EvaluationResult whose u is the integral.  Each
    chunk is one DOP853 solver, stepped directly.  Every accepted step end
    is checked for region exit and frame overflow and kept as a tail
    sample, with the integrand norm g(t) = |Finv v(y_t)| read off the RHS
    DOP853 evaluated there (first same as last): the I column of
    Finv [-A | v].  g is fitted against t over the trailing window; the
    stop requires both g <= tail_tol and a positive fitted rate.
    """
    n, m = f.n, f.m
    rhs = _reversed_rhs(f)
    z = _pack(np.asarray(y, dtype=float), np.eye(m), np.zeros(m))
    tau = 0.0
    window_ts = np.empty(0)
    window_gs = np.empty(0)
    counts = {"nfev": 0, "n_steps": 0, "n_chunks": 0}

    def result(tail, rate):
        return EvaluationResult(u=_frame_block(z, n, m)[:, m],
                                tail_estimate=tail, horizon=-tau, rate=rate,
                                mode="direct", split_order=None, **counts)

    while True:
        solver = DOP853(rhs, tau, z, min(tau + cfg.chunk, cfg.max_horizon),
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        taus, gs = [], []
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise FlowIntegrationError(f"integrator failed: {message}")
            tau, z = solver.t, solver.y
            if np.linalg.norm(z[:n] - f.source) > f.radius:
                raise _region_exit(f, -tau, z[:n])
            if np.linalg.norm(_frame_block(z, n, m)[:, :m]) > _FRAME_OVERFLOW:
                raise _frame_overflow(-tau)
            taus.append(tau)
            gs.append(np.linalg.norm(solver.f[n + m::m + 1]))
        counts["nfev"] += solver.nfev
        counts["n_steps"] += len(taus)
        counts["n_chunks"] += 1
        window_ts = np.concatenate([window_ts, -np.array(taus)])
        window_gs = np.concatenate([window_gs, gs])
        keep = window_ts <= -tau + 2.5 * cfg.chunk
        window_ts, window_gs = window_ts[keep], window_gs[keep]

        g_last = window_gs[-1]
        if g_last <= _UNDERFLOW:
            return result(0.0, math.inf)
        rate = _fit_rate(window_ts, window_gs)
        if tau >= cfg.t_min and g_last <= cfg.tail_tol and rate > 0:
            return result(g_last / rate, rate)
        if tau >= cfg.max_horizon:
            if rate <= 0:
                raise TailDecayError(
                    "integrand shows no decay within the horizon "
                    f"(fitted rate {rate:.3e} at t = {-tau:.1f})")
            return result(g_last / rate, rate)


def _shifted(f: FieldSampler, lam: float) -> FieldSampler:
    """Absorb the eigenvalue: A <- A - lam id."""
    if lam == 0.0:
        return f
    n, m = f.n, f.m
    if f._joint is not None:
        coeffs = np.array(f._joint.coeffs)
        coeffs[0, np.diag(_block_columns(n, m)[0])] += lam  # the block holds -A
        return FieldSampler._fused(Jet(n, f._joint.N, coeffs), m, f.radius)
    A_orig = f.A_eval
    return replace(f, A_eval=lambda q: np.asarray(A_orig(q), dtype=float)
                   - lam * np.eye(m), consistent_jets=None)


def evaluate_solution(f: FieldSampler, p: ProblemData | None, y,
                      cfg: EvalConfig = EvalConfig()) -> EvaluationResult:
    """u(y) for (D_X + A) u = lambda u + v via the backward-flow integral.

    When every eigenvalue of A(p) - lambda has positive real part the
    integral converges as it stands (direct mode).  Otherwise the
    polynomial head of the solution is split off at an order high enough
    that the remainder decays (split mode); that head comes from the jet
    solver, so p (or f.consistent_jets) must carry jet data.  Resonant
    lambda has no canonical decaying solution and is rejected.
    """
    return _plan(f, p, cfg)(y)


def _plan(f: FieldSampler, p: ProblemData | None, cfg: EvalConfig):
    """evaluate_solution with its per-problem work done once: y -> result.

    An error of that work is raised at every point, after the point's own
    checks, so each point reports what evaluate_solution would.
    """
    if p is None:
        p = f.consistent_jets
    if p is None:
        raise ValidationError("evaluate_solution needs problem jets: pass p "
                              "or build the sampler with consistent_jets")
    if p.is_complex or abs(complex(p.lam).imag) > 0:
        raise ValidationError("flow evaluation is real arithmetic; complex "
                              "problems are only supported by the jet solver")
    error = None
    try:
        g, head, N = _prepare(f, p, float(np.real(p.lam)), cfg)
    except TransportKitError as exc:
        error = exc

    def evaluate(y) -> EvaluationResult:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (f.n,):
            raise ValidationError(
                f"point must have shape ({f.n},), got {y.shape}")
        if np.linalg.norm(y - f.source) > f.radius:
            raise ValidationError("evaluation point outside the declared region")
        if error is not None:  # raised afresh, so tracebacks do not pile up
            raise error.with_traceback(None)
        res = _tail_integrate(g, y, cfg)
        if head is None:
            return res
        u = np.asarray(head.evaluate(y), dtype=float) + res.u
        return replace(res, u=u, mode="split", split_order=N)

    return evaluate


def _prepare(f: FieldSampler, p: ProblemData, lam: float, cfg: EvalConfig):
    """(sampler to integrate, polynomial head or None, split order or None)."""
    if resonance_degree(p)[0] is not None:
        raise ResonantProblemError(
            f"lambda = {lam:g} is resonant; the decaying solution is not "
            "unique, use the order-by-order solver's family instead")

    A_p = np.asarray(f.A_eval(f.source), dtype=float) - lam * np.eye(f.m)
    mu_star = float(np.min(np.linalg.eigvals(A_p).real))
    nu = float(np.min(linearization_spectrum(p.X).real))

    if mu_star > 1e-12:
        return _shifted(f, lam), None, None

    # split mode: peel off the polynomial head to order N
    if cfg.split_order is not None:
        N = int(cfg.split_order)
        if N < 1:
            raise ValidationError("split_order must be at least 1")
        if mu_star + N * nu <= 0:
            raise ValidationError(
                f"split_order {N} cannot decay: min Re spec(A(p) - lam) + "
                f"N nu = {mu_star + N * nu:.3e} <= 0")
    else:
        N = max(1, math.floor((0.05 * nu - mu_star) / nu) + 1)
    if N > MAX_ORDER:
        raise ValidationError(
            f"splitting needs head order {N}, beyond the solver cap")
    if f._joint is None and p.N < N:
        raise ValidationError(
            f"jet data of order {p.N} cannot support a split at order {N}; "
            "supply deeper jets or polynomial samplers")

    sol = solve_to_order(p, N)
    if not sol.solvable:
        raise ResonantProblemError(
            "head solve is obstructed; no decaying solution exists")
    return (_remainder_sampler(f, p, lam, sol.particular, N),
            sol.particular, N)


def _remainder_jet(p: ProblemData, u_head: Jet, N: int) -> Jet:
    """v - (D_X + A - lam) u_head as a jet of order p.N + N, head degrees zeroed.

    When the fields are exactly the jet polynomials the remainder is a
    polynomial too.  Computing it once in the jet algebra at the full
    product order and zeroing the head degrees (pure solver round-off
    there) avoids the cancellation noise a pointwise difference of O(1)
    terms would leave; that noise would stop decaying along the trajectory
    and stall the tail criterion.
    """
    D = p.N + N
    r_jet = -residual(p.at_order(D), u_head.extend(D))
    coeffs = np.array(r_jet.coeffs)
    coeffs[:degree_starts(p.n, D)[N + 1]] = 0.0
    return Jet(p.n, D, coeffs)


def _remainder_sampler(f: FieldSampler, p: ProblemData, lam: float,
                       u_head: Jet, N: int) -> FieldSampler:
    """Sampler of X, A - lam and the flat remainder that replaces v."""
    shifted = _shifted(f, lam)
    if shifted._joint is not None:
        # swap the v block for the remainder jet; X and A are zero-extended
        r_poly = _remainder_jet(p, u_head, N)
        D = max(r_poly.N, shifted._joint.N)
        coeffs = np.array(shifted._joint.extend(D).coeffs)
        coeffs[:, _block_columns(f.n, f.m)[1]] = r_poly.extend(D).coeffs
        return FieldSampler._fused(Jet(f.n, D, coeffs), f.m, f.radius)
    grads = [u_head.partial(i) for i in range(f.n)]
    A_orig, v_orig, X_orig = f.A_eval, f.v_eval, f.X_eval
    m = f.m

    def v_remainder(q):
        Xq = np.asarray(X_orig(q), dtype=float)
        Aq = np.asarray(A_orig(q), dtype=float) - lam * np.eye(m)
        uq = np.asarray(u_head.evaluate(q), dtype=float)
        du = sum(Xq[i] * np.asarray(g.evaluate(q), dtype=float)
                 for i, g in enumerate(grads))
        return np.asarray(v_orig(q), dtype=float) - du - Aq @ uq

    return replace(shifted, v_eval=v_remainder, consistent_jets=None)


def empirical_decay_rate(f: FieldSampler, y, quantity="flow", *,
                         horizon: float = 30.0) -> float:
    """Fitted exponential rate of a quantity along the backward flow.

    quantity is "flow" (distance of y_t to the source), "transition"
    (spectral norm of Finv), or a callable FlowState -> float.  The rate
    is the least-squares slope of its log against t over the last 30% of
    the horizon, so a positive value means decay as t goes to -inf.
    """
    if quantity == "flow":
        qfun = lambda st: float(np.linalg.norm(st.y_t - f.source))
    elif quantity == "transition":
        qfun = lambda st: float(np.linalg.norm(st.Finv, 2))
    elif callable(quantity):
        qfun = quantity
    else:
        raise ValidationError(
            "quantity must be 'flow', 'transition', or a callable")
    traj = integrate_flow(f, y, -horizon, rel_tol=1e-9, abs_tol=_DECAY_ABS_TOL,
                          first_step=min(1e-3, 0.01 * horizon))
    ts = np.linspace(-horizon, -0.7 * horizon, 60)
    vals = np.array([qfun(traj.at(t)) for t in ts])
    if np.any(vals < _UNDERFLOW):
        raise QuantityUnderflowError(
            "quantity underflowed inside the fitting window; shorten the "
            "horizon")
    return _fit_rate(ts, vals)
