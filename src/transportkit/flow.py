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
Every point of a plan call shares X, A and v, so the evaluator integrates
the points as one state of P joint states (method of lines) and steps
scipy's DOP853 solver directly; each point keeps its own stop and error.
integrate_flow, which returns a dense trajectory, goes through solve_ivp.

Every smooth solution satisfies u(y) = I(tau) + Finv(tau) u(y_tau), and
near the source, where y_tau tends, the jet solver's particular solution
u_J is accurate long before the integrand has decayed: u_J closes the
integral there.

When A(p) - lambda has an eigenvalue with nonpositive real part the
integral of v grows and cancels against the closure term, which the
closure estimate cannot see (closed so, resonant problems missed by up to
1.6e5 at estimates below 1e-10).  So the solution splits into a polynomial
head (u_J's degrees up to the split order) plus a flat remainder whose
integral does decay.  The jets decide the split, resonance (the Fredholm
screen of u_J, solved once per problem) and the order J, which for a
callable sampler stays within the jets' order: its values feed only the
integrand.

Everything here is real arithmetic.  Complex eigenvalue shifts are the
jet solver's territory; they are rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import (
    FlowIntegrationError,
    NumericError,
    QuantityUnderflowError,
    RegionExitError,
    ResonantProblemError,
    TailDecayError,
    TransportKitError,
    ValidationError,
)
from .jets import Jet, P_dim, _monomial_vector, degree_starts, fits
from .opmatrix import ProblemData
from .spectral import RESONANCE_TOL, linearization_spectrum
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

_FRAME_OVERFLOW = 1e100
_MAX_HORIZON = 100_000.0  # bounds the steps of a point that never stops
_T_MIN = 2.0  # earliest stop: the flow integrates v itself over [0, 2]
# bound on P_dim(2n, J) m^2, the product table times A's entries, which the
# closure's jet solve grows with; (n, m, J) = (2, 2, 10) is 4,004, a solve
# of about 0.6 ms on a 2-core x86 machine
_CLOSURE_COST = 4096
_UNDERFLOW = 1e-250
# solve_ivp raises a smaller rtol to this floor, with a warning
_MIN_REL_TOL = 100 * np.finfo(float).eps
# empirical_decay_rate fits quantities spanning many decades, which needs
# relative accuracy: an essentially zero absolute tolerance leaves the
# error control purely relative
_DECAY_ABS_TOL = 1e-280


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances for evaluate_solution: all positive, max_horizon >= _T_MIN."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    tail_tol: float = 1e-12
    max_horizon: float = 200.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "tail_tol", "max_horizon"):
            if not getattr(self, name) > 0:
                raise ValidationError(
                    f"{name} must be positive, got {getattr(self, name)!r}")
        if self.max_horizon < _T_MIN:
            raise ValidationError(f"max_horizon must be at least {_T_MIN:g} (the "
                                  f"earliest stop), got {self.max_horizon!r}")
        if self.max_horizon > _MAX_HORIZON:
            raise ValidationError(f"max_horizon must be at most {_MAX_HORIZON:g}, "
                                  f"got {self.max_horizon!r}")
        if self.rel_tol < _MIN_REL_TOL:
            raise ValidationError(f"rel_tol must be at least {_MIN_REL_TOL:.3g} "
                                  f"(100 machine epsilons), got {self.rel_tol!r}")


@dataclass(frozen=True)
class FieldSampler:
    """Samplers of X, A and v around a declared source point, on stacks of points.

    Each callable maps points of shape (P, n) to one value per point, of
    shape (P, n), (P, m, m) and (P, m), and must be pure.  Construction
    calls each on a 2-point stack, so a one-point callable is refused.
    radius bounds the trusted ball around the source; trajectories are
    stopped with RegionExitError when they leave it.  consistent_jets,
    when given, is cross-checked at construction: X_eval minus the jet
    polynomial of X must have zero central differences at the source, to
    1e-4.  from_problem attaches its p after construction, since its
    samplers are p's own polynomials.

    >>> f = FieldSampler(X_eval=lambda ys: ys,  # X = y, A = 1, v = y^2
    ...                  A_eval=lambda ys: np.ones((len(ys), 1, 1)),
    ...                  v_eval=lambda ys: ys ** 2, source=[0.0])
    >>> integrate_flow(f, [0.5], -1.0).at(-1.0).I  # (1 - e^-3) / 12
    array([0.07918441])

    from_problem's callables slice the last axis of one polynomial map
    y -> [-X | rows of (-A | v)], the layout of the flow RHS, so they take a
    point or a stack; the integrand uses that map's coefficients, one
    matmul per RHS call.  dataclasses.replace drops the map, leaving three
    plain callables, each called once per RHS call on all its points.
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
        x0, A0, v0 = (np.asarray(g(np.stack([source, source])), dtype=float)
                      for g in (self.X_eval, self.A_eval, self.v_eval))
        n, m = source.shape[0], A0.shape[-1] if A0.ndim else 1
        for name, value, shape in (("X_eval", x0, (2, n)), ("A_eval", A0, (2, m, m)),
                                   ("v_eval", v0, (2, m))):
            if value.shape != shape:
                raise ValidationError(f"{name} must return shape {shape} on a stack "
                                      f"of 2 points, got {value.shape}")
        if not self.radius > 0:
            raise ValidationError("radius must be positive")
        scale = 1.0 + float(np.linalg.norm(source))
        if np.linalg.norm(x0[0]) > 1e-8 * scale:
            raise ValidationError(
                f"X does not vanish at the declared source: |X(p)| = "
                f"{np.linalg.norm(x0[0]):.3e}")
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
            H = 1e-6 * np.vstack([np.eye(n), -np.eye(n)])
            off = np.asarray(self.X_eval(source + H), dtype=float) - jets.X.evaluate(H)
            dev = np.max(np.abs(off[:n] - off[n:])) / 2e-6
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

    def _sample(self, ys: np.ndarray) -> np.ndarray:
        """[-X(y) | rows of (-A(y) | v(y))] for each row y of ys, one row per point."""
        if self._joint is not None:
            return self._joint.evaluate(ys)
        X, A, v = (np.asarray(g(ys), dtype=float)  # one call per field
                   for g in (self.X_eval, self.A_eval, self.v_eval))
        block = np.concatenate([-A, v[:, :, None]], axis=2)  # rows of (-A | v)
        return np.hstack([-X, block.reshape(len(ys), -1)])

    @classmethod
    def from_problem(cls, p: ProblemData, radius: float = math.inf) -> "FieldSampler":
        """Samplers that evaluate the jet polynomials exactly (source at the origin)."""
        if p.is_complex:
            raise ValidationError("flow sampling is real arithmetic; use the "
                                  "jet solver for complex problems")
        rows = P_dim(p.n, p.N)
        block = np.concatenate([-p.A.coeffs, p.v.coeffs[:, :, None]], axis=2)
        joint = Jet(p.n, p.N, np.hstack([-p.X.coeffs, block.reshape(rows, -1)]))
        n = p.n
        a_cols, v_cols = _block_columns(n, p.m)
        f = cls(X_eval=lambda y: -joint.evaluate(y)[..., :n],
                A_eval=lambda y: -joint.evaluate(y)[..., a_cols],
                v_eval=lambda y: joint.evaluate(y)[..., v_cols],
                source=np.zeros(n), radius=radius)
        object.__setattr__(f, "_joint", joint)
        object.__setattr__(f, "consistent_jets", p)
        return f


def _block_columns(n: int, m: int):
    """Positions of -A, shape (m, m), and of v, shape (m,), in a sampled vector."""
    cols = n + np.arange(m * (m + 1)).reshape(m, m + 1)
    return cols[:, :m], cols[:, m]


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


def _flow_state(t: float, z: np.ndarray, n: int, m: int) -> FlowState:
    """The FlowState of one joint state z = [y | rows of (Finv | I)] at time t."""
    W = z[n:].reshape(m, m + 1)  # [Finv | I]
    return FlowState(t=float(t), y_t=z[:n], Finv=W[:, :-1], I=W[:, -1])


class FlowTrajectory:
    """Dense-output trajectory of (y_t, Finv, I) on [t_end, 0]."""

    def __init__(self, sampler: FieldSampler, dense, t_end: float):
        self._dense = dense
        self.t_end = t_end
        self.n = sampler.n
        self.m = sampler.m

    def at(self, t: float) -> FlowState:
        if not self.t_end <= t <= 0.0:
            raise ValidationError(
                f"time {t} outside the integrated window [{self.t_end}, 0]")
        return _flow_state(t, self._dense(-t), self.n, self.m)


def _reversed_rhs(sample, n: int, m: int):
    """RHS of the time-reversed joint system in tau = -t >= 0, for P points at once.

    The state is P joint states, the rows of a (P, n + m*(m+1)) array,
    flattened.  With sample: rows y -> [-X | rows of (-A | v)] (see
    _integrand), d/dtau (y, [Finv | I]) = (-X, Finv [-A | v]) is one sample
    of the P positions and one batched (P, m, m) @ (P, m, m+1) product.
    """
    width = n + m * (m + 1)

    def rhs(_tau, z):
        z = z.reshape(-1, width)
        s = sample(z[:, :n])
        Finv = z[:, n:].reshape(-1, m, m + 1)[:, :, :m]
        s[:, n:] = (Finv @ s[:, n:].reshape(-1, m, m + 1)).reshape(len(z), -1)
        return s.ravel()

    return rhs


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # checked below
def integrate_flow(f: FieldSampler, y, t_end: float, *,
                   rel_tol: float = 1e-9,
                   abs_tol: float = 1e-12,
                   first_step: float | None = None) -> FlowTrajectory:
    """Integrate the joint (y_t, Finv, I) system from 0 back to t_end <= 0.

    Region exit and frame overflow are solve_ivp events, so a
    RegionExitError reports the root-found crossing of the region's boundary.
    """
    y = _point(f, y)
    if not -math.inf < t_end <= 0:  # a NaN or infinite bound is never reached
        raise ValidationError(f"t_end must be nonpositive and finite, got {t_end!r}")
    z0 = np.concatenate([y, np.eye(f.m, f.m + 1).ravel()])  # Finv = id, I = 0
    if t_end == 0.0:
        return FlowTrajectory(f, lambda _tau: z0.copy(), 0.0)
    n, m = f.n, f.m

    def exit_event(_tau, z):  # constant +inf for an unbounded region
        return f.radius - float(np.linalg.norm(z[:n] - f.source))

    def overflow_event(_tau, z):
        Finv = z[n:].reshape(m, m + 1)[:, :m]
        return _FRAME_OVERFLOW - float(np.linalg.norm(Finv))

    exit_event.terminal = overflow_event.terminal = True
    if not np.isfinite(f._sample(y[None])).all():  # DOP853's first step would be NaN
        raise FlowIntegrationError("integrator failed: the integrand is not finite")
    res = solve_ivp(_reversed_rhs(f._sample, n, m), (0.0, -t_end), z0,
                    method="DOP853", rtol=rel_tol, atol=abs_tol, dense_output=True,
                    first_step=first_step, events=[exit_event, overflow_event])
    if res.status == -1:
        raise FlowIntegrationError(f"integrator failed: {res.message}")
    (t_exit, t_overflow), (z_exit, _) = res.t_events, res.y_events
    if len(t_exit):
        raise _region_exit(f, -float(t_exit[0]), z_exit[0][:n])
    if len(t_overflow):
        raise _frame_overflow(-float(t_overflow[0]))
    return FlowTrajectory(f, res.sol, t_end)


def _point(f: FieldSampler, y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (f.n,):
        raise ValidationError(f"point must have shape ({f.n},), got {y.shape}")
    if math.dist(y, f.source) > f.radius:  # np.linalg.norm would overflow at 1e200
        raise ValidationError("evaluation point outside the declared region")
    return y


def _region_exit(f: FieldSampler, t: float, point) -> RegionExitError:
    return RegionExitError("trajectory left the declared region of radius "
                           f"{f.radius:g} at t = {t:.6g}", point=point, t=t)


def _frame_overflow(t: float) -> FlowIntegrationError:
    return FlowIntegrationError(
        f"inverse frame norm exceeded {_FRAME_OVERFLOW:.0e} at "
        f"t = {t:.6g}; the integral cannot converge")


@dataclass(frozen=True)
class EvaluationResult:
    """u(y) with convergence diagnostics of the tail integration, built by _plan.

    u = [head(y)] + I(tau) + Finv(tau) (u_J - head)(y_tau) at the stop
    tau = -horizon >= 2, and tail_estimate is |Finv(tau)|_F e_J(y_tau)
    there, at most tail_tol: u_J's truncation error carried back to y, an
    estimate, not a bound.
    The points of one evaluation share their solvers, so nfev, n_steps and
    n_chunks count the solvers this point rode in, whatever the number of
    points in them.
    """

    u: np.ndarray
    tail_estimate: float
    horizon: float  # most negative time actually integrated
    mode: str  # "direct" or "split"
    split_order: int | None
    nfev: int  # RHS evaluations, summed over the solvers
    n_steps: int  # accepted integrator steps, summed over the solvers
    n_chunks: int  # integration segments, one DOP853 solver each
    n_points: int = 1  # points in the first solver; 1 for evaluate_solution


# a failed step shows in the solver's status, not as a numpy warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _tail_integrate(f: FieldSampler, sample, closure, ys: np.ndarray,
                    cfg: EvalConfig):
    """Integrate the rows of ys, shape (P, n), until the jet closes each integral.

    Per point it returns a TransportKitError or its end (FlowState at the
    stop t = -tau, closure term Finv (u_J - head)(y_tau), closure estimate,
    counts), with Finv the inverse frame of A - lam and I integrating
    sample's v or remainder.  The points are one DOP853 state stepped
    toward max_horizon; rel_tol is not scaled by 1/sqrt(P) for scipy's RMS
    norm (measured against per-point solvers, no accuracy was lost).  Each
    accepted step end is checked for region exit and frame overflow.  From
    tau = _T_MIN on, a point stops where its closure estimate
    |Finv|_F e_J(y_tau) <= tail_tol (see _closure); a point still open at
    max_horizon ends with TailDecayError naming its estimate.  A point
    that stops or fails (at a step or a start that is not finite) ends its
    solver; the others go on in a new one from that tau.  A failed solver
    names no point, so its points are integrated again one by one.
    """
    n, m = f.n, f.m
    rhs = _reversed_rhs(sample, n, m)
    # the live rows' joint states [y | rows of (Finv | I)], Finv = id, I = 0
    z = np.hstack([ys, np.tile(np.eye(m, m + 1).ravel(), (len(ys), 1))])
    out = [None] * len(z)
    live = np.arange(len(z))
    tau = 0.0
    counts = {"nfev": 0, "n_steps": 0, "n_chunks": 0, "n_points": len(ys)}
    while live.size:
        solver = DOP853(rhs, tau, z.ravel(), cfg.max_horizon,
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        counts["n_chunks"] += 1
        failed, stops = {}, []  # failed: position in live -> error
        # a NaN first step would never end
        for k in np.flatnonzero(~np.isfinite(solver.f.reshape(live.size, -1)).all(1)):
            failed[k] = FlowIntegrationError(
                "integrator failed: the integrand is not finite")
        while solver.status == "running" and not (failed or len(stops)):
            message = solver.step()
            if solver.status == "failed":
                if live.size > 1:
                    for j in live:
                        out[j] = _tail_integrate(f, sample, closure, ys[j:j + 1], cfg)[0]
                    return out
                failed[0] = FlowIntegrationError(f"integrator failed: {message}")
                break
            tau, z = solver.t, solver.y.reshape(live.size, -1)
            counts["n_steps"] += 1
            exits = np.linalg.norm(z[:, :n] - f.source, axis=1) > f.radius
            frames = np.linalg.norm(z[:, n:].reshape(-1, m, m + 1)[:, :, :m],
                                    axis=(1, 2))
            for k in np.flatnonzero(exits | (frames > _FRAME_OVERFLOW)):
                failed[k] = (_region_exit(f, -tau, z[k, :n]) if exits[k]
                             else _frame_overflow(-tau))
            if tau >= _T_MIN:  # max_horizon >= _T_MIN: every point gets here
                terms, estimates = closure(z[:, :n] - f.source)
                estimates *= frames
                stops = np.flatnonzero((estimates <= cfg.tail_tol)
                                       | (solver.status == "finished"))
        counts["nfev"] += solver.nfev
        for k in stops:
            if not estimates[k] <= cfg.tail_tol:
                out[live[k]] = TailDecayError(
                    f"the jet closure estimate {estimates[k]:.3e} is above "
                    f"tail_tol at t = {-tau:.1f}")
                continue
            state = _flow_state(-tau, z[k].copy(), n, m)
            out[live[k]] = (state, state.Finv @ terms[k], estimates[k], dict(counts))
        for k, error in failed.items():
            out[live[k]] = error
        going = np.array([out[j] is None for j in live], dtype=bool)
        live, z = live[going], z[going]
    return out


def evaluate_solution(f: FieldSampler, p: ProblemData | None, y,
                      cfg: EvalConfig = EvalConfig()) -> EvaluationResult:
    """u(y) for (D_X + A) u = lambda u + v via the backward-flow integral.

    When every eigenvalue of A(p) - lambda has real part above
    RESONANCE_TOL the integral converges as it stands (direct mode).
    Otherwise the polynomial head of the solution is split off at an order
    high enough that the remainder decays (split mode); that head comes
    from the jet solver, so p (or f.consistent_jets) must carry jet data.
    At a resonant lambda, u is the member whose jet is solve_to_order's
    particular solution, or ResonantProblemError names the obstruction.
    This is the one-point case of _plan's evaluator.
    """
    (row,) = _plan(f, p, cfg)([y])
    if isinstance(row, TransportKitError):
        raise row
    return row


def _plan(f: FieldSampler, p: ProblemData | None, cfg: EvalConfig):
    """evaluate_solution with its per-problem work done once: points -> rows.

    The evaluator takes a list of points and returns one EvaluationResult
    or one TransportKitError per point, in order.  The points that pass
    _point's checks are integrated together (see _tail_integrate); each
    end becomes the row u = I + closure term, plus head(y) in split mode.
    An error of the per-problem work is each such point's row, as in
    evaluate_solution.
    """
    p = f.consistent_jets if p is None else p
    if p is None:
        raise ValidationError("evaluate_solution needs problem jets: pass p "
                              "or build the sampler with consistent_jets")
    if p.is_complex:
        raise ValidationError("flow evaluation is real arithmetic; complex "
                              "problems are only supported by the jet solver")
    error = None
    try:
        sample, closure, head, N = _prepare(f, p)
    except TransportKitError as exc:
        error = exc

    def evaluate(points) -> list:
        rows, todo = [], []
        for y in points:
            try:
                todo.append((len(rows), _point(f, y)))
            except ValidationError as exc:
                rows.append(exc)
            else:
                rows.append(error)
        if error is not None or not todo:
            return rows
        ys = np.array([y for _, y in todo])
        heads = np.zeros((len(ys), f.m))
        if head is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                heads = head.evaluate(ys - f.source)
        ok = np.isfinite(heads).all(axis=1)  # an overflowing head ends its row here
        for k, _ in compress(todo, ~ok):
            rows[k] = FlowIntegrationError(
                "u is not finite: the split head overflows at this point")
        ends = _tail_integrate(f, sample, closure, ys[ok], cfg)
        for (k, _), h, end in zip(compress(todo, ok), heads[ok], ends):
            if not isinstance(end, TransportKitError):
                state, closing, estimate, counts = end
                u = h + state.I + closing
                end = EvaluationResult(u, estimate, state.t, "direct"
                                       if head is None else "split", N, **counts)
                if not np.isfinite(u).all():  # I is finite, so the closure overflowed
                    end = FlowIntegrationError(
                        "u is not finite: the jet closure overflows at this point")
            rows[k] = end
        return rows

    return evaluate


def _prepare(f: FieldSampler, p: ProblemData):
    """(sample from _integrand, closure from _closure, head, split order N).

    head and N are None in direct mode; otherwise N is the smallest N >= 1
    with mu_star + N nu > nu / 20.  One jet solve gives u_J at the order J
    of _closure_order (<= p.N for a callable); the head, u_J's degrees up to
    N, is solve_to_order(p, N)'s particular solution bit for bit.
    """
    nu = float(np.min(linearization_spectrum(p.X).real))
    if nu <= 0:
        raise ValidationError("flow evaluation needs an expanding source: "
                              f"min Re mu = {nu:g} for the linearization of X")
    mu_star = float(np.min(np.linalg.eigvals(p.A.coeffs[0] - p.lam * np.eye(p.m)).real))
    N = None
    if mu_star <= RESONANCE_TOL:  # a resonant lambda has mu_star <= RESONANCE_TOL
        # kept finite past MAX_ORDER, which solve_to_order refuses
        N = max(1, math.floor(min((0.05 * nu - mu_star) / nu, MAX_ORDER)) + 1)
    J = min(_closure_order(p, N), p.N if f._joint is None else MAX_ORDER)
    if f._joint is None and N is not None and J <= N:
        raise ValidationError(
            f"jet data of order {p.N} cannot support a split at order {N}; "
            "supply deeper jets or polynomial samplers")
    sol = solve_to_order(p, max(J, N or 0))  # refuses N past MAX_ORDER
    if not sol.solvable:
        raise ResonantProblemError(
            f"lambda = {p.lam:g} is resonant and v is obstructed: dual kernel "
            f"pairings {', '.join(f'{o:.6g}' for o in sol.obstructions)}")
    u = sol.particular
    if N is None:
        return _integrand(f, p), _closure(u, 0), None, None
    head = u.project(N)
    return _integrand(f, p, head, N), _closure(u, N + 1), head, N


def _closure_order(p: ProblemData, N: int | None) -> int:
    """The order J of the closure jet u_J, for split order N (None: direct mode).

    At least d_v + 1, d_v the lowest degree of a nonzero coefficient of v:
    u_J is zero below d_v, so a lower J reads a zero estimate.  In split
    mode also at least N + 1, so that Finv(tau) |y_tau|^(J-1) decays.  Then
    the largest J <= min(p.N, MAX_ORDER) whose solve stays within
    _CLOSURE_COST; a lower J only stops each point later.  Capped at
    MAX_ORDER, and one lower where the product table refuses it.
    """
    first = np.argmax(np.any(p.v.coeffs != 0, axis=1))  # v's first nonzero row; 0 for v = 0
    d_v = int(np.searchsorted(degree_starts(p.n, p.v.N), first, "right")) - 1
    J = min(max(d_v, -1 if N is None else N) + 1, MAX_ORDER)
    while (J < min(p.N, MAX_ORDER)
           and P_dim(2 * p.n, J + 1) * p.m ** 2 <= _CLOSURE_COST):
        J += 1
    return J if fits(2 * p.n, J) else J - 1


def _closure(u: Jet, first: int):
    """ys -> (u's degrees >= first, e_J) at each row, a position from the source.

    e_J(y) = |delta_{J-1}(y)| + |delta_J(y)| for u of order J: two degree
    blocks, so that one that is zero by parity cannot fake a zero estimate.
    Both are zero when J is below v's lowest degree, where u_J is zero;
    _closure_order keeps J above it.  For a callable sampler J <= p.N, and
    data past the jets goes unseen: v = y^3 with order-2 jets (X = y, A = 1)
    has u_J = 0, and its row at y = 0.5 is 9.8e-5 off with estimate 0.
    """
    J, c = u.N, u.coeffs
    starts = degree_starts(u.n, J)
    blocks = [(starts[k], starts[k + 1]) for k in (J - 1, J) if k >= 0]

    def closure(ys):
        mono = _monomial_vector(ys, J)
        e = sum(np.linalg.norm(mono[:, a:b] @ c[a:b], axis=1) for a, b in blocks)
        return mono[:, starts[first]:] @ c[starts[first]:], e

    return closure


def _remainder_jet(p: ProblemData, u_head: Jet, N: int) -> Jet:
    """v - (D_X + A - lam) u_head as a jet of order p.N + N, head degrees zeroed.

    Computed once per plan in the jet algebra, it fills from_problem's
    coefficient matrix, so a split RHS call is one matmul, and its head
    degrees (solver round-off) are zeroed exactly, as no pointwise sum is.
    """
    D = p.N + N
    coeffs = np.array(-residual(p.at_order(D), u_head.extend(D)).coeffs)
    coeffs[:degree_starts(p.n, D)[N + 1]] = 0.0
    return Jet(p.n, D, coeffs)


def _integrand(f: FieldSampler, p: ProblemData, u_head: Jet | None = None,
               N: int | None = None):
    """The flow's sample, rows y -> [-X | rows of (-(A - lam) | w)], w = v or remainder.

    The sample maps positions of shape (P, n) to shape (P, n + m*(m+1)).
    With a head u_head of order N, w = v - (D_X + A - lam) u_head.  A
    from_problem sampler gets lam and the remainder jet in its coefficient
    matrix, cut once per plan after its highest degree d with a nonzero
    row, so a sample is one (P, P_dim(n, d)) monomial matrix times it.  A
    callable sampler is sampled once per call, lam added to its -A diagonal
    in place, and one jet [u_head | its n partials] gives the remainder.
    """
    n, m, lam = f.n, f.m, p.lam
    a_cols, v_cols = _block_columns(n, m)
    if f._joint is not None:
        D = f._joint.N if u_head is None else max(p.N + N, f._joint.N)
        coeffs = np.array(f._joint.extend(D).coeffs)
        if u_head is not None:
            coeffs[:, v_cols] = _remainder_jet(p, u_head, N).extend(D).coeffs
        coeffs[0, np.diag(a_cols)] += lam  # the block holds -A
        # zero rows above degree d would cost monomials and carry nothing
        last = np.flatnonzero(np.any(coeffs != 0, axis=1)).max(initial=0)
        d = int(np.searchsorted(degree_starts(n, D), last, "right")) - 1
        coeffs = coeffs[:P_dim(n, d)]
        return lambda ys: _monomial_vector(ys, d) @ coeffs
    if u_head is not None:  # u_head and its n partials, read at y - source
        head = Jet(n, N, np.hstack([u_head.coeffs] + [u_head.partial(i).extend(N).coeffs
                                                     for i in range(n)]))

    def sample(ys):
        s = f._sample(ys)
        s[:, np.diag(a_cols)] += lam  # the block holds -A, now -(A - lam)
        if u_head is not None:
            h = head.evaluate(ys - f.source).reshape(len(ys), n + 1, m)
            s[:, v_cols] += (np.einsum("kij,kj->ki", s[:, a_cols], h[:, 0])
                             + np.einsum("ki,kij->kj", s[:, :n], h[:, 1:]))
        return s

    return sample


def empirical_decay_rate(f: FieldSampler, y, quantity="flow", *,
                         horizon: float = 30.0) -> float:
    """Fitted exponential rate of a quantity along the backward flow.

    quantity is "flow" (distance of y_t to the source), "transition"
    (spectral norm of Finv), or a callable FlowState -> float.  The rate
    is the least-squares slope of its log against t over the last 30% of
    the horizon, so a positive value means decay as t goes to -inf.  If the
    log spreads by at most 1e-12 there, the samples differ by rounding only:
    the rate is unresolved, and NumericError names the horizon.
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
    if not 0 < horizon < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon!r}")
    traj = integrate_flow(f, y, -horizon, rel_tol=1e-9, abs_tol=_DECAY_ABS_TOL,
                          first_step=min(1e-3, 0.01 * horizon))
    # the window in units of the horizon: polyfit cannot scale times whose squares underflow
    ts = np.linspace(-1.0, -0.7, 60)
    vals = np.array([qfun(traj.at(horizon * t)) for t in ts])
    if np.any(vals < _UNDERFLOW):
        raise QuantityUnderflowError(
            "quantity underflowed inside the fitting window; shorten the "
            "horizon")
    logs = np.log(vals)
    if not np.ptp(logs) > 1e-12:
        raise NumericError(f"the decay rate is unresolved at horizon = {horizon!r}: the "
                           f"log spreads by {np.ptp(logs):.1e} <= 1e-12 over the window")
    return float(np.polyfit(ts, logs, 1)[0]) / horizon
