"""Optimal control of the reduced bilinear system by discrete adjoints.

The state is advanced with explicit Euler,

    c[k+1] = c[k] + G[k] c[k],   G[k] = dt (Lambda + u1[k] B1 + u2[k] B2),

and the cost uses left-endpoint quadrature over k = 0..K-1 plus
terminal penalties, so the adjoint recursion and control gradient below
are the exact derivatives of the discrete objective (not a discretized
continuous adjoint).  A finite-difference check of that gradient is the
correctness anchor for everything in this module.

Each evaluation stacks the K step matrices G once, so every rollout and
adjoint step is one matrix-vector product plus the increment.  The
identity stays out of G: folded in, 1 + dt lambda rounds away the low
bits of dt lambda (dt = 5e-3), J carries more rounding noise, and the
central-difference gradient check at the reference config reads 2.9e-7
instead of 1.1e-7 (its bound is 1e-6).

The optimizer is a limited-memory BFGS with Armijo backtracking.  The
objective is smooth and cheap (a 200-step rollout of a 21-dimensional
linear system), so the simple line search is enough; curvature pairs
that fail the positivity test are dropped rather than damped.  Every
line-search trial is one value-and-gradient evaluation, and the
accepted trial's value and gradient become the next iterate, so no
point is evaluated twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import _write_rows
from .problem import CostWeights, horizon_steps
from .reduction import ReducedModel

__all__ = [
    "ControlTrajectory",
    "RolloutBlowupError",
    "LineSearchError",
    "OptimizationReport",
    "rollout_state",
    "objective",
    "objective_terms",
    "objective_and_gradient",
    "check_gradient",
    "stationarity_residual",
    "total_variation",
    "optimize",
]

_BLOWUP_NORM = 1e12

# L-BFGS settings: curvature pairs kept, Armijo constant, backtracking
# halvings per line search
MEMORY = 20
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60


class RolloutBlowupError(RuntimeError):
    """State rollout left the finite range (controls too aggressive)."""


class LineSearchError(RuntimeError):
    """Backtracking failed to find decrease along a descent direction."""


@dataclass(frozen=True)
class ControlTrajectory:
    """Piecewise-constant controls on [t0, tf] with step dt.

    u1[k], u2[k] act on [t0 + k dt, t0 + (k+1) dt); arrays have length
    K = (tf - t0)/dt.
    """

    t0: float
    tf: float
    dt: float
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self) -> None:
        k = horizon_steps(self.t0, self.tf, self.dt)
        object.__setattr__(self, "u1", np.asarray(self.u1, dtype=float))
        object.__setattr__(self, "u2", np.asarray(self.u2, dtype=float))
        if self.u1.shape != (k,) or self.u2.shape != (k,):
            raise ValueError(f"control arrays must have shape ({k},)")

    @property
    def n_steps(self) -> int:
        return len(self.u1)

    @property
    def times(self) -> np.ndarray:
        """Left endpoints t0 + k dt, k = 0..K-1."""
        return self.t0 + self.dt * np.arange(self.n_steps)

    @classmethod
    def from_constant(
        cls, t0: float, tf: float, dt: float, u1: float, u2: float
    ) -> "ControlTrajectory":
        k = horizon_steps(t0, tf, dt)
        return cls(t0, tf, dt, np.full(k, float(u1)), np.full(k, float(u2)))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.u1, self.u2])

    def with_vector(self, x: np.ndarray) -> "ControlTrajectory":
        x = np.asarray(x, dtype=float)
        k = self.n_steps
        if x.shape != (2 * k,):
            raise ValueError(f"expected vector of length {2 * k}")
        return ControlTrajectory(self.t0, self.tf, self.dt, x[:k], x[k:])

    def write_csv(self, path) -> None:
        _write_rows(path, ["t", "u1", "u2"], [self.times, self.u1, self.u2])

    @classmethod
    def read_csv(cls, path) -> "ControlTrajectory":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 3:
            raise ValueError("expected columns t,u1,u2")
        t = data[:, 0]
        if len(t) < 2:
            raise ValueError("need at least two control samples")
        dt = t[1] - t[0]
        return cls(t[0], t[-1] + dt, dt, data[:, 1], data[:, 2])


def total_variation(u: np.ndarray) -> float:
    """Sum of |u[k+1] - u[k]| (roughness of a control sample path)."""
    return float(np.sum(np.abs(np.diff(np.asarray(u, dtype=float)))))


def _step_matrices(model: ReducedModel, traj: ControlTrajectory) -> np.ndarray:
    """G[k] = dt (diag(Lambda) + u1[k] B1 + u2[k] B2) for every step, shape (K, M, M).

    The control parts of all K matrices come from one (K, 2) x (2, M*M)
    product.
    """
    M, dt = model.M, traj.dt
    U = dt * np.column_stack([traj.u1, traj.u2])
    G = U @ np.stack([model.B1, model.B2]).reshape(2, M * M)
    G[:, :: M + 1] += dt * model.eigenvalues
    return G.reshape(-1, M, M)


def rollout_state(
    model: ReducedModel,
    traj: ControlTrajectory,
    c0: np.ndarray,
    G: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit-Euler states, shape (K+1, M); raises on blow-up.

    G is the stack of step matrices from _step_matrices, built here
    when the caller does not already hold it.
    """
    c0 = np.asarray(c0, dtype=float)
    if c0.shape != (model.M,):
        raise ValueError(f"c0 must have length {model.M}")
    if G is None:
        G = _step_matrices(model, traj)
    C = np.empty((traj.n_steps + 1, model.M))
    C[0] = c0
    with np.errstate(over="ignore", invalid="ignore"):
        for Gk, c, c_next in zip(G, C[:-1], C[1:]):
            np.dot(Gk, c, out=c_next)
            c_next += c
    if not np.isfinite(C).all() or np.max(np.abs(C)) > _BLOWUP_NORM:
        raise RolloutBlowupError("state rollout diverged")
    return C


def _residual_stack(model, C, u1, u2):
    """Vorticity residuals r[k] = (A1 + u1 A2 + u2 A3) c[k] - d, shape (K, M)."""
    Cq = C[:-1]
    Y2 = Cq @ model.A2.T
    Y3 = Cq @ model.A3.T
    r = Cq @ model.A1.T + u1[:, None] * Y2 + u2[:, None] * Y3 - model.d
    return r, Y2, Y3


def _cost_pieces(model, C, traj, weights):
    """Cost breakdown plus the intermediates the adjoint pass reuses.

    Both objective entry points sum the same five floats in the same
    order, so their totals agree bit for bit.
    """
    dt, u1, u2 = traj.dt, traj.u1, traj.u2
    dc = C[:-1] - model.c_s
    r, Y2, Y3 = _residual_stack(model, C, u1, u2)
    w = weights
    terms = {
        "tracking": 0.5 * dt * w.Q1 * float(np.sum(dc * dc)),
        "vorticity": 0.5 * dt * w.Q2 * float(np.sum(r * r)),
        "effort": 0.5 * dt * float(w.R1 * np.sum(u1 * u1) + w.R2 * np.sum(u2 * u2)),
        "terminal_state": 0.5 * w.Qf * float(np.sum((C[-1] - model.c_s) ** 2)),
        "terminal_control": 0.5 * w.Rf * float((u2[-1] - 1.0) ** 2),
    }
    terms["total"] = (
        terms["tracking"]
        + terms["vorticity"]
        + terms["effort"]
        + terms["terminal_state"]
        + terms["terminal_control"]
    )
    return terms, dc, r, Y2, Y3


def objective_terms(
    model: ReducedModel,
    traj: ControlTrajectory,
    c0: np.ndarray,
    weights: CostWeights,
) -> dict:
    """Cost breakdown: tracking, vorticity, effort, terminal pieces."""
    C = rollout_state(model, traj, c0)
    terms, _, _, _, _ = _cost_pieces(model, C, traj, weights)
    return terms


def objective(
    model: ReducedModel,
    traj: ControlTrajectory,
    c0: np.ndarray,
    weights: CostWeights,
) -> float:
    return objective_terms(model, traj, c0, weights)["total"]


def objective_and_gradient(
    model: ReducedModel,
    traj: ControlTrajectory,
    c0: np.ndarray,
    weights: CostWeights,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Discrete objective and its exact gradient wrt (u1, u2) samples."""
    G = _step_matrices(model, traj)
    C = rollout_state(model, traj, c0, G)
    K, dt = traj.n_steps, traj.dt
    u1, u2 = traj.u1, traj.u2
    B1, B2 = model.B1, model.B2
    w = weights

    terms, dc, r, Y2, Y3 = _cost_pieces(model, C, traj, weights)
    J = terms["total"]

    # dt Z[k] = dt (Q1 dc[k] + Q2 A_u[k]^T r[k]) for every k in three matmuls
    dtZ = dt * (w.Q1 * dc + w.Q2 * (
        r @ model.A1 + u1[:, None] * (r @ model.A2) + u2[:, None] * (r @ model.A3)
    ))
    # mu[k] = mu[k+1] + G[k]^T mu[k+1] + dt Z[k], for k = K-1 down to 0
    mu = np.empty_like(C)
    mu[K] = w.Qf * (C[K] - model.c_s)
    for GkT, m, m_next, dz in zip(
        G.transpose(0, 2, 1)[::-1], mu[-2::-1], mu[:0:-1], dtZ[::-1]
    ):
        np.dot(GkT, m_next, out=m)
        m += m_next
        m += dz

    P1 = C[:-1] @ B1.T
    P2 = C[:-1] @ B2.T
    g1 = dt * (w.R1 * u1 + w.Q2 * np.sum(Y2 * r, axis=1) + np.sum(mu[1:] * P1, axis=1))
    g2 = dt * (w.R2 * u2 + w.Q2 * np.sum(Y3 * r, axis=1) + np.sum(mu[1:] * P2, axis=1))
    g2[-1] += w.Rf * (u2[-1] - 1.0)
    return float(J), g1, g2


def stationarity_residual(g: np.ndarray, dt: float) -> float:
    """Max-norm of the stacked (u1, u2) gradient rescaled by 1/dt
    (continuous-time units)."""
    return float(np.max(np.abs(g)) / dt)


def check_gradient(
    model: ReducedModel,
    traj: ControlTrajectory,
    c0: np.ndarray,
    weights: CostWeights,
    *,
    n_directions: int = 20,
    eps: float = 1e-6,
    seed: int = 0,
) -> float:
    """Worst relative error of the adjoint gradient vs central differences.

    Directions are unit vectors over the stacked (u1, u2) samples; the
    comparison is |fd - g.v| / max(|g.v|, |fd|, 1e-12).
    """
    _, g1, g2 = objective_and_gradient(model, traj, c0, weights)
    g = np.concatenate([g1, g2])
    x = traj.as_vector()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_directions):
        v = rng.standard_normal(len(x))
        v /= np.linalg.norm(v)
        jp = objective(model, traj.with_vector(x + eps * v), c0, weights)
        jm = objective(model, traj.with_vector(x - eps * v), c0, weights)
        fd = (jp - jm) / (2.0 * eps)
        gv = float(g @ v)
        rel = abs(fd - gv) / max(abs(gv), abs(fd), 1e-12)
        worst = max(worst, rel)
    return worst


@dataclass
class OptimizationReport:
    """Outcome of one optimizer run.

    stop_reason is "gtol" (gradient tolerance reached, the only
    converged case), "floor" (an accepted step left J unchanged),
    "line_search" (no acceptable step) or "cap" (iteration limit).
    n_evaluations counts value-and-gradient evaluations, one per
    line-search trial plus one at the initial guess.
    """

    trajectory: ControlTrajectory
    objective: float
    grad_inf: float
    stationarity: float
    converged: bool
    n_iterations: int
    n_evaluations: int
    message: str
    stop_reason: str
    objective_history: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "objective": self.objective,
            "grad_inf": self.grad_inf,
            "stationarity": self.stationarity,
            "converged": self.converged,
            "n_iterations": self.n_iterations,
            "n_evaluations": self.n_evaluations,
            "message": self.message,
            "stop_reason": self.stop_reason,
        }


def _two_loop(g, pairs, gamma):
    """L-BFGS two-loop recursion for -H g."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def _backtrack(trial, x: np.ndarray, p: np.ndarray, J: float, slope: float):
    """Armijo backtracking from unit step along p.

    trial(x) gives (J, g) at x, with J = inf where the rollout blows up.
    Returns the accepted (x, J, g), or None.  Near the floating-point
    floor of J exact sufficient decrease stops resolving, so a step that
    does not increase J is still accepted (the history stays
    nonincreasing); optimize stops once such a step leaves J unchanged.
    """
    step = 1.0
    for _ in range(MAX_BACKTRACKS):
        x_new = x + step * p
        J_new, g_new = trial(x_new)
        decrease = -ARMIJO_C * step * slope
        if np.isfinite(J_new) and (
            J_new <= J - decrease
            or (J_new <= J and decrease <= 4.0 * np.spacing(abs(J) + 1.0))
        ):
            return x_new, J_new, g_new
        step *= 0.5
    return None


def optimize(
    model: ReducedModel,
    traj0: ControlTrajectory,
    c0: np.ndarray,
    weights: CostWeights,
    *,
    gtol: float = 1e-8,
    max_iterations: int = 2000,
    callback=None,
) -> OptimizationReport:
    """Minimize the discrete objective over the control samples.

    Limited-memory BFGS with Armijo backtracking from unit step; each
    trial point costs one value-and-gradient evaluation.  Stops when the
    max-norm of the gradient drops below gtol (converged), or when an
    accepted step leaves the objective unchanged, i.e. J has reached its
    floating-point floor (not converged; the step is kept).
    max_iterations is a cap.  A trial point whose rollout blows up is a
    rejected step; a blow-up at traj0 raises RolloutBlowupError, and a
    failed line search along steepest descent at the first iteration
    raises LineSearchError.  Requires strictly positive effort weights
    (otherwise the problem can push control energy to infinity).
    """
    if weights.R1 <= 0.0 or weights.R2 <= 0.0:
        raise ValueError("optimize requires R1 > 0 and R2 > 0")

    n_eval = 0

    def fg(x):
        nonlocal n_eval
        n_eval += 1
        J, g1, g2 = objective_and_gradient(model, traj0.with_vector(x), c0, weights)
        return J, np.concatenate([g1, g2])

    def trial(x):
        try:
            return fg(x)
        except RolloutBlowupError:
            return np.inf, None

    x = traj0.as_vector()
    J, g = fg(x)
    history = [J]
    pairs: list = []
    gamma = 1.0 / max(1.0, float(np.linalg.norm(g)))
    stop_reason, message = "cap", "iteration limit reached"
    it = 0

    for it in range(1, max_iterations + 1):
        gmax = float(np.max(np.abs(g)))
        if gmax <= gtol:
            stop_reason, message = "gtol", "gradient tolerance reached"
            it -= 1
            break
        p = _two_loop(g, pairs, gamma)
        slope = float(g @ p)
        if not np.isfinite(slope) or slope >= 0.0:
            # fall back to scaled steepest descent and forget curvature
            pairs.clear()
            p = -gamma * g
            slope = float(g @ p)

        accepted = _backtrack(trial, x, p, J, slope)
        if accepted is None and pairs:
            # retry once along steepest descent before giving up
            pairs.clear()
            p = -gamma * g
            accepted = _backtrack(trial, x, p, J, float(g @ p))
        if accepted is None:
            if len(history) == 1:
                # no progress from the very start: the setup is broken
                raise LineSearchError("no decrease along steepest descent")
            stop_reason = "line_search"
            message = "line search exhausted (objective at floating-point floor)"
            it -= 1
            break

        x_new, J_new, g_new = accepted
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > MEMORY:
                pairs.pop(0)
            gamma = sy / float(y @ y)
        J_prev = J
        x, J, g = x_new, J_new, g_new
        history.append(J)
        if callback is not None:
            callback(it, x, J, g)
        if not J < J_prev:
            stop_reason, message = "floor", "objective at floating-point floor"
            break

    traj = traj0.with_vector(x)
    return OptimizationReport(
        trajectory=traj,
        objective=J,
        grad_inf=float(np.max(np.abs(g))),
        stationarity=stationarity_residual(g, traj.dt),
        converged=stop_reason == "gtol",
        n_iterations=it,
        n_evaluations=n_eval,
        message=message,
        stop_reason=stop_reason,
        objective_history=history,
    )
