"""Full-grid integration of the controlled dynamics and its diagnostics.

Backward Euler on the conservative operator K(u1, u2) = K + u1 K_alpha +
u2 K_phi.  Controls are piecewise constant (left endpoint), matching the
reduced model's explicit rollout, so the two trajectories are directly
comparable.  Every operator in K(u) is flux-form with zero boundary-face
flux, hence exact mass conservation up to the linear-solve residual.

Each step's system (I - dt K(u)) x = rho is solved by iterative
refinement with the LU factors of an earlier step's matrix; a new
factorization is made only when the refinement stops converging, so the
optimized controls, which change at every step, need a handful of
factorizations instead of one per step.

The flux diagnostic is evaluated in ratio form,

    J = -D rho_s grad(rho/rho_s) - rho (u1 grad(alpha)
        + u2 (1/rho_s) perp_grad(phi)),

which equals -rho grad(V) - D grad(rho) - ... identically for exact
gradients and vanishes at rho = rho_s without stencil residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import (
    Grid2D,
    QuadratureWeights,
    ScalarField,
    VectorField,
    boundary_max_normal,
    curl,
    gradient,
    integrate,
    _write_rows,
    weighted_norm,
    write_scalar_csv,
)
from .problem import RHO_FLOOR, ShapeFunctions
from .control import ControlTrajectory
from .operators import assemble_generator, assemble_control_operators

__all__ = [
    "ControlledOperator",
    "DiagnosticsSeries",
    "IntegrationResult",
    "ImplicitStepper",
    "controlled_operator",
    "integrate_fpe",
    "compute_flux",
    "vorticity_error",
]


@dataclass
class ControlledOperator:
    """K(u1,u2) = K + u1 K_alpha + u2 K_phi, all flux-form on one grid."""

    grid: Grid2D
    w: QuadratureWeights
    base: sp.csr_matrix
    k_alpha: sp.csr_matrix
    k_phi: sp.csr_matrix


def controlled_operator(
    grid: Grid2D, potential, D: float, shapes: ShapeFunctions, rho_s: ScalarField
) -> ControlledOperator:
    gen = assemble_generator(potential, D, grid)
    k_alpha, k_phi = assemble_control_operators(grid, shapes, rho_s)
    return ControlledOperator(grid, gen.w, gen.matrix, k_alpha, k_phi)


class ImplicitStepper:
    """Backward-Euler stepper that keeps one LU factorization across steps.

    Each step solves A x = rho with A = I - dt K(u1, u2).  A is rebuilt
    from the data arrays of I - dt K, dt K_alpha and dt K_phi, which share
    one CSR pattern.  The LU of an earlier step's matrix serves as an
    approximate inverse: starting from x = rho, the refinement sweep
    r = rho - A x, x += lu.solve(r) runs until ||r|| <= REFINE_RTOL ||rho||.
    If MAX_SWEEPS sweeps do not get there, or the residual is not finite,
    A is factorized at the current controls, the step is solved directly
    and that LU is kept for the steps that follow.  Repeated controls
    cost one solve; a slowly varying control needs a new factorization
    only when the stale LU no longer contracts the residual fast enough.
    Every correction preserves mass, since w^T A = w^T for any controls.
    """

    REFINE_RTOL = 1e-12
    MAX_SWEEPS = 8

    def __init__(self, op: ControlledOperator, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.op = op
        self.dt = dt
        eye = sp.identity(op.base.shape[0], format="csr")
        a0 = (eye - dt * op.base).tocsr()
        for m in (op.k_alpha, op.k_phi):
            if not (
                np.array_equal(m.indptr, a0.indptr)
                and np.array_equal(m.indices, a0.indices)
            ):
                raise ValueError(
                    "control operators must share the sparsity pattern of I - dt K"
                )
        self._a = a0
        self._a0_data = a0.data.copy()
        self._ka_data = dt * op.k_alpha.data
        self._kp_data = dt * op.k_phi.data
        self._lu = None
        self.n_factorizations = 0
        self.n_refine_sweeps = 0

    def _matrix(self, u1: float, u2: float) -> sp.csr_matrix:
        self._a.data = self._a0_data - u1 * self._ka_data - u2 * self._kp_data
        return self._a

    def _refine(self, a: sp.csr_matrix, rho_flat: np.ndarray) -> np.ndarray | None:
        """Solve a x = rho with the kept LU, or None if it does not converge."""
        tol = self.REFINE_RTOL * np.linalg.norm(rho_flat)
        x = rho_flat.copy()
        for sweep in range(self.MAX_SWEEPS + 1):
            r = rho_flat - a @ x
            res = np.linalg.norm(r)
            if res <= tol:
                return x
            if sweep == self.MAX_SWEEPS or not np.isfinite(res):
                break
            x += self._lu.solve(r)
            self.n_refine_sweeps += 1
        return None

    def step(self, rho_flat: np.ndarray, u1: float, u2: float) -> np.ndarray:
        a = self._matrix(u1, u2)
        out = self._refine(a, rho_flat) if self._lu is not None else None
        if out is None:
            # free the old factors first: two sets alive at once raise the
            # peak memory by one set and fragment the heap
            self._lu = None
            # minimum-degree ordering on A^T + A: at 101x101 the factors
            # hold 387k nonzeros, against 659k with the default COLAMD
            self._lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
            self.n_factorizations += 1
            out = self._lu.solve(rho_flat)
        if not np.isfinite(out).all():
            raise RuntimeError("implicit solve produced non-finite density")
        return out


def compute_flux(
    rho: ScalarField,
    u1: float,
    u2: float,
    shapes: ShapeFunctions,
    rho_s: ScalarField,
    D: float,
) -> VectorField:
    """Probability flux of rho under the controls (ratio form)."""
    grid = rho.grid
    rs = rho_s.values
    h = ScalarField(grid, rho.values / np.maximum(rs, RHO_FLOOR))
    gh = gradient(h)
    drift_x = u1 * shapes.grad_alpha.x.values + u2 * shapes.scaled_perp_phi.x.values
    drift_y = u1 * shapes.grad_alpha.y.values + u2 * shapes.scaled_perp_phi.y.values
    jx = -D * rs * gh.x.values - rho.values * drift_x
    jy = -D * rs * gh.y.values - rho.values * drift_y
    return VectorField(grid, ScalarField(grid, jx), ScalarField(grid, jy))


def vorticity_error(
    flux: VectorField, omega_d: ScalarField, rho_s: ScalarField, w: QuadratureWeights
) -> float:
    """||curl(J) - omega_d|| in the 1/rho_s-weighted norm."""
    om = curl(flux)
    return weighted_norm(ScalarField(flux.grid, om.values - omega_d.values), rho_s, w)


@dataclass
class DiagnosticsSeries:
    """Per-step scalars: deviation norms and total mass."""

    times: np.ndarray
    e_rho: np.ndarray
    e_omega: np.ndarray
    mass: np.ndarray

    def write_csv(self, path) -> None:
        _write_rows(
            path, ["t", "e_rho", "e_omega", "mass"],
            [self.times, self.e_rho, self.e_omega, self.mass],
        )


@dataclass
class IntegrationResult:
    final_density: ScalarField
    series: DiagnosticsSeries
    boundary_flux_ratio_max: float
    n_factorizations: int
    n_refine_sweeps: int


def integrate_fpe(
    op: ControlledOperator,
    rho0: ScalarField,
    traj: ControlTrajectory,
    rho_s: ScalarField,
    shapes: ShapeFunctions,
    omega_d: ScalarField,
    D: float,
    *,
    snapshot_every: int = 0,
    snapshot_dir=None,
    callback=None,
) -> IntegrationResult:
    """Step the controlled equation over the horizon and record diagnostics.

    e_rho[k] = ||rho_k - rho_s|| and e_omega[k] = ||omega_k - omega_d||
    in the 1/rho_s-weighted norm; omega_k uses the controls acting on
    step k (the final sample acts at k = K).  The stencil-evaluated
    normal flux on the boundary is tracked relative to max|J| as a
    consistency diagnostic (the face fluxes of the scheme itself are
    zero there by construction).

    callback(k, t, rho_field) runs at every recorded index including 0;
    snapshots go to snapshot_dir as field CSVs every snapshot_every
    steps when requested.
    """
    grid = op.grid
    if rho0.grid != grid:
        raise ValueError("initial density grid does not match operator grid")
    K = traj.n_steps
    stepper = ImplicitStepper(op, traj.dt)
    times = np.concatenate([traj.times, [traj.tf]])

    e_rho = np.empty(K + 1)
    e_omega = np.empty(K + 1)
    mass = np.empty(K + 1)
    bnd_ratio = 0.0
    if snapshot_every and snapshot_dir is not None:
        snapshot_dir = Path(snapshot_dir)
        snapshot_dir.mkdir(parents=True, exist_ok=True)

    rho = rho0.flat.copy()
    for k in range(K + 1):
        field = ScalarField(grid, rho.reshape(grid.nx, grid.ny))
        ku = min(k, K - 1)
        u1k, u2k = traj.u1[ku], traj.u2[ku]
        flux = compute_flux(field, u1k, u2k, shapes, rho_s, D)
        e_rho[k] = weighted_norm(
            ScalarField(grid, field.values - rho_s.values), rho_s, op.w
        )
        e_omega[k] = vorticity_error(flux, omega_d, rho_s, op.w)
        mass[k] = integrate(field, op.w)
        fmax = flux.max_norm()
        if fmax > 0.0:
            bnd_ratio = max(bnd_ratio, boundary_max_normal(flux) / fmax)
        if callback is not None:
            callback(k, times[k], field)
        if snapshot_every and snapshot_dir is not None and k % snapshot_every == 0:
            write_scalar_csv(field, snapshot_dir / f"rho_{k:05d}.csv")
        if k < K:
            rho = stepper.step(rho, traj.u1[k], traj.u2[k])

    final = ScalarField(grid, rho.reshape(grid.nx, grid.ny))
    series = DiagnosticsSeries(times, e_rho, e_omega, mass)
    return IntegrationResult(
        final, series, bnd_ratio, stepper.n_factorizations, stepper.n_refine_sweeps
    )
