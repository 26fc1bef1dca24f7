"""Galerkin reduction of the controlled Fokker-Planck dynamics.

Projecting the density onto the weighted eigenbasis turns the PDE into
the bilinear system

    dc/dt = Lambda c + u1 B1 c + u2 B2 c,

and the flux vorticity into the affine map (A1 + u1 A2 + u2 A3) c,
whose target expansion is d.  Matrix conventions:

* B1[m, k] = <div(v_k grad alpha), v_m>,  so (B1 c)_m feeds mode m;
* A1[j, m] = <(perp_grad v_m) . grad V, v_j>, so rows of the A matrices
  index the output (vorticity) mode and (A1 + u1 A2 + u2 A3) c is the
  coefficient vector of the vorticity.  All inner products are
  1/rho_s-weighted.

The A matrices are assembled in ratio form, v_m = rho_s * h_m: the term
(perp_grad rho_s) . grad V vanishes identically and is dropped, which
makes column 0 of A1 exactly zero, and A3 reuses the same stencil
Laplacian of phi that defines the desired vorticity, which makes
A3 e0 = d exact.  Those two identities are what anchor the stationary
circulation checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, _diff1
from .operators import SpectralBasis, assemble_control_operators
from .problem import RHO_FLOOR, ShapeFunctions

__all__ = [
    "ReducedModel",
    "project",
    "reconstruct",
    "assemble_reduced_model",
    "reduced_rhs",
]


def project(rho: ScalarField, basis: SpectralBasis) -> np.ndarray:
    """Coefficients c_m = <rho, v_m> in the weighted inner product."""
    if rho.grid != basis.grid:
        raise ValueError("density grid does not match basis grid")
    wv = basis.w.flat / basis.rho_s.flat
    return basis.modes_flat() @ (rho.flat * wv)


def reconstruct(c: np.ndarray, basis: SpectralBasis) -> ScalarField:
    """Density sum_m c_m v_m (not guaranteed nonnegative)."""
    c = np.asarray(c, dtype=float)
    if c.shape != (basis.M,):
        raise ValueError(f"expected {basis.M} coefficients, got shape {c.shape}")
    return ScalarField(basis.grid, np.tensordot(c, basis.modes, axes=1))


@dataclass
class ReducedModel:
    """Matrices of the reduced dynamics and vorticity cost."""

    eigenvalues: np.ndarray  # (M,), diagonal of Lambda
    B1: np.ndarray
    B2: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    d: np.ndarray
    c_s: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def M(self) -> int:
        return len(self.eigenvalues)

    def __post_init__(self) -> None:
        M = self.M
        for name in ("B1", "B2", "A1", "A2", "A3"):
            if getattr(self, name).shape != (M, M):
                raise ValueError(f"{name} must be {M}x{M}")
        for name in ("d", "c_s"):
            if getattr(self, name).shape != (M,):
                raise ValueError(f"{name} must have length {M}")

    def save(self, path) -> None:
        payload = {
            "M": self.M,
            "eigenvalues": self.eigenvalues.tolist(),
            "B1": self.B1.tolist(),
            "B2": self.B2.tolist(),
            "A1": self.A1.tolist(),
            "A2": self.A2.tolist(),
            "A3": self.A3.tolist(),
            "d": self.d.tolist(),
            "c_s": self.c_s.tolist(),
            "meta": self.meta,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)


def assemble_reduced_model(
    basis: SpectralBasis,
    shapes: ShapeFunctions,
    potential,
    D: float,
    omega_d: ScalarField,
) -> ReducedModel:
    """Project the control operators and vorticity maps onto the basis.

    omega_d must be the stencil Laplacian of the nodal phi (see
    problem.desired_vorticity); it enters A3 directly so the identity
    A3 e0 = d holds without discretization slack.
    """
    grid = basis.grid
    if shapes.grid != grid or omega_d.grid != grid:
        raise ValueError("basis, shapes and omega_d must share one grid")
    M = basis.M
    Vm = basis.modes_flat()  # (M, n)
    wflat = basis.w.flat
    rs = basis.rho_s.flat
    wv = wflat / rs

    k_alpha, k_phi = assemble_control_operators(grid, shapes, basis.rho_s)
    # B[m, k] = <K v_k, v_m>_w : conservative divergence keeps row 0 at zero
    VW = Vm * wv
    B1 = VW @ (k_alpha @ Vm.T)
    B2 = VW @ (k_phi @ Vm.T)

    # ratio fields h_m = v_m / rho_s and their perp gradients (stencil)
    H = Vm / np.maximum(rs, RHO_FLOOR)
    shape2 = (M, grid.nx, grid.ny)
    H2 = H.reshape(shape2)
    dHx = _diff1(H2, grid.dx, 1).reshape(M, -1)   # axis 1 of (M, nx, ny) is x
    dHy = _diff1(H2, grid.dy, 2).reshape(M, -1)
    # perp_grad h_m = (dh/dy, -dh/dx)
    phx, phy = dHy, -dHx

    gv = potential.grad_on_grid(grid)
    Vx, Vy = gv.x.flat, gv.y.flat
    gax, gay = shapes.grad_alpha.x.flat, shapes.grad_alpha.y.flat
    ppx, ppy = shapes.perp_grad_phi.x.flat, shapes.perp_grad_phi.y.flat
    lap_phi = omega_d.flat

    VmW = Vm * wflat  # rows are test modes, weight w (one rho_s cancelled)
    HW = H * wflat

    # A1[j, m] = sum (perp_grad h_m . grad V) v_j w
    Q1 = phx * Vx + phy * Vy
    A1 = VmW @ Q1.T
    # A2 keeps the (perp_grad rho_s . grad alpha) part via the analytic
    # identity perp_grad rho_s = -(rho_s/D) perp_grad V
    Q2 = (phx * gax + phy * gay) - (Vy * gax - Vx * gay) / D * H
    A2 = VmW @ Q2.T
    # A3[j, m] = sum ((perp_grad h_m . perp_grad phi) + h_m lap phi) h_j w
    Q3 = (phx * ppx + phy * ppy) + H * lap_phi
    A3 = HW @ Q3.T

    d = HW @ lap_phi
    c_s = project(basis.rho_s, basis)

    meta = {
        "grid": {"L": grid.L, "nx": grid.nx, "ny": grid.ny},
        "D": D,
        "potential": potential.descriptor(),
    }
    return ReducedModel(basis.eigenvalues.copy(), B1, B2, A1, A2, A3, d, c_s, meta)


def reduced_rhs(model: ReducedModel, c: np.ndarray, u1: float, u2: float) -> np.ndarray:
    """Right-hand side Lambda c + u1 B1 c + u2 B2 c."""
    return model.eigenvalues * c + u1 * (model.B1 @ c) + u2 * (model.B2 @ c)
