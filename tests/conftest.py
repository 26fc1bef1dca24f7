"""Shared fixtures: a coarse 41x41 instance of the reference problem.

The coarse grid keeps unit tests fast (dense eigensolver path) while
exercising the same code paths as the full-resolution study.  Grids
this coarse cannot meet the full-resolution accuracy gates, so tests
here assert structure, identities and refinement behavior; the
full-scale numbers live in test_acceptance.py.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fpcirc.control import ControlTrajectory
from fpcirc.fields import ScalarField, VectorField, _diff1
from fpcirc.operators import assemble_generator, eigenbasis
from fpcirc.pde import ImplicitStepper, controlled_operator
from fpcirc.problem import (
    ExperimentConfig,
    build_initial_density,
    desired_vorticity,
    reference_problem,
)
from fpcirc.reduction import ReducedModel, assemble_reduced_model, project


@pytest.fixture(scope="session")
def coarse_cfg():
    return ExperimentConfig(nx=41, ny=41, M=12, n_particles=2000)


@pytest.fixture(scope="session")
def coarse_prob(coarse_cfg):
    return reference_problem(coarse_cfg)


@pytest.fixture(scope="session")
def coarse_gen(coarse_prob):
    return assemble_generator(
        coarse_prob.potential, coarse_prob.config.D, coarse_prob.grid
    )


@pytest.fixture(scope="session")
def coarse_basis(coarse_gen, coarse_prob):
    return eigenbasis(coarse_gen, coarse_prob.rho_s, coarse_prob.config.M)


@pytest.fixture(scope="session")
def coarse_model(coarse_basis, coarse_prob):
    return assemble_reduced_model(
        coarse_basis,
        coarse_prob.shapes,
        coarse_prob.potential,
        coarse_prob.config.D,
        desired_vorticity(coarse_prob.shapes),
    )


@pytest.fixture(scope="session")
def coarse_op(coarse_prob):
    return controlled_operator(
        coarse_prob.grid,
        coarse_prob.potential,
        coarse_prob.config.D,
        coarse_prob.shapes,
        coarse_prob.rho_s,
    )


@pytest.fixture(scope="session")
def coarse_rho0(coarse_prob):
    return build_initial_density(
        coarse_prob.initial, coarse_prob.grid, coarse_prob.w
    )


@pytest.fixture(scope="session")
def coarse_c0(coarse_rho0, coarse_basis):
    return project(coarse_rho0, coarse_basis)


@pytest.fixture
def unit_horizon_traj(coarse_cfg):
    cfg = coarse_cfg
    return ControlTrajectory.from_constant(
        cfg.t0, cfg.tf, cfg.dt, cfg.u1_init, cfg.u2_init
    )


def assert_unit_vector(e, index, atol):
    expect = np.zeros_like(e)
    expect[index] = 1.0
    np.testing.assert_allclose(e, expect, atol=atol)


def implicit_step(rho, op, u1, u2, dt):
    """One backward-Euler step of a density field by a fresh stepper."""
    out = ImplicitStepper(op, dt).step(rho.flat, u1, u2)
    return ScalarField(rho.grid, out.reshape(rho.grid.nx, rho.grid.ny))


def controlled_matrix(op, u1, u2):
    """K(u1, u2) = K + u1 K_alpha + u2 K_phi, summed as sparse matrices."""
    return (op.base + u1 * op.k_alpha + u2 * op.k_phi).tocsr()


def column_mass_residual(op, u1, u2):
    """max_j |w^T K(u)|_j, zero for exact column mass conservation."""
    return float(np.max(np.abs(op.w.flat @ controlled_matrix(op, u1, u2))))


def direct_step(op, rho_flat, u1, u2, dt):
    """Oracle: solve (I - dt K(u)) x = rho with its own LU factorization."""
    eye = sp.identity(op.base.shape[0], format="csc")
    return spla.splu((eye - dt * controlled_matrix(op, u1, u2)).tocsc()).solve(rho_flat)


def relative_error(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


# Oracles of the structural identities and stencil comparisons; the
# program itself needs none of them.


def gram_matrix(basis):
    """Weighted Gram matrix <v_m, v_k> of the basis modes."""
    Vm = basis.modes_flat()
    return (Vm * (basis.w.flat / basis.rho_s.flat)) @ Vm.T


def mass_conservation_residual(K, w):
    """max_j |(w^T K)_j| / max|K|; zero column-mass up to roundoff for flux ops."""
    col = np.abs(w.flat @ K)
    scale = max(float(np.abs(K.data).max()), 1e-300) if K.nnz else 1.0
    return float(col.max()) / scale


def perp_gradient(f):
    """Stencil perpendicular gradient (d/dy, -d/dx)."""
    g = f.grid
    return VectorField(
        g,
        ScalarField(g, _diff1(f.values, g.dy, 1)),
        ScalarField(g, -_diff1(f.values, g.dx, 0)),
    )


def divergence(F):
    """Stencil divergence dFx/dx + dFy/dy."""
    g = F.grid
    return ScalarField(g, _diff1(F.x.values, g.dx, 0) + _diff1(F.y.values, g.dy, 1))


def bilinear_interpolate(f, x, y):
    """Bilinear interpolation of nodal values at points of the closed square."""
    g = f.grid
    xq = np.clip(np.asarray(x, dtype=float), -g.L, g.L)
    yq = np.clip(np.asarray(y, dtype=float), -g.L, g.L)
    ix = np.clip(((xq + g.L) / g.dx).astype(int), 0, g.nx - 2)
    jy = np.clip(((yq + g.L) / g.dy).astype(int), 0, g.ny - 2)
    tx = (xq - (-g.L + ix * g.dx)) / g.dx
    ty = (yq - (-g.L + jy * g.dy)) / g.dy
    v = f.values
    return (
        v[ix, jy] * (1 - tx) * (1 - ty)
        + v[ix + 1, jy] * tx * (1 - ty)
        + v[ix, jy + 1] * (1 - tx) * ty
        + v[ix + 1, jy + 1] * tx * ty
    )


def per_term_gradient(model, traj, c0, weights):
    """Oracle: states C and adjoint gradient (g1, g2), one term at a time.

    The explicit-Euler rollout and its discrete adjoint applied as
    lambda * c + u1 (B1 c) + u2 (B2 c), without the stacked step
    matrices fpcirc.control builds.
    """
    K, dt, u1, u2 = traj.n_steps, traj.dt, traj.u1, traj.u2
    lam, B1, B2, w = model.eigenvalues, model.B1, model.B2, weights
    C = np.empty((K + 1, model.M))
    C[0] = c0
    for k in range(K):
        ck = C[k]
        C[k + 1] = ck + dt * (lam * ck + u1[k] * (B1 @ ck) + u2[k] * (B2 @ ck))
    Cq = C[:-1]
    Y2, Y3 = Cq @ model.A2.T, Cq @ model.A3.T
    r = Cq @ model.A1.T + u1[:, None] * Y2 + u2[:, None] * Y3 - model.d
    Z = w.Q1 * (Cq - model.c_s) + w.Q2 * (
        r @ model.A1 + u1[:, None] * (r @ model.A2) + u2[:, None] * (r @ model.A3)
    )
    mu = np.empty_like(C)
    mu[K] = w.Qf * (C[K] - model.c_s)
    for k in range(K - 1, -1, -1):
        m = mu[k + 1]
        mu[k] = m + dt * (Z[k] + lam * m + u1[k] * (B1.T @ m) + u2[k] * (B2.T @ m))
    g1 = dt * (w.R1 * u1 + w.Q2 * np.sum(Y2 * r, axis=1) + np.sum(mu[1:] * (Cq @ B1.T), axis=1))
    g2 = dt * (w.R2 * u2 + w.Q2 * np.sum(Y3 * r, axis=1) + np.sum(mu[1:] * (Cq @ B2.T), axis=1))
    g2[-1] += w.Rf * (u2[-1] - 1.0)
    return C, g1, g2


def expression_em_step(positions, u1, u2, dt, L, a, b, D, noise):
    """Oracle: one Euler-Maruyama step of (n, 2) positions, as a new array.

    The drift of V = a x^2 + b y^2 and the reference shapes written as
    whole-array expressions, one temporary per operation, in the
    operation order fpcirc.particles keeps in place; then mirror
    reflection into [-L, L].
    """
    x, y = positions[:, 0], positions[:, 1]
    gvx, gvy = 2.0 * a * x, 2.0 * b * y
    bx, by = -gvx, -gvy
    if u1 != 0.0:
        k = np.pi / (2 * L)
        t = np.tan(0.5 * k * x)
        s = np.tan(0.5 * k * y)
        t2 = t * t
        s2 = s * s
        c = (-2.0 * k) / ((1.0 + t2) * (1.0 + s2))
        bx = bx - u1 * (c * t * (1.0 - s2))
        by = by - u1 * (c * s * (1.0 - t2))
    if u2 != 0.0:
        fx = x**2 / L**2 - 1.0
        fy = y**2 / L**2 - 1.0
        g = (L**2 / 4.0) * fx * fy
        bx = bx - u2 * (0.5 * y * fx - g * gvy / D)
        by = by - u2 * (-(0.5 * x * fy) + g * gvx / D)
    amp = np.sqrt(2.0 * D * dt)
    out = np.column_stack([x + dt * bx + amp * noise[:, 0], y + dt * by + amp * noise[:, 1]])
    while True:
        over, under = out > L, out < -L
        if not (over.any() or under.any()):
            return out
        out[over] = 2.0 * L - out[over]
        out[under] = -2.0 * L - out[under]


def box_muller(u, v):
    """Oracle: the normal pair (xi_x, xi_y) of uniforms u, v, as new arrays.

    The half-angle Box-Muller transform written as whole-array
    expressions, in the operation order fpcirc.particles.draw_noise
    keeps in place.
    """
    r = np.sqrt(-2.0 * np.log(1.0 - u))
    t = np.tan(np.pi * (v - 0.5))
    q = r / (1.0 + t * t)
    return q * (1.0 - t * t), 2.0 * t * q


# Readers and helpers the program does not need.


def read_scalar_csv(path, grid):
    """A field CSV written by write_scalar_csv, checked against grid's nodes."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    X, Y = grid.meshgrid()
    assert np.array_equal(data[:, 0], X.reshape(-1))
    assert np.array_equal(data[:, 1], Y.reshape(-1))
    return ScalarField(grid, data[:, 2].reshape(grid.shape))


def truncate(model, M):
    """Leading M-mode submodel of a reduced model (the basis is nested)."""
    return ReducedModel(
        model.eigenvalues[:M], model.B1[:M, :M], model.B2[:M, :M],
        model.A1[:M, :M], model.A2[:M, :M], model.A3[:M, :M],
        model.d[:M], model.c_s[:M], model.meta,
    )


def run_outputs(out):
    """Every output file of a CLI run by relative path, as bytes.

    The run's manifest.json (timings) is left out.
    """
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.relative_to(out).as_posix() != "manifest.json"
    }
