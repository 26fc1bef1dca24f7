"""Tests for the full-grid integrator and its flux diagnostics.

The discrete design identities (column mass conservation, stationarity
of rho_s under every control, exactly zero flux at the fixed point) are
asserted at the full 101x101 resolution because they hold to rounding
on any grid; time-stepping behavior runs on the coarse fixture grid.
"""

import numpy as np
import pytest

from fpcirc.control import ControlTrajectory
from fpcirc.fields import ScalarField, curl, integrate, weighted_norm
from fpcirc.pde import DiagnosticsSeries, ImplicitStepper, compute_flux, integrate_fpe
from fpcirc.problem import desired_vorticity, reference_problem

from conftest import (
    column_mass_residual,
    direct_step,
    implicit_step,
    operator_of,
    read_scalar_csv,
    relative_error,
)


@pytest.fixture(scope="module")
def ref():
    return reference_problem()


@pytest.fixture(scope="module")
def ref_op(ref):
    return operator_of(ref)


@pytest.fixture(scope="module")
def ref_omega_d(ref):
    return desired_vorticity(ref.shapes)


# ------------------------------------------------------------------- operator


@pytest.mark.parametrize("u", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-3.0, 2.5)])
def test_controlled_operator_conserves_column_mass(ref_op, u):
    assert column_mass_residual(ref_op, *u) <= 1e-12


def test_stationary_density_is_fixed_point_of_implicit_step(ref, ref_op):
    scale = float(np.max(ref.rho_s.values))
    out0 = implicit_step(ref.rho_s, ref_op, 0.0, 0.0, 5e-3)
    assert np.max(np.abs(out0.values - ref.rho_s.values)) <= 1e-12 * scale
    out1 = implicit_step(ref.rho_s, ref_op, 0.0, 1.0, 5e-3)
    assert np.max(np.abs(out1.values - ref.rho_s.values)) <= 1e-8 * scale


def test_implicit_step_preserves_mass(ref, ref_op):
    out = implicit_step(ref.rho_s, ref_op, -2.0, 1.5, 5e-3)
    assert integrate(out, ref.w) == pytest.approx(
        integrate(ref.rho_s, ref.w), abs=1e-12
    )


def test_stepper_rejects_nonpositive_dt(ref_op):
    with pytest.raises(ValueError):
        ImplicitStepper(ref_op, 0.0)


def test_stepper_refines_with_kept_factorization(coarse_op, coarse_rho0):
    dt = 0.01
    stepper = ImplicitStepper(coarse_op, dt)
    rho = coarse_rho0.flat.copy()

    def step(u1, u2):
        nonlocal rho
        ref = direct_step(coarse_op, rho, u1, u2, dt)
        rho = stepper.step(rho, u1, u2)
        assert relative_error(rho, ref) <= 1e-10

    # repeated controls: one factorization, then one refinement sweep a step
    for _ in range(5):
        step(0.0, 1.0)
    assert stepper.n_factorizations == 1
    assert stepper.n_refine_sweeps == 4
    # small control changes are absorbed by refinement
    for u1 in (0.1, 0.2, 0.3):
        step(u1, 1.0)
    assert stepper.n_factorizations == 1
    # a jump like the optimized u1(0) from u1 = 0 needs a new factorization
    step(-58.7, 1.0)
    assert stepper.n_factorizations == 2


class _NanLU:
    def solve(self, r):
        return np.full_like(r, np.nan)


def test_stepper_refactors_when_residual_is_not_finite(coarse_op, coarse_rho0):
    stepper = ImplicitStepper(coarse_op, 0.01)
    rho = stepper.step(coarse_rho0.flat, 0.0, 0.0)
    stepper._lu = _NanLU()  # a kept LU whose corrections are not finite
    ref = direct_step(coarse_op, rho, 0.5, 1.0, 0.01)
    out = stepper.step(rho, 0.5, 1.0)
    assert stepper.n_factorizations == 2
    assert relative_error(out, ref) <= 1e-10


# ----------------------------------------------------------------------- flux


def test_flux_is_exactly_zero_at_stationary_point(ref):
    flux = compute_flux(ref.rho_s, 0.0, 0.0, ref.shapes, ref.rho_s)
    assert flux.max_norm() == 0.0


def test_circulating_control_reproduces_desired_vorticity(ref, ref_omega_d):
    # u = (0, 1) at rho_s must realize the target vorticity field up to
    # stencil truncation
    flux = compute_flux(ref.rho_s, 0.0, 1.0, ref.shapes, ref.rho_s)
    om = curl(flux)
    diff = ScalarField(ref.grid, om.values - ref_omega_d.values)
    rel = weighted_norm(diff, ref.rho_s, ref.w) / weighted_norm(
        ref_omega_d, ref.rho_s, ref.w
    )
    assert rel <= 0.02


def test_desired_vorticity_integrates_to_zero_at_reference_resolution(
    ref, ref_omega_d
):
    assert abs(integrate(ref_omega_d, ref.w)) <= 1e-6


# ---------------------------------------------------------------- diagnostics


def test_diagnostics_series_csv_roundtrip(tmp_path):
    series = DiagnosticsSeries(
        times=np.array([0.0, 0.1, 0.2]),
        e_rho=np.array([1.0, 0.5, 0.25]),
        e_omega=np.array([2.0, 1.0, 0.5]),
        mass=np.array([1.0, 1.0, 1.0]),
    )
    path = tmp_path / "diag.csv"
    series.write_csv(path)
    assert path.read_text().splitlines()[0] == "t,e_rho,e_omega,mass"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    for column, name in zip(back.T, ("times", "e_rho", "e_omega", "mass")):
        assert np.array_equal(column, getattr(series, name))


# ---------------------------------------------------------------- integration


def test_integrate_rejects_grid_mismatch(ref, coarse_op):
    traj = ControlTrajectory.from_constant(0.0, 0.1, 0.01, 0.0, 0.0)
    omega_d = desired_vorticity(ref.shapes)
    with pytest.raises(ValueError):
        integrate_fpe(coarse_op, ref.rho_s, traj, ref.shapes, omega_d)


def test_uncontrolled_integration_relaxes_toward_stationary(
    coarse_op, coarse_prob, coarse_rho0, tmp_path
):
    cfg = coarse_prob.config
    traj = ControlTrajectory.from_constant(0.0, 0.2, cfg.dt, 0.0, 0.0)
    omega_d = desired_vorticity(coarse_prob.shapes)
    seen = []
    result = integrate_fpe(
        coarse_op,
        coarse_rho0,
        traj,
        coarse_prob.shapes,
        omega_d,
        snapshot_every=20,
        snapshot_dir=tmp_path,
        callback=lambda k, t, rho: seen.append((k, t)),
    )
    K = traj.n_steps
    series = result.series

    # conservation: every recorded mass within 1e-10 of the initial one
    assert np.max(np.abs(series.mass - series.mass[0])) <= 1e-10
    # relaxation: deviation from rho_s strictly decreasing without control
    assert all(b < a for a, b in zip(series.e_rho, series.e_rho[1:]))
    # constant controls need exactly one factorization
    assert result.n_factorizations == 1
    # stencil-evaluated boundary flux stays a small fraction of max |J|
    assert result.boundary_flux_ratio_max <= 1e-2

    assert len(seen) == K + 1
    assert seen[0] == (0, 0.0)
    assert seen[-1][1] == pytest.approx(traj.tf)

    snaps = sorted(tmp_path.glob("rho_*.csv"))
    assert [p.name for p in snaps] == ["rho_00000.csv", "rho_00020.csv", "rho_00040.csv"]
    first = read_scalar_csv(snaps[0], coarse_prob.grid)
    assert np.array_equal(first.values, coarse_rho0.values)


def test_final_density_matches_last_callback(coarse_op, coarse_prob, coarse_rho0):
    cfg = coarse_prob.config
    traj = ControlTrajectory.from_constant(0.0, 0.05, cfg.dt, 0.5, 1.0)
    omega_d = desired_vorticity(coarse_prob.shapes)
    last = {}
    result = integrate_fpe(
        coarse_op,
        coarse_rho0,
        traj,
        coarse_prob.shapes,
        omega_d,
        callback=lambda k, t, rho: last.update(k=k, values=rho.values.copy()),
    )
    assert last["k"] == traj.n_steps
    assert np.array_equal(result.final_density.values, last["values"])
