"""Acceptance suite for the full-resolution reference study.

One test per acceptance criterion, so `pytest -v` emits one PASSED or
FAILED line per criterion.  Session fixtures run the expensive stages
(eigenbasis, control optimization, PDE integrations, particle
ensembles) exactly once and carry their wall-clock times into the
runtime gates.  Criteria that `fpcirc validate` also grades go through
the same rules in fpcirc.gates.  Informational values print with -s /
on failure.
"""

import time

import numpy as np
import pytest

from fpcirc import gates
from fpcirc.cli import _basis_dir, main as cli_main
from fpcirc.control import (
    ControlTrajectory,
    check_gradient,
    objective,
    optimize,
    rollout_state,
)
from fpcirc.fields import ScalarField, weighted_norm
from fpcirc.operators import assemble_generator, eigenbasis
from fpcirc.particles import (
    angular_momentum,
    histogram_tv_distance,
    sample_initial,
    simulate,
)
from fpcirc.pde import compute_flux, controlled_operator, integrate_fpe, vorticity_error
from fpcirc.problem import (
    ExperimentConfig,
    build_initial_density,
    desired_vorticity,
    reference_problem,
)
from fpcirc.reduction import assemble_reduced_model, project, reconstruct, reduced_rhs

from conftest import gram_matrix, run_outputs, truncate


@pytest.fixture(scope="session")
def study():
    return reference_problem()


@pytest.fixture(scope="session")
def study_basis(study):
    t0 = time.perf_counter()
    gen = assemble_generator(study.potential, study.config.D, study.grid)
    basis = eigenbasis(gen, study.rho_s, study.config.M)
    return basis, time.perf_counter() - t0


@pytest.fixture(scope="session")
def study_model(study, study_basis):
    basis, _ = study_basis
    return assemble_reduced_model(
        basis, study.shapes, study.potential, study.config.D,
        desired_vorticity(study.shapes),
    )


@pytest.fixture(scope="session")
def study_rho0(study):
    return build_initial_density(study.initial, study.grid, study.w)


@pytest.fixture(scope="session")
def study_c0(study_rho0, study_basis):
    return project(study_rho0, study_basis[0])


@pytest.fixture(scope="session")
def initial_traj(study):
    cfg = study.config
    return ControlTrajectory.from_constant(
        cfg.t0, cfg.tf, cfg.dt, cfg.u1_init, cfg.u2_init
    )


@pytest.fixture(scope="session")
def study_opt(study, study_model, study_c0, initial_traj):
    t0 = time.perf_counter()
    report = optimize(
        study_model, initial_traj, study_c0, study.config.weights,
        gtol=1e-8, max_iterations=2000,
    )
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def study_pde(study, study_basis, study_model, study_c0, study_rho0, study_opt):
    basis, _ = study_basis
    cfg = study.config
    report, _ = study_opt
    traj = report.trajectory
    op = controlled_operator(study.grid, study.potential, cfg.D, study.shapes, study.rho_s)
    omega_d = desired_vorticity(study.shapes)
    init_err = weighted_norm(
        ScalarField(study.grid, study_rho0.values - study.rho_s.values),
        study.rho_s, study.w,
    )
    C = rollout_state(study_model, traj, study_c0)
    ratios = np.empty(traj.n_steps + 1)

    def track(k, t, field):
        recon = reconstruct(C[k], basis)
        dev = ScalarField(study.grid, recon.values - field.values)
        ratios[k] = weighted_norm(dev, study.rho_s, study.w) / init_err

    res_opt = integrate_fpe(
        op, study_rho0, traj, study.rho_s, study.shapes, omega_d, cfg.D,
        callback=track,
    )
    u_zero = ControlTrajectory.from_constant(cfg.t0, cfg.tf, cfg.dt, 0.0, 0.0)
    res_unc = integrate_fpe(
        op, study_rho0, u_zero, study.rho_s, study.shapes, omega_d, cfg.D
    )
    return {"opt": res_opt, "unc": res_unc, "ratios": ratios, "init_err": init_err}


@pytest.fixture(scope="session")
def study_particles(study, study_opt):
    cfg = study.config
    traj = study_opt[0].trajectory
    u_zero = ControlTrajectory.from_constant(cfg.t0, cfg.tf, cfg.dt, 0.0, 0.0)
    t0 = time.perf_counter()
    ens = sample_initial(study.initial, cfg.n_particles, cfg.seed, cfg.L)
    opt, unc = simulate(
        ens, [traj, u_zero], study.shapes, study.potential, cfg.D,
        velocity_window=cfg.velocity_window, em_substeps=cfg.em_substeps,
    )
    runs = {"opt": opt, "unc": unc, "elapsed": time.perf_counter() - t0}
    return runs


@pytest.fixture(scope="session")
def mode_sweep(study, study_model, study_c0, initial_traj, study_opt):
    """Optimal controls for nested truncations, scored on the common model."""
    weights = study.config.weights
    own, cross = [], []
    for M in (6, 11, 16):
        sub = truncate(study_model, M)
        rep = optimize(
            sub, initial_traj, study_c0[:M], weights,
            gtol=1e-8, max_iterations=600,
        )
        own.append(rep.objective)
        cross.append(objective(study_model, rep.trajectory, study_c0, weights))
    own.append(study_opt[0].objective)
    cross.append(study_opt[0].objective)
    return own, cross


# ----------------------------------------------------------------- criterion 1


def test_criterion_1_spectral_basis_accuracy(study_basis):
    basis, elapsed = study_basis
    lam = basis.eigenvalues
    print(f"eigenbasis: lambda[:3] = {lam[:3]}, elapsed {elapsed:.1f}s")
    assert abs(lam[0]) <= 1e-8
    assert abs(lam[1] - (-4.0)) <= 0.02 * 4.0
    assert abs(lam[2] - (-6.0)) <= 0.02 * 6.0
    G = gram_matrix(basis)
    assert np.max(np.abs(G - np.eye(basis.M))) <= 1e-8
    assert elapsed <= 300.0


# ----------------------------------------------------------------- criterion 2


def test_criterion_2_reduced_model_identities(study_model):
    model = study_model
    e0 = np.zeros(model.M)
    e0[0] = 1.0
    # mass row: neither control moves total probability
    assert np.max(np.abs(model.B1[0])) <= 1e-8
    assert np.max(np.abs(model.B2[0])) <= 1e-8
    # the circulation control leaves the stationary state fixed
    assert np.max(np.abs(model.B2 @ e0)) <= 1e-8
    # at the stationary state the vorticity residual is u2 d - d
    dev = np.linalg.norm((model.A1 + model.A3) @ e0 - model.d)
    assert dev <= 1e-3 * np.linalg.norm(model.d)
    for u2 in (0.0, 0.5, 1.0, 2.0):
        assert np.max(np.abs(reduced_rhs(model, e0, 0.0, u2))) <= 1e-8


# ----------------------------------------------------------------- criterion 3


def test_criterion_3_adjoint_gradient_accuracy(
    study, study_model, study_c0, initial_traj
):
    worst = check_gradient(
        study_model, initial_traj, study_c0, study.config.weights,
        n_directions=20, eps=1e-6, seed=0,
    )
    print(f"gradient check: max relative error {worst:.3e}")
    assert worst <= 1e-6


# ----------------------------------------------------------------- criterion 4


def test_criterion_4_optimizer_solution_quality(study_opt):
    report, elapsed = study_opt
    traj = report.trajectory
    k_mid = round((0.5 - traj.t0) / traj.dt)
    print(
        f"J* = {report.objective:.6f}, u1(0) = {traj.u1[0]:.3f}, "
        f"u1(0.5) = {traj.u1[k_mid]:.4f}, u1(tf) = {traj.u1[-1]:.2e}, "
        f"u2(tf) = {traj.u2[-1]:.6f}, stationarity = {report.stationarity:.3e}, "
        f"{report.n_iterations} iterations in {elapsed:.1f}s"
    )
    # strong initial kick toward the stationary shape, then release
    assert traj.u1[0] < -1.0
    assert -0.5 <= traj.u1[k_mid] <= 0.2
    assert abs(traj.u1[-1]) <= 0.1
    # circulation control hands over to the steady value 1
    assert abs(traj.u2[-1] - 1.0) <= 0.1
    hist = report.objective_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert report.stationarity <= 1e-6 * (1.0 + abs(report.objective))
    assert elapsed <= 120.0


# ----------------------------------------------------------------- criterion 5


def test_criterion_5_pde_relaxation_and_mass(study, study_pde, study_basis, study_c0):
    basis, _ = study_basis
    cfg = study.config
    res_opt, res_unc = study_pde["opt"], study_pde["unc"]
    assert gates.mass_gate(res_opt.series.mass)["pass"]
    assert gates.mass_gate(res_unc.series.mass)["pass"]
    assert gates.improvement_gate(res_opt.series.e_rho, res_unc.series.e_rho)["pass"]

    # the symmetric initial mixture carries no odd modes (1 and 2), so
    # free decay runs at the first even surviving rate, not the gap -4
    decay = gates.decay_rate_gate(res_unc.series, basis.eigenvalues, study_c0, cfg.t0, cfg.tf)
    print(
        f"uncontrolled decay slope {decay['value']:.4f} vs surviving rate "
        f"{decay['target']:.4f} (deviation from the gap -4: {abs(decay['value'] + 4.0):.2f})"
    )
    assert decay["target"] == basis.eigenvalues[3]
    assert decay["pass"]


# ----------------------------------------------------------------- criterion 6


def test_criterion_6_reduced_tracks_full_solution(
    study, study_pde, study_basis, study_rho0
):
    basis, _ = study_basis
    cfg = study.config
    ratios = study_pde["ratios"]
    gate = gates.consistency_gate(ratios, cfg.t0, cfg.tf, cfg.dt)
    print(
        f"consistency: ratio(0) = {ratios[0]:.4f}, "
        f"max over t >= {gate['window_t_min']}: {gate['value']:.4f}"
    )
    assert gate["pass"]

    # the t = 0 ratio is pure truncation error, reproducible independently
    proj = reconstruct(project(study_rho0, basis), basis)
    trunc = weighted_norm(
        ScalarField(study.grid, proj.values - study_rho0.values),
        study.rho_s, study.w,
    ) / study_pde["init_err"]
    assert ratios[0] == pytest.approx(trunc, rel=1e-12)
    assert trunc == pytest.approx(0.2365, abs=2e-3)


# ----------------------------------------------------------------- criterion 7


def test_criterion_7_particle_circulation(study_particles):
    am_opt = angular_momentum(study_particles["opt"][1], gates.CIRCULATION_RADIUS)
    am_unc = angular_momentum(study_particles["unc"][1], gates.CIRCULATION_RADIUS)
    print(
        f"circulation z-scores: optimized {am_opt.z_score:.1f} "
        f"(mean {am_opt.mean:.4f}), uncontrolled {am_unc.z_score:.2f}; "
        f"particle stage {study_particles['elapsed']:.1f}s"
    )
    # clockwise circulation: decisively negative under the optimal control
    assert gates.circulation_optimized_gate(am_opt)["pass"]
    # and statistically absent without control
    assert gates.circulation_uncontrolled_gate(am_unc)["pass"]
    assert study_particles["elapsed"] <= 180.0


# ----------------------------------------------------------------- criterion 8


def test_criterion_8_objective_converges_with_mode_count(mode_sweep):
    own, cross = mode_sweep
    print(f"own-model optima for M = 6, 11, 16, 21: {np.round(own, 6)}")
    print(f"scored on the common 21-mode objective: {np.round(cross, 6)}")
    # richer nested bases give controls that do better on the common
    # objective, with shrinking returns
    assert all(b < a for a, b in zip(cross, cross[1:]))
    diffs = [a - b for a, b in zip(cross, cross[1:])]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


# ----------------------------------------------------------------- criterion 9


def test_criterion_9_deterministic_artifacts(tmp_path):
    cfg = ExperimentConfig(
        nx=41, ny=41, n_particles=4000, coarse_nx=10, coarse_ny=10, em_substeps=2
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main([
            "all", "--config", str(cfg_path), "--out", str(out),
            "--max-iters", "400",
        ])
        assert rc == 0
        outputs.append(run_outputs(out))
    basis = _basis_dir(out, cfg).name
    assert set(outputs[0]) == {
        "config.json", "rho_s.csv", "omega_d.csv", "controls.csv", "reduced_model.json",
        "reduced_states.csv", "report.json", "diagnostics_optimized.csv",
        "diagnostics_uncontrolled.csv", "flux_estimate.csv", "validation_summary.json",
        f"{basis}/eigenvalues.csv", f"{basis}/basis.npz", f"{basis}/manifest.json",
    }
    assert outputs[0] == outputs[1]


# -------------------------------------------------------------- supplementary


def test_particle_histograms_match_pde_density(study, study_pde, study_particles):
    cfg = study.config
    for name in ("opt", "unc"):
        ens, _ = study_particles[name]
        tv, budget = histogram_tv_distance(
            ens, study_pde[name].final_density, study.w, cfg.coarse_nx, cfg.coarse_ny
        )
        print(f"{name}: TV {tv:.4f} vs budget {budget:.4f}")
        assert gates.tv_gate(tv, budget)["pass"]


def test_vorticity_settles_to_target(study, study_pde, study_rho0):
    e_initial = vorticity_error(
        compute_flux(study_rho0, 0.0, 1.0, study.shapes, study.rho_s, study.config.D),
        desired_vorticity(study.shapes), study.rho_s, study.w,
    )
    ratio = gates.settling_ratio(study_pde["opt"].series.e_omega[-1], e_initial)
    print(f"vorticity settling ratio {ratio:.5f}")
    assert ratio <= gates.SETTLING_MAX
