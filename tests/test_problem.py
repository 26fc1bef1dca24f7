"""Potential, shape functions, initial density and configuration."""

import json
from dataclasses import replace

import numpy as np
import pytest

from fpcirc.fields import ScalarField, integrate, make_grid, trapezoid_weights
from fpcirc.operators import stationary_density
from fpcirc.problem import (
    CostWeights,
    ExperimentConfig,
    GaussianComponent,
    InitialDensitySpec,
    QuadraticPotential,
    _grad_alpha,
    build_initial_density,
    desired_vorticity,
    horizon_steps,
    reference_problem,
    reference_shapes,
    validate_shape_bcs,
)

from conftest import bilinear_interpolate, perp_gradient


def test_quadratic_potential_values_and_gradient():
    V = QuadraticPotential(2.0, 3.0)
    assert V.value(1.0, 1.0) == 5.0
    gx, gy = V.grad(1.0, -2.0)
    assert (gx, gy) == (4.0, -12.0)


def test_quadratic_potential_rejects_nonconfining():
    with pytest.raises(ValueError):
        QuadraticPotential(0.0, 3.0)


def test_stationary_density_boltzmann_ratio(coarse_prob):
    # point (1, 0) is a node of the 41x41 grid; the normalizer cancels
    g = coarse_prob.grid
    rho = coarse_prob.rho_s
    i1 = np.argmin(np.abs(g.x - 1.0))
    i0 = np.argmin(np.abs(g.x))
    j0 = np.argmin(np.abs(g.y))
    ratio = rho.values[i1, j0] / rho.values[i0, j0]
    assert ratio == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_stationary_density_peaks_at_origin(coarse_prob):
    g = coarse_prob.grid
    k = np.argmax(coarse_prob.rho_s.values)
    i, j = np.unravel_index(k, g.shape)
    assert (g.x[i], g.y[j]) == (0.0, 0.0)


def test_stationary_density_normalized():
    g = make_grid(4.0, 61, 61)
    w = trapezoid_weights(g)
    rho = stationary_density(QuadraticPotential(2.0, 3.0), 2.0, g, w)
    assert integrate(rho, w) == pytest.approx(1.0, abs=1e-12)
    assert rho.values.min() > 0.0


def test_alpha_peak_and_boundary_normal_derivative(coarse_prob):
    shapes = coarse_prob.shapes
    g = coarse_prob.grid
    i0, j0 = np.argmin(np.abs(g.x)), np.argmin(np.abs(g.y))
    assert shapes.alpha.values[i0, j0] == pytest.approx(1.0, abs=1e-15)
    # the cosine bump has a genuinely nonzero normal derivative on the
    # open edges: d/dx at (L, 0) is -(pi/2L) sin(pi/2) = -pi/8 for L = 4
    gx, gy = shapes.grad_alpha_at(4.0, 0.0)
    assert gx == pytest.approx(-np.pi / 8.0, abs=1e-14)
    assert gy == pytest.approx(0.0, abs=1e-14)


def test_grad_alpha_at_matches_closed_form_on_closed_box(coarse_prob):
    # the particles' half-angle evaluator against the sine-cosine form of
    # the nodal table, inside the box, on its four walls and at its corners
    shapes = coarse_prob.shapes
    L = coarse_prob.grid.L
    rng = np.random.default_rng(11)
    inside = rng.uniform(-L, L, size=(2, 2000))
    edge = rng.uniform(-L, L, 50)
    wall = np.full(50, L)
    walls = np.concatenate(
        [[wall, edge], [-wall, edge], [edge, wall], [edge, -wall]], axis=1
    )
    corners = np.array([[L, L, -L, -L], [L, -L, L, -L]])
    x, y = np.concatenate([inside, walls, corners], axis=1)
    for got, want in zip(shapes.grad_alpha_at(x, y), _grad_alpha(x, y, L)):
        assert np.abs(got - want).max() <= 1e-15
    gx, gy = shapes.grad_alpha_at(L, 0.0)
    assert abs(gx + np.pi / 8.0) <= 1e-15 and abs(gy) <= 1e-15


def test_point_evaluators_write_the_same_bits_into_out(coarse_prob):
    # strided inputs, as columns of a row-major array; fresh outputs
    # against given ones, with and without given scratch
    shapes, potential = coarse_prob.shapes, coarse_prob.potential
    pts = np.random.default_rng(12).uniform(-4.0, 4.0, size=(1000, 2))
    x, y = pts[:, 0], pts[:, 1]
    vx, vy = potential.grad(x, y)
    calls = [
        (potential.grad, (x, y), None),
        (shapes.grad_alpha_at, (x, y), 3),
        (shapes.scaled_perp_phi_at, (x, y, vx, vy), 2),
    ]
    for f, args, n_work in calls:
        fresh = f(*args)
        scratch = [{}] if n_work is None else [{}, {"work": np.full((n_work, 1000), np.nan)}]
        for work in scratch:
            out = (np.full(1000, np.nan), np.full(1000, np.nan))
            given = f(*args, out=out, **work)
            assert given[0] is out[0] and given[1] is out[1]
            assert np.array_equal(fresh[0], out[0]) and np.array_equal(fresh[1], out[1])


def test_shape_bc_report_records_alpha_violation(coarse_prob):
    report = validate_shape_bcs(coarse_prob.shapes)
    assert not report.alpha_ok
    assert report.max_alpha_normal == pytest.approx(np.pi / 8.0, abs=1e-12)
    assert report.phi_ok
    assert report.max_phi_perp_normal <= 1e-8


def test_phi_vanishes_on_boundary(coarse_prob):
    phi = coarse_prob.shapes.phi.values
    edge_max = max(
        np.abs(phi[0, :]).max(),
        np.abs(phi[-1, :]).max(),
        np.abs(phi[:, 0]).max(),
        np.abs(phi[:, -1]).max(),
    )
    assert edge_max <= 1e-14


def test_scaled_perp_phi_matches_tabulated_ratio(coarse_prob):
    # closed-form (1/rho_s) perp_grad(phi) should agree with the naive
    # nodal division away from the boundary tails
    shapes = coarse_prob.shapes
    perp = shapes.perp_grad_phi
    rho = coarse_prob.rho_s.values
    sl = slice(5, -5)
    naive = perp.x.values[sl, sl] / rho[sl, sl]
    closed = shapes.scaled_perp_phi.x.values[sl, sl]
    np.testing.assert_allclose(closed, naive, rtol=5e-2, atol=1e-10)


def test_point_evaluators_match_nodal_tables(coarse_prob):
    # the particles use the closed forms, the grid operators the nodal
    # tables; both must describe the same shapes
    shapes, g = coarse_prob.shapes, coarse_prob.grid
    X, Y = g.meshgrid()
    phi = shapes.phi.values
    np.testing.assert_allclose(shapes.phi_at(X, Y), phi, rtol=1e-12, atol=1e-15 * np.abs(phi).max())
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-g.L, g.L, size=(2, 400))
    for point, table in (
        (shapes.grad_alpha_at(x, y), shapes.grad_alpha),
        (shapes.scaled_perp_phi_at(x, y, *shapes.potential.grad(x, y)), shapes.scaled_perp_phi),
    ):
        for comp, f in zip(point, (table.x, table.y)):
            err = np.abs(comp - bilinear_interpolate(f, x, y)).max()
            assert err <= 0.25 * g.dx**2 * np.abs(f.values).max()  # measured 0.04-0.12
    # perp_grad_phi is exact; the stencil one is second order
    stencil = perp_gradient(shapes.phi)
    for exact, approx in ((shapes.perp_grad_phi.x, stencil.x), (shapes.perp_grad_phi.y, stencil.y)):
        err = np.abs(exact.values - approx.values).max()
        assert err <= 2.0 * g.dx**2 * np.abs(exact.values).max()  # measured 0.8-1.2


def test_desired_vorticity_integral_shrinks_under_refinement(coarse_prob):
    # the integral of a curl vanishes in the continuum; the stencil
    # residual decays at second order, reaching 1e-6 on the fine grid
    # (asserted in the full-resolution tests)
    coarse = abs(integrate(desired_vorticity(coarse_prob.shapes), coarse_prob.w))
    assert coarse <= 5e-5

    g = make_grid(4.0, 81, 81)
    w = trapezoid_weights(g)
    rho = stationary_density(QuadraticPotential(2.0, 3.0), 2.0, g, w)
    shapes = reference_shapes(g, QuadraticPotential(2.0, 3.0), 2.0, rho)
    fine = abs(integrate(desired_vorticity(shapes), w))
    assert fine <= 0.35 * coarse


def test_desired_vorticity_negative_at_origin(coarse_prob):
    g = coarse_prob.grid
    om = desired_vorticity(coarse_prob.shapes)
    i = np.argmin(np.abs(g.x))
    j = np.argmin(np.abs(g.y))
    assert om.values[i, j] < 0.0


def test_desired_vorticity_zero_for_zero_phi(coarse_prob):
    g = coarse_prob.grid
    zero = ScalarField(g, np.zeros(g.shape))
    om = desired_vorticity(replace(coarse_prob.shapes, phi=zero))
    assert np.abs(om.values).max() == 0.0


def test_design_hash_covers_the_design_fields_only():
    base = ExperimentConfig()
    design = {"L": 5.0, "nx": 51, "ny": 61, "D": 1.5, "M": 11, "t0": -1.0,
              "tf": 2.0, "dt": 0.01, "weights": {"Q2": 3.0}, "u1_init": 0.5,
              "u2_init": 0.0}
    validation = {"seed": 7, "n_particles": 10, "coarse_nx": 8, "coarse_ny": 9,
                  "velocity_window": 3, "em_substeps": 4}
    assert set(design) | set(validation) == set(base.to_dict())
    for key, value in {**design, **validation}.items():
        changed = ExperimentConfig.from_dict({**base.to_dict(), key: value})
        assert (changed.design_hash() != base.design_hash()) == (key in design), key


def test_initial_density_spec_validation():
    with pytest.raises(ValueError):
        InitialDensitySpec(
            components=(
                GaussianComponent(0.7, (1.0, 0.0), (0.5, 0.5)),
                GaussianComponent(0.7, (-1.0, 0.0), (0.5, 0.5)),
            )
        )
    with pytest.raises(ValueError):
        InitialDensitySpec(
            components=(GaussianComponent(1.0, (0.0, 0.0), (0.0, 0.5)),)
        )


def test_initial_density_mirror_symmetric(coarse_prob, coarse_rho0):
    vals = coarse_rho0.values
    assert np.abs(vals - vals[::-1, :]).max() <= 1e-12


def test_initial_density_normalized_and_positive(coarse_prob, coarse_rho0):
    assert integrate(coarse_rho0, coarse_prob.w) == pytest.approx(1.0, abs=1e-12)
    assert coarse_rho0.values.min() > 0.0


def test_single_component_density_peaks_at_its_mean():
    g = make_grid(4.0, 41, 41)
    w = trapezoid_weights(g)
    spec = InitialDensitySpec(
        components=(GaussianComponent(1.0, (0.0, 0.0), (0.5, 0.5)),)
    )
    rho = build_initial_density(spec, g, w)
    k = np.argmax(rho.values)
    i, j = np.unravel_index(k, g.shape)
    assert (g.x[i], g.y[j]) == (0.0, 0.0)


def test_cost_weights_defaults_and_validation():
    w = CostWeights()
    assert (w.Q1, w.Q2, w.R1, w.R2, w.Qf, w.Rf) == (1e4, 10.0, 1.0, 1.0, 100.0, 1.0)
    with pytest.raises(ValueError):
        CostWeights(Q1=-1.0)


def test_config_defaults_match_reference_study():
    cfg = ExperimentConfig()
    assert (cfg.L, cfg.nx, cfg.ny, cfg.D, cfg.M) == (4.0, 101, 101, 2.0, 21)
    assert (cfg.t0, cfg.tf, cfg.dt) == (0.0, 1.0, 5e-3)
    assert horizon_steps(cfg.t0, cfg.tf, cfg.dt) == 200
    assert cfg.n_particles == 100_000
    assert (cfg.u1_init, cfg.u2_init) == (0.0, 1.0)


def test_config_json_roundtrip():
    cfg = ExperimentConfig(nx=41, ny=41, M=6, seed=7)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_keys():
    data = json.loads(ExperimentConfig().to_json())
    data["bogus"] = 1
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(data)
    data = json.loads(ExperimentConfig().to_json())
    data["weights"]["QQ"] = 1.0
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(data)


def test_config_validates_horizon_and_substeps():
    with pytest.raises(ValueError):
        ExperimentConfig(dt=0.3)  # does not divide tf - t0
    with pytest.raises(ValueError):
        ExperimentConfig(em_substeps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(tf=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(tf=float("inf"))  # an infinite horizon has no step count


def test_config_hash_sensitivity():
    a = ExperimentConfig()
    b = ExperimentConfig(seed=1)
    assert a.config_hash() != b.config_hash()
    # the eigenbasis cache key ignores fields that do not affect it
    assert a.eigen_hash() == b.eigen_hash()
    c = ExperimentConfig(M=11)
    assert a.eigen_hash() != c.eigen_hash()


def test_reference_problem_bundles_consistent_pieces(coarse_prob, coarse_cfg):
    assert coarse_prob.config == coarse_cfg
    assert coarse_prob.grid.nx == coarse_cfg.nx
    assert coarse_prob.shapes.grid == coarse_prob.grid
    assert coarse_prob.rho_s.grid == coarse_prob.grid
    assert integrate(coarse_prob.rho_s, coarse_prob.w) == pytest.approx(
        1.0, abs=1e-12
    )


def test_reference_problem_default_is_full_resolution():
    prob = reference_problem()
    assert prob.grid.shape == (101, 101)
    assert prob.grid.dx == pytest.approx(0.08)


def test_reference_shapes_standalone():
    g = make_grid(4.0, 21, 21)
    w = trapezoid_weights(g)
    rho = stationary_density(QuadraticPotential(2.0, 3.0), 2.0, g, w)
    shapes = reference_shapes(g, QuadraticPotential(2.0, 3.0), 2.0, rho)
    assert shapes.alpha.values[10, 10] == pytest.approx(1.0)
