"""Projection, reconstruction and the reduced bilinear model."""

import json
from dataclasses import replace

import numpy as np
import pytest

from fpcirc.fields import ScalarField, weighted_norm
from fpcirc.pde import compute_flux
from fpcirc.problem import desired_vorticity
from fpcirc.reduction import assemble_reduced_model, project, reconstruct, reduced_rhs

from conftest import assert_unit_vector, truncate


def test_project_stationary_density_is_e0(coarse_basis, coarse_prob):
    c = project(coarse_prob.rho_s, coarse_basis)
    assert_unit_vector(c, 0, atol=1e-10)


def test_project_linearity_picks_out_modes(coarse_basis, coarse_prob):
    g = coarse_prob.grid
    f = ScalarField(
        g, coarse_prob.rho_s.values + coarse_basis.modes[3]
    )
    c = project(f, coarse_basis)
    expect = np.zeros(coarse_basis.M)
    expect[0] = 1.0
    expect[3] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-8)


def test_project_initial_density(coarse_c0, coarse_basis):
    assert coarse_c0[0] == pytest.approx(1.0, abs=1e-10)
    # modes odd in x carry no weight: the initial mixture is x-even
    Vm = coarse_basis.modes_flat()
    g = coarse_basis.grid
    modes = Vm.reshape(coarse_basis.M, g.nx, g.ny)
    scale = np.linalg.norm(coarse_c0)
    for m in range(coarse_basis.M):
        odd_in_x = np.abs(modes[m] + modes[m][::-1, :]).max() <= 1e-6 * np.abs(
            modes[m]
        ).max()
        if odd_in_x:
            assert abs(coarse_c0[m]) <= 1e-8 * scale


def test_reconstruct_e0_is_stationary_density(coarse_basis, coarse_prob):
    e0 = np.zeros(coarse_basis.M)
    e0[0] = 1.0
    f = reconstruct(e0, coarse_basis)
    np.testing.assert_array_equal(f.values, coarse_prob.rho_s.values)


def test_projection_idempotent(coarse_basis):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(coarse_basis.M)
    back = project(reconstruct(c, coarse_basis), coarse_basis)
    np.testing.assert_allclose(back, c, atol=1e-10)


def test_reconstruction_error_decreases_with_mode_count(
    coarse_basis, coarse_prob, coarse_rho0
):
    import dataclasses

    errs = []
    for M in (3, 6, 9, 12):
        sub = dataclasses.replace(
            coarse_basis,
            eigenvalues=coarse_basis.eigenvalues[:M],
            modes=coarse_basis.modes[:M],
        )
        c = project(coarse_rho0, sub)
        diff = ScalarField(
            coarse_prob.grid,
            reconstruct(c, sub).values - coarse_rho0.values,
        )
        errs.append(weighted_norm(diff, coarse_prob.rho_s, coarse_prob.w))
    # Nested projections are non-increasing; steps that add only modes with
    # zero coefficient (odd parity vs the symmetric rho0) stay exactly flat.
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.9 * errs[0]


def test_model_stationary_coefficients(coarse_model):
    assert_unit_vector(coarse_model.c_s, 0, atol=1e-10)
    assert abs(coarse_model.eigenvalues[0]) <= 1e-8


def test_model_mass_rows_vanish(coarse_model):
    assert np.abs(coarse_model.B1[0, :]).max() <= 1e-8
    assert np.abs(coarse_model.B2[0, :]).max() <= 1e-8


def test_model_rotation_preserves_stationarity(coarse_model):
    e0 = np.zeros(coarse_model.M)
    e0[0] = 1.0
    assert np.abs(coarse_model.B2 @ e0).max() <= 1e-8


def test_model_vorticity_consistency_at_stationarity(coarse_model):
    e0 = np.zeros(coarse_model.M)
    e0[0] = 1.0
    d = coarse_model.d
    assert np.linalg.norm(coarse_model.A1 @ e0) <= 1e-8 * np.linalg.norm(d)
    resid = (coarse_model.A1 + coarse_model.A3) @ e0 - d
    assert np.linalg.norm(resid) <= 1e-3 * np.linalg.norm(d)


def test_reduced_rhs_stationary_for_pure_rotation(coarse_model):
    e0 = np.zeros(coarse_model.M)
    e0[0] = 1.0
    for u2 in (0.0, 1.0, 2.5):
        assert np.abs(reduced_rhs(coarse_model, e0, 0.0, u2)).max() <= 1e-8


def test_reduced_rhs_uncontrolled_is_diagonal(coarse_model):
    rng = np.random.default_rng(4)
    c = rng.standard_normal(coarse_model.M)
    got = reduced_rhs(coarse_model, c, 0.0, 0.0)
    np.testing.assert_array_equal(got, coarse_model.eigenvalues * c)


def test_model_save_load_roundtrip(tmp_path, coarse_model):
    p = tmp_path / "model.json"
    coarse_model.save(p)
    back = json.loads(p.read_text())
    assert back["M"] == coarse_model.M
    for name in ("eigenvalues", "B1", "B2", "A1", "A2", "A3", "d", "c_s"):
        np.testing.assert_array_equal(np.asarray(back[name]), getattr(coarse_model, name))
    assert back["meta"] == coarse_model.meta


def test_model_truncation(coarse_model, coarse_basis, coarse_prob):
    # the basis is nested: the leading block of the model is the model
    # of the leading modes, as criterion 8's mode sweep assumes
    sub = truncate(coarse_model, 5)
    basis5 = replace(
        coarse_basis, eigenvalues=coarse_basis.eigenvalues[:5], modes=coarse_basis.modes[:5]
    )
    direct = assemble_reduced_model(
        basis5, coarse_prob.shapes, coarse_prob.potential, coarse_prob.config.D,
        desired_vorticity(coarse_prob.shapes),
    )
    assert sub.M == direct.M == 5
    for name in ("eigenvalues", "B1", "B2", "A1", "A2", "A3", "d", "c_s"):
        got, ref = getattr(sub, name), getattr(direct, name)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_model_shape_validation(coarse_model):
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(coarse_model, B1=coarse_model.B1[:-1, :])


def test_flux_vanishes_at_stationarity(coarse_basis, coarse_prob):
    e0 = np.zeros(coarse_basis.M)
    e0[0] = 1.0
    J = compute_flux(
        reconstruct(e0, coarse_basis), 0.0, 0.0, coarse_prob.shapes,
        coarse_basis.rho_s, coarse_prob.config.D,
    )
    assert J.max_norm() == 0.0
