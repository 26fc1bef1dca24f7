"""Generator assembly, spectral basis and control operators."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fpcirc.fields import ScalarField, VectorField
from fpcirc.operators import (
    EigensolverError,
    SpectralBasis,
    assemble_control_operators,
    eigenbasis,
    selfadjointness_report,
)
from fpcirc.problem import ExperimentConfig, ShapeFunctions, reference_problem

from conftest import divergence, gram_matrix, mass_conservation_residual, operator_of


def test_generator_conserves_mass(coarse_op):
    assert mass_conservation_residual(coarse_op.base, coarse_op.w) <= 1e-12


def test_generator_annihilates_stationary_density(coarse_op, coarse_prob):
    r = coarse_op.base @ coarse_prob.rho_s.flat
    scale = np.abs(coarse_op.base).max()
    assert np.abs(r).max() / scale <= 1e-4  # measured: machine precision


def test_generator_weighted_selfadjoint(coarse_op):
    assert selfadjointness_report(coarse_op) <= 1e-12


def test_selfadjointness_detects_asymmetric_perturbation(coarse_op):
    rng = np.random.default_rng(0)
    n = coarse_op.grid.n_nodes
    rows = rng.integers(0, n, size=200)
    cols = rng.integers(0, n, size=200)
    vals = rng.standard_normal(200)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    wv = coarse_op.w.flat / coarse_op.rho_s.flat
    W = sp.diags(wv)
    base = sp.linalg.norm(W @ coarse_op.base)
    eps = 1e-3 * base / sp.linalg.norm(W @ P)
    perturbed = replace(coarse_op, base=(coarse_op.base + eps * P).tocsr())
    got = selfadjointness_report(perturbed)
    # the residual of K + eps*P is within a factor ~2 of eps*||WP||/||WK||
    assert 3e-4 <= got <= 3e-3


def test_eigenbasis_zero_mode(coarse_basis, coarse_prob):
    assert abs(coarse_basis.eigenvalues[0]) <= 1e-8
    np.testing.assert_array_equal(coarse_basis.modes[0], coarse_prob.rho_s.values)


def test_eigenbasis_ordering_and_sign_of_spectrum(coarse_basis):
    lam = coarse_basis.eigenvalues
    assert np.all(np.diff(lam) < 0.0)
    assert np.all(lam[1:] < -1e-6)


def test_eigenbasis_gram_identity(coarse_basis):
    G = gram_matrix(coarse_basis)
    assert np.abs(G - np.eye(coarse_basis.M)).max() <= 1e-8


def test_eigenvalues_converge_at_second_order():
    # analytic rates for V = 2x^2 + 3y^2, D = 2 are -(4 nx + 6 ny)
    errs = {}
    for n in (21, 41):
        op = operator_of(reference_problem(ExperimentConfig(nx=n, ny=n, M=3)))
        basis = eigenbasis(op, 3)
        errs[n] = abs(basis.eigenvalues[1] - (-4.0)) / 4.0
    ratio = errs[21] / errs[41]
    assert 2.5 <= ratio <= 6.0  # second-order refinement, dx halves


def test_eigenbasis_rejects_oversized_mode_count():
    op = operator_of(reference_problem(ExperimentConfig(nx=5, ny=5)))
    with pytest.raises(EigensolverError):
        eigenbasis(op, 30)
    with pytest.raises(EigensolverError):
        eigenbasis(op, 9, cap=8)


def test_eigenbasis_sign_convention(coarse_basis):
    for vals in coarse_basis.modes:
        k = np.argmax(np.abs(vals))
        assert vals.flat[k] > 0.0


def test_iterative_and_dense_paths_agree(coarse_op, coarse_prob):
    dense = eigenbasis(coarse_op, 6)
    iterative = eigenbasis(coarse_op, 6, dense_threshold=0)
    np.testing.assert_allclose(
        iterative.eigenvalues, dense.eigenvalues, rtol=1e-9, atol=1e-9
    )
    # compare spectral projectors (eigenvector signs/rotations may differ
    # inside near-degenerate clusters)
    wv = coarse_op.w.flat / coarse_prob.rho_s.flat
    Vd = dense.modes_flat()
    Vi = iterative.modes_flat()
    Pd = Vd.T @ (Vd * wv)
    Pi = Vi.T @ (Vi * wv)
    assert np.abs(Pd - Pi).max() <= 1e-7


def test_basis_save_load_roundtrip(tmp_path, coarse_basis):
    d = tmp_path / "basis"
    coarse_basis.save(d)
    back = SpectralBasis.load(d)
    np.testing.assert_array_equal(back.eigenvalues, coarse_basis.eigenvalues)
    np.testing.assert_array_equal(back.modes_flat(), coarse_basis.modes_flat())
    np.testing.assert_array_equal(back.rho_s.values, coarse_basis.rho_s.values)
    assert back.grid == coarse_basis.grid
    assert back.residuals == coarse_basis.residuals


def test_basis_save_is_deterministic(tmp_path, coarse_basis):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        coarse_basis.save(d)
    contents = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
    assert set(contents[0]) == {"eigenvalues.csv", SpectralBasis.ARRAYS_FILE, "manifest.json"}
    assert contents[0] == contents[1]


def test_control_operators_conserve_mass(coarse_op):
    k_alpha, k_phi, w = coarse_op.k_alpha, coarse_op.k_phi, coarse_op.w
    assert np.abs(w.flat @ k_alpha).max() <= 1e-12 * np.abs(k_alpha).max()
    assert np.abs(w.flat @ k_phi).max() <= 1e-12 * np.abs(k_phi).max()


def test_rotational_operator_annihilates_stationary_density(coarse_op):
    k_phi = coarse_op.k_phi
    r = k_phi @ coarse_op.rho_s.flat
    assert np.abs(r).max() <= 1e-8 * np.abs(k_phi).max()


def test_control_operators_do_not_use_particle_evaluator(coarse_prob, monkeypatch):
    # K_alpha takes its face velocities from the sine-cosine closed form of
    # the nodal table; the particles' evaluator must not leak into its bits
    args = (coarse_prob.shapes, coarse_prob.rho_s, coarse_prob.w)
    k_alpha, _ = assemble_control_operators(*args)

    def refuse(self, x, y):
        raise AssertionError("grid operator called the particle evaluator")

    monkeypatch.setattr(ShapeFunctions, "grad_alpha_at", refuse)
    again, _ = assemble_control_operators(*args)
    for a, b in ((k_alpha.indptr, again.indptr), (k_alpha.indices, again.indices),
                 (k_alpha.data, again.data)):
        assert np.array_equal(a, b)


def test_alpha_operator_matches_stencil_divergence(coarse_op, coarse_prob):
    k_alpha = coarse_op.k_alpha
    g = coarse_prob.grid
    rho = coarse_prob.rho_s
    ga = coarse_prob.shapes.grad_alpha
    F = VectorField(
        g,
        ScalarField(g, rho.values * ga.x.values),
        ScalarField(g, rho.values * ga.y.values),
    )
    stencil = divergence(F).values
    fv = (k_alpha @ rho.flat).reshape(g.shape)
    # interior agreement at O(dx^2); both forms are consistent
    # discretizations of the same drift divergence
    sl = slice(2, -2)
    scale = np.abs(stencil[sl, sl]).max()
    diff = np.abs(fv[sl, sl] - stencil[sl, sl]).max()
    assert diff <= 5.0 * g.dx**2 * scale
