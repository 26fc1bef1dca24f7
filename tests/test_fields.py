"""Grid, quadrature, stencil calculus and field I/O."""

import csv

import numpy as np
import pytest

from fpcirc.fields import (
    FLOAT_FMT,
    ScalarField,
    VectorField,
    _write_rows,
    boundary_max_normal,
    curl,
    gradient,
    integrate,
    laplacian,
    make_grid,
    trapezoid_weights,
    weighted_inner,
    weighted_norm,
    write_scalar_csv,
)

from conftest import bilinear_interpolate, divergence, perp_gradient, read_scalar_csv


def field_of(grid, fn):
    X, Y = grid.meshgrid()
    return ScalarField(grid, fn(X, Y))


def test_grid_spacing():
    g = make_grid(1.0, 5, 5)
    assert g.dx == 0.5
    assert g.dy == 0.5


def test_grid_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        make_grid(4.0, 2, 101)


def test_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        make_grid(0.0, 11, 11)


def test_integrate_constant_is_area():
    g = make_grid(4.0, 33, 17)
    w = trapezoid_weights(g)
    assert integrate(field_of(g, lambda x, y: np.ones_like(x)), w) == pytest.approx(
        64.0, rel=1e-14
    )


def test_integrate_odd_function_vanishes():
    g = make_grid(4.0, 41, 41)
    w = trapezoid_weights(g)
    assert abs(integrate(field_of(g, lambda x, y: x), w)) < 1e-13


def test_weighted_inner_rho_s_normalization(coarse_prob):
    val = weighted_inner(
        coarse_prob.rho_s, coarse_prob.rho_s, coarse_prob.rho_s, coarse_prob.w
    )
    assert val == pytest.approx(1.0, abs=1e-6)


def test_weighted_inner_symmetry(coarse_prob):
    rng = np.random.default_rng(3)
    g = coarse_prob.grid
    p = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    q = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    a = weighted_inner(p, q, coarse_prob.rho_s, coarse_prob.w)
    b = weighted_inner(q, p, coarse_prob.rho_s, coarse_prob.w)
    assert a == pytest.approx(b, rel=1e-14)


def test_weighted_norm_scales_linearly(coarse_prob):
    g = coarse_prob.grid
    p = field_of(g, lambda x, y: np.sin(x) * y)
    n1 = weighted_norm(p, coarse_prob.rho_s, coarse_prob.w)
    p3 = ScalarField(g, 3.0 * p.values)
    assert weighted_norm(p3, coarse_prob.rho_s, coarse_prob.w) == pytest.approx(
        3.0 * n1, rel=1e-13
    )


def test_gradient_exact_on_quadratic():
    g = make_grid(4.0, 21, 31)
    f = field_of(g, lambda x, y: 2.0 * x**2 + 3.0 * y**2)
    gr = gradient(f)
    X, Y = g.meshgrid()
    np.testing.assert_allclose(gr.x.values[1:-1, :], 4.0 * X[1:-1, :], atol=1e-12)
    np.testing.assert_allclose(gr.y.values[:, 1:-1], 6.0 * Y[:, 1:-1], atol=1e-12)


def test_laplacian_exact_on_quadratic():
    g = make_grid(4.0, 21, 21)
    f = field_of(g, lambda x, y: x**2 + y**2)
    lap = laplacian(f)
    np.testing.assert_allclose(lap.values[1:-1, 1:-1], 4.0, atol=1e-12)


def test_curl_of_gradient_vanishes():
    # mixed second differences commute for tensor-product stencils
    g = make_grid(2.0, 19, 23)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    c = curl(gradient(f))
    assert np.abs(c.values).max() < 1e-12


def test_divergence_of_perp_gradient_vanishes():
    g = make_grid(2.0, 19, 23)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    d = divergence(perp_gradient(f))
    assert np.abs(d.values).max() < 1e-12


def test_perp_gradient_orthogonal_to_gradient():
    g = make_grid(2.0, 15, 15)
    f = field_of(g, lambda x, y: np.sin(x + 0.3 * y))
    gr, pg = gradient(f), perp_gradient(f)
    dot = gr.x.values * pg.x.values + gr.y.values * pg.y.values
    assert np.abs(dot).max() < 1e-12


def test_bilinear_interpolation_at_nodes_and_centers():
    g = make_grid(1.0, 5, 5)
    f = field_of(g, lambda x, y: x + 2.0 * y)
    assert bilinear_interpolate(f, 0.5, -0.5) == pytest.approx(-0.5, abs=1e-14)
    # linear functions are reproduced everywhere
    assert bilinear_interpolate(f, 0.21, 0.37) == pytest.approx(0.95, abs=1e-14)


def test_boundary_max_normal_reads_edge_components():
    g = make_grid(1.0, 5, 5)
    zx = np.zeros((5, 5))
    zy = np.zeros((5, 5))
    zx[0, 2] = 0.7  # normal component on the x = -L edge
    F = VectorField(g, ScalarField(g, zx), ScalarField(g, zy))
    assert boundary_max_normal(F) == pytest.approx(0.7)
    F0 = VectorField(g, ScalarField(g, np.zeros((5, 5))), ScalarField(g, np.zeros((5, 5))))
    assert boundary_max_normal(F0) == 0.0


def test_scalar_csv_roundtrip_exact(tmp_path):
    g = make_grid(4.0, 9, 7)
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.standard_normal((9, 7)))
    path = tmp_path / "f.csv"
    write_scalar_csv(f, path)
    back = read_scalar_csv(path, g)
    np.testing.assert_array_equal(back.values, f.values)


def test_write_rows_matches_csv_writer_bytes(tmp_path):
    # the row-at-a-time csv.writer output is the reference; the rows span
    # several formatting blocks and carry the extreme and special values
    special = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1, -1.0 / 3.0])
    rng = np.random.default_rng(8)
    cols = [rng.standard_normal(2500) * 10.0 ** rng.integers(-300, 300, 2500)
            for _ in range(3)]
    for c, shift in zip(cols, (0, 3, 5)):
        c[: len(special)] = np.roll(special, shift)
    path = tmp_path / "rows.csv"
    _write_rows(path, ["a", "b", "c"], cols)

    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        fh.write("a,b,c\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in np.column_stack(cols):
            writer.writerow([FLOAT_FMT % v for v in row])
    assert path.read_bytes() == ref.read_bytes()

