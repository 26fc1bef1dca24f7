"""Scalar and vector fields on a uniform node-centered grid over [-L, L]^2.

This module provides the discrete calculus everything else is built on:
trapezoid quadrature, the 1/rho_s-weighted inner product, and
second-order difference operators (central in the interior, one-sided
on the boundary).

Storage convention: a field is an (nx, ny) array indexed [i, j] with
node (i, j) located at (-L + i*dx, -L + j*dy).  The flat ordering used
by sparse operators is row-major over (i, j), i.e. flat = i*ny + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid2D",
    "ScalarField",
    "VectorField",
    "QuadratureWeights",
    "make_grid",
    "trapezoid_weights",
    "integrate",
    "weighted_inner",
    "weighted_norm",
    "gradient",
    "curl",
    "laplacian",
    "write_scalar_csv",
]

# Full round-trip precision for all CSV artifacts.
FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class Grid2D:
    """Uniform node-centered grid on the square [-L, L]^2.

    nx, ny count nodes per axis including both boundaries, so the
    spacing is dx = 2L/(nx - 1).
    """

    L: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise ValueError(f"half-width L must be positive and finite, got {self.L}")
        if self.nx < 5 or self.ny < 5:
            # one-sided boundary stencils need four nodes per axis; require
            # one more so interior central stencils exist as well
            raise ValueError(f"node counts must be >= 5, got nx={self.nx}, ny={self.ny}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.nx - 1)

    @property
    def dy(self) -> float:
        return 2.0 * self.L / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays X, Y of shape (nx, ny)."""
        return np.meshgrid(self.x, self.y, indexing="ij")


def make_grid(L: float, nx: int, ny: int) -> Grid2D:
    """Build a grid, rejecting nonpositive L and node counts below 5."""
    return Grid2D(float(L), int(nx), int(ny))


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


@dataclass
class ScalarField:
    """Nodal values of a scalar function, shape (nx, ny), all finite."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scalar field contains non-finite entries")

    @property
    def flat(self) -> np.ndarray:
        """Row-major flat view (i outer, j inner)."""
        return self.values.reshape(-1)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Pair of component fields (x, y) on a common grid."""

    grid: Grid2D
    x: ScalarField
    y: ScalarField

    def __post_init__(self) -> None:
        if self.x.grid != self.grid or self.y.grid != self.grid:
            raise ValueError("component grids do not match the vector field grid")

    def max_norm(self) -> float:
        """max over nodes of the Euclidean vector magnitude."""
        return float(np.sqrt(self.x.values**2 + self.y.values**2).max())


@dataclass
class QuadratureWeights:
    """Trapezoid weights w[i, j] = dx_i * dy_j, with half cells on the boundary."""

    grid: Grid2D
    w: np.ndarray

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != self.grid.shape:
            raise ValueError("weight shape does not match grid")
        if not np.all(self.w > 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def flat(self) -> np.ndarray:
        return self.w.reshape(-1)


def axis_weights(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis trapezoid weights (cell widths): h/2 at the ends, h inside."""
    wx = np.full(grid.nx, grid.dx)
    wx[0] = wx[-1] = 0.5 * grid.dx
    wy = np.full(grid.ny, grid.dy)
    wy[0] = wy[-1] = 0.5 * grid.dy
    return wx, wy


def trapezoid_weights(grid: Grid2D) -> QuadratureWeights:
    wx, wy = axis_weights(grid)
    return QuadratureWeights(grid, np.outer(wx, wy))


def integrate(f: ScalarField, w: QuadratureWeights) -> float:
    """Trapezoid quadrature of f over the domain."""
    _check_same_grid(f, w)
    return float(np.sum(f.values * w.w))


def weighted_inner(
    p: ScalarField, q: ScalarField, rho_s: ScalarField, w: QuadratureWeights
) -> float:
    """Inner product <p, q> = sum p*q*w/rho_s (the 1/rho_s-weighted L2 pairing).

    rho_s must be strictly positive everywhere.
    """
    _check_same_grid(p, q)
    _check_same_grid(p, rho_s)
    _check_same_grid(p, w)
    if not np.all(rho_s.values > 0.0):
        raise ValueError("weight density rho_s must be strictly positive")
    return float(np.sum(p.values * q.values * (w.w / rho_s.values)))


def weighted_norm(p: ScalarField, rho_s: ScalarField, w: QuadratureWeights) -> float:
    return float(np.sqrt(weighted_inner(p, p, rho_s, w)))


def _diff1(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative: central interior, second-order one-sided boundary."""
    v = np.moveaxis(a, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _diff2(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative: central interior, second-order one-sided boundary."""
    v = np.moveaxis(a, axis, 0)
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def gradient(f: ScalarField) -> VectorField:
    """Stencil gradient (d/dx, d/dy); exact on quadratics."""
    g = f.grid
    return VectorField(
        g,
        ScalarField(g, _diff1(f.values, g.dx, 0)),
        ScalarField(g, _diff1(f.values, g.dy, 1)),
    )


def curl(F: VectorField) -> ScalarField:
    """Scalar curl dFy/dx - dFx/dy (equals -<perp_grad, F>)."""
    g = F.grid
    return ScalarField(g, _diff1(F.y.values, g.dx, 0) - _diff1(F.x.values, g.dy, 1))


def laplacian(f: ScalarField) -> ScalarField:
    g = f.grid
    return ScalarField(g, _diff2(f.values, g.dx, 0) + _diff2(f.values, g.dy, 1))


def boundary_max_normal(F: VectorField) -> float:
    """max |<F, n>| over boundary nodes (outward normal of the square)."""
    fx, fy = F.x.values, F.y.values
    return float(
        max(
            np.abs(fx[0, :]).max(),
            np.abs(fx[-1, :]).max(),
            np.abs(fy[:, 0]).max(),
            np.abs(fy[:, -1]).max(),
        )
    )


# ---------------------------------------------------------------------------
# CSV serialization: header line, one node per row, row-major order, %.17g.


# Rows formatted per write: one % over a block is much faster than a
# row at a time, and bounding the block keeps the text's memory small.
_ROWS_PER_BLOCK = 1024


def _write_rows(path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = np.column_stack(columns)
    template = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _ROWS_PER_BLOCK):
            block = rows[start : start + _ROWS_PER_BLOCK]
            fh.write((template * len(block)) % tuple(block.ravel().tolist()))


def write_scalar_csv(f: ScalarField, path) -> None:
    X, Y = f.grid.meshgrid()
    _write_rows(path, ["x", "y", "value"], [X.reshape(-1), Y.reshape(-1), f.flat])
