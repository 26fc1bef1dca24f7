"""Discrete Fokker-Planck generator and its weighted eigenbasis.

The generator K discretizes rho -> div(rho grad V) + D Lap(rho) with
reflecting (zero normal flux) boundaries, assembled in conservative
flux form: every interior cell face carries one flux value, boundary
faces carry exactly zero, and K is the negative flux divergence.  The
face drift is taken from rho_s differences,

    v_face = (2D/dx) (rho_s_R - rho_s_L) / (rho_s_R + rho_s_L),

which equals -dV/dx at the face midpoint to O(dx^2) and makes two
identities exact in floating point up to roundoff: K rho_s = 0 and
self-adjointness of K under the inner product weighted by w/rho_s.

The control drift operators are assembled with the same machinery; the
rotational one uses corner differences of the stream function so that
its discrete divergence vanishes identically on the stationary density.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import (
    FLOAT_FMT,
    Grid2D,
    QuadratureWeights,
    ScalarField,
    axis_weights,
    make_grid,
    trapezoid_weights,
)
from .problem import RHO_FLOOR, ShapeFunctions, _grad_alpha

__all__ = [
    "DiscreteGenerator",
    "SpectralBasis",
    "EigensolverError",
    "stationary_density",
    "assemble_generator",
    "assemble_control_operators",
    "eigenbasis",
    "selfadjointness_report",
]

DENSE_EIGEN_THRESHOLD = 2500  # nodes; at or below this a dense solve is used
MODE_CAP = 64


class EigensolverError(RuntimeError):
    """Raised when the eigenbasis cannot be computed; carries diagnostics."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


def stationary_density(potential, D: float, grid: Grid2D, w: QuadratureWeights) -> ScalarField:
    """rho_s = exp(-V/D) / Z, normalized by trapezoid quadrature.

    The exponent is shifted by min(V) before exponentiation so the
    largest Boltzmann factor is exactly 1; this avoids spurious under-
    and overflow for strongly confining potentials.
    """
    V = potential.on_grid(grid).values
    expo = -(V - V.min()) / D
    r = np.exp(expo)
    Z = float(np.sum(r * w.w))
    return ScalarField(grid, r / Z)


@dataclass
class DiscreteGenerator:
    """Sparse generator K with the data needed to symmetrize it."""

    matrix: sp.csr_matrix
    grid: Grid2D
    D: float
    potential: object
    rho_s: ScalarField
    w: QuadratureWeights


def _flux_divergence_matrix(
    grid: Grid2D,
    w: QuadratureWeights,
    vx_face: np.ndarray,
    vy_face: np.ndarray,
    D: float,
) -> sp.csr_matrix:
    """Operator rho -> -(1/w) * net integrated face flux.

    Face flux density is v*rho_bar - D*(d rho / dh) with rho_bar the
    arithmetic mean of the two adjacent nodes; vx_face has shape
    (nx-1, ny) (one value per x-face), vy_face (nx, ny-1).  Boundary
    faces carry zero flux, which both conserves mass exactly and
    enforces the reflecting boundary.
    """
    nx, ny = grid.nx, grid.ny
    dx, dy = grid.dx, grid.dy
    wx, wy = axis_weights(grid)
    warr = w.w

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.reshape(-1))
        cols.append(c.reshape(-1))
        vals.append(v.reshape(-1))

    # x-faces between (i, j) and (i+1, j)
    I, J = np.meshgrid(np.arange(nx - 1), np.arange(ny), indexing="ij")
    left = I * ny + J
    right = (I + 1) * ny + J
    ell = wy[J]
    coef_l = ell * (0.5 * vx_face + D / dx)   # multiplies rho_left in G
    coef_r = ell * (0.5 * vx_face - D / dx)   # multiplies rho_right in G
    wl = warr[I, J]
    wr = warr[I + 1, J]
    add(left, left, -coef_l / wl)
    add(left, right, -coef_r / wl)
    add(right, left, coef_l / wr)
    add(right, right, coef_r / wr)

    # y-faces between (i, j) and (i, j+1)
    I, J = np.meshgrid(np.arange(nx), np.arange(ny - 1), indexing="ij")
    bot = I * ny + J
    top = I * ny + (J + 1)
    ell = wx[I]
    coef_b = ell * (0.5 * vy_face + D / dy)
    coef_t = ell * (0.5 * vy_face - D / dy)
    wb = warr[I, J]
    wt = warr[I, J + 1]
    add(bot, bot, -coef_b / wb)
    add(bot, top, -coef_t / wb)
    add(top, bot, coef_b / wt)
    add(top, top, coef_t / wt)

    n = grid.n_nodes
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return K.tocsr()


def assemble_generator(potential, D: float, grid: Grid2D) -> DiscreteGenerator:
    """Assemble the conservative flux-form generator for the given potential."""
    w = trapezoid_weights(grid)
    rho_s = stationary_density(potential, D, grid, w)
    r = rho_s.values
    # face drift = -grad V at the face to O(dx^2), written through rho_s
    # differences so K rho_s = 0 and weighted self-adjointness hold exactly
    vx = (2.0 * D / grid.dx) * (r[1:, :] - r[:-1, :]) / (r[1:, :] + r[:-1, :])
    vy = (2.0 * D / grid.dy) * (r[:, 1:] - r[:, :-1]) / (r[:, 1:] + r[:, :-1])
    K = _flux_divergence_matrix(grid, w, vx, vy, D)
    return DiscreteGenerator(K, grid, D, potential, rho_s, w)


def assemble_control_operators(
    grid: Grid2D, shapes: ShapeFunctions, rho_s: ScalarField
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Flux-form operators for the two control drifts.

    K_alpha: rho -> div(rho grad alpha); face drift is the closed-form
    gradient of alpha at the face midpoint.

    K_phi: rho -> div(rho (1/rho_s) perp_grad phi).  The face flux of the
    stationary density is written as a difference of phi at the two face
    endpoint corners (exact line integral of the tangential derivative),
    divided by the arithmetic face mean of rho_s.  Summing the four
    corner differences around any cell telescopes to zero, so
    K_phi rho_s = 0 identically whenever phi vanishes on the boundary.
    Both operators impose zero boundary-face flux.
    """
    nx, ny = grid.nx, grid.ny
    L = grid.L
    x, y = grid.x, grid.y
    w = trapezoid_weights(grid)
    r = rho_s.values

    # --- K_alpha ---------------------------------------------------------
    xmid = 0.5 * (x[:-1] + x[1:])
    ymid = 0.5 * (y[:-1] + y[1:])
    Xf, Yf = np.meshgrid(xmid, y, indexing="ij")
    vx = -_grad_alpha(Xf, Yf, L)[0]
    Xf, Yf = np.meshgrid(x, ymid, indexing="ij")
    vy = -_grad_alpha(Xf, Yf, L)[1]
    k_alpha = _flux_divergence_matrix(grid, w, vx, vy, 0.0)

    # --- K_phi -----------------------------------------------------------
    # Corner coordinates of the dual (cell) mesh: interior face endpoints at
    # midpoints, clamped to +-L on the domain boundary.
    xc = np.concatenate(([-L], 0.5 * (x[:-1] + x[1:]), [L]))  # len nx+1
    yc = np.concatenate(([-L], 0.5 * (y[:-1] + y[1:]), [L]))  # len ny+1

    # x-face between (i, j) and (i+1, j): endpoints (xmid_i, yc[j]), (xmid_i, yc[j+1])
    Xf = np.broadcast_to(xc[1:-1][:, None], (nx - 1, ny + 1))
    Yf = np.broadcast_to(yc[None, :], (nx - 1, ny + 1))
    phi_x_edges = np.asarray(shapes.phi_at(Xf, Yf))
    dphi_x = phi_x_edges[:, 1:] - phi_x_edges[:, :-1]  # (nx-1, ny)
    _, wy = axis_weights(grid)
    wx, _ = axis_weights(grid)
    rbar_x = 0.5 * (r[1:, :] + r[:-1, :])
    # integrated stationary flux through the face is -dphi; velocity form
    # divides by face length and face-mean rho_s
    vphi_x = -dphi_x / (wy[None, :] * np.maximum(rbar_x, RHO_FLOOR))

    # y-face between (i, j) and (i, j+1): endpoints (xc[i], ymid_j), (xc[i+1], ymid_j)
    Xf = np.broadcast_to(xc[:, None], (nx + 1, ny - 1))
    Yf = np.broadcast_to(yc[1:-1][None, :], (nx + 1, ny - 1))
    phi_y_edges = np.asarray(shapes.phi_at(Xf, Yf))
    dphi_y = phi_y_edges[1:, :] - phi_y_edges[:-1, :]  # (nx, ny-1)
    rbar_y = 0.5 * (r[:, 1:] + r[:, :-1])
    vphi_y = dphi_y / (wx[:, None] * np.maximum(rbar_y, RHO_FLOOR))

    k_phi = _flux_divergence_matrix(grid, w, vphi_x, vphi_y, 0.0)
    return k_alpha, k_phi


def selfadjointness_report(gen: DiscreteGenerator) -> float:
    """Relative asymmetry ||W K - K^T W||_F / ||W K||_F with W = diag(w/rho_s)."""
    Wd = sp.diags(gen.w.flat / gen.rho_s.flat)
    A = (Wd @ gen.matrix).tocsr()
    diff = A - A.T
    num = float(np.sqrt(diff.power(2).sum()))
    den = float(np.sqrt(A.power(2).sum()))
    return num / den if den > 0 else 0.0


@dataclass
class SpectralBasis:
    """Leading weighted eigenpairs of the generator.

    eigenvalues are sorted in descending order with the zero mode first
    (pinned to exactly 0 after verification); mode 0 is rho_s itself.
    modes has shape (M, nx, ny) and the set is orthonormal in the
    w/rho_s-weighted inner product.
    """

    grid: Grid2D
    eigenvalues: np.ndarray
    modes: np.ndarray
    rho_s: ScalarField
    w: QuadratureWeights
    residuals: dict = field(default_factory=dict)

    @property
    def M(self) -> int:
        return len(self.eigenvalues)

    def modes_flat(self) -> np.ndarray:
        """(M, n_nodes) row-major view of the modes."""
        return self.modes.reshape(self.M, -1)

    # -- cache ------------------------------------------------------------

    ARRAYS_FILE = "basis.npz"  # modes and rho_s, bit-exact

    @classmethod
    def is_cached(cls, directory) -> bool:
        """Whether directory holds a complete cache; other layouts do not count."""
        d = Path(directory)
        return (d / cls.ARRAYS_FILE).is_file() and (d / "manifest.json").is_file()

    def save(self, directory) -> None:
        """Write eigenvalues.csv, ARRAYS_FILE and, last, manifest.json.

        The bytes depend only on the basis, so two saves give identical
        directories.
        """
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        with open(d / "eigenvalues.csv", "w") as fh:
            fh.write("index,eigenvalue\n")
            for m, lam in enumerate(self.eigenvalues):
                fh.write(f"{m},{FLOAT_FMT % lam}\n")
        np.savez(d / self.ARRAYS_FILE, modes=self.modes, rho_s=self.rho_s.values)
        manifest = {
            "grid": {"L": self.grid.L, "nx": self.grid.nx, "ny": self.grid.ny},
            "M": self.M,
            "residuals": self.residuals,
        }
        with open(d / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, directory) -> "SpectralBasis":
        d = Path(directory)
        with open(d / "manifest.json") as fh:
            manifest = json.load(fh)
        g = manifest["grid"]
        grid = make_grid(g["L"], g["nx"], g["ny"])
        lam_rows = np.loadtxt(d / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        with np.load(d / cls.ARRAYS_FILE) as arrays:
            modes, rho_s = arrays["modes"], arrays["rho_s"]
        return cls(grid, lam_rows[:, 1], modes, ScalarField(grid, rho_s),
                   trapezoid_weights(grid), manifest.get("residuals", {}))


def _weighted_orthonormalize(Vm: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt in the weighted inner product, two passes."""
    M = Vm.shape[0]
    out = Vm.copy()
    for m in range(M):
        for _ in range(2):  # reorthogonalization pass for robustness
            for k in range(m):
                out[m] -= (out[m] * wv) @ out[k] * out[k]
        nrm = np.sqrt((out[m] * wv) @ out[m])
        if not nrm > 0:
            raise EigensolverError(f"mode {m} degenerated during orthonormalization")
        out[m] /= nrm
    return out


def eigenbasis(
    gen: DiscreteGenerator,
    rho_s: ScalarField | None,
    M: int,
    *,
    cap: int = MODE_CAP,
    dense_threshold: int = DENSE_EIGEN_THRESHOLD,
    sigma: float = 1.0,
    maxiter: int | None = None,
) -> SpectralBasis:
    """Compute the M leading eigenpairs of K in the weighted geometry.

    With S = diag(sqrt(w/rho_s)) the matrix S K S^-1 is symmetric, so the
    problem is symmetrized, solved (dense below ``dense_threshold`` nodes,
    otherwise shift-invert Lanczos via ARPACK with a deterministic start
    vector), and mapped back.  Afterwards the basis is re-orthonormalized
    in the weighted inner product, mode 0 is replaced by rho_s exactly,
    its eigenvalue is pinned to 0, and signs are fixed so the node of
    largest magnitude of each mode is positive.
    """
    if rho_s is None:
        rho_s = gen.rho_s
    n = gen.grid.n_nodes
    if M < 1 or M > cap:
        raise EigensolverError(f"M={M} outside [1, {cap}]")
    if M > n:
        raise EigensolverError(f"M={M} exceeds grid size {n}")

    wv = gen.w.flat / rho_s.flat
    s = np.sqrt(wv)
    H = (sp.diags(s) @ gen.matrix @ sp.diags(1.0 / s)).tocsr()
    H = (H + H.T) * 0.5  # enforce exact symmetry against roundoff

    if n <= dense_threshold:
        lam_all, Y_all = scipy.linalg.eigh(H.toarray())
        lam = lam_all[-M:][::-1].copy()
        Y = Y_all[:, -M:][:, ::-1].copy()
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        try:
            lam, Y = spla.eigsh(H, k=M, sigma=sigma, which="LM", v0=v0, maxiter=maxiter)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(
                f"eigensolver did not converge: {exc}",
                residuals={"converged": len(exc.eigenvalues)},
            ) from exc
        order = np.argsort(-lam, kind="stable")
        lam = lam[order]
        Y = Y[:, order]

    if abs(lam[0]) > 1e-8:
        raise EigensolverError(
            f"leading eigenvalue {lam[0]!r} is not the zero mode", residuals={"lam0": lam[0]}
        )

    Vm = (Y / s[:, None]).T.copy()  # (M, n)

    # the zero mode must be the stationary density (unit weighted norm)
    overlap = (Vm[0] * wv) @ rho_s.flat
    if abs(overlap) < 0.999:
        raise EigensolverError(
            f"zero mode does not match the stationary density (overlap {overlap:.3f})"
        )
    Vm[0] = rho_s.flat
    lam = lam.copy()
    lam[0] = 0.0

    Vm = _weighted_orthonormalize(Vm, wv)

    # deterministic sign: node of largest |v| is positive
    for m in range(1, M):
        idx = int(np.argmax(np.abs(Vm[m])))
        if Vm[m][idx] < 0:
            Vm[m] = -Vm[m]

    modes = Vm.reshape(M, gen.grid.nx, gen.grid.ny)
    G = (Vm * wv) @ Vm.T
    K = gen.matrix
    eig_res = float(
        max(
            np.max(np.abs(K @ Vm[m] - lam[m] * Vm[m])) / (1.0 + abs(lam[m]))
            for m in range(M)
        )
    )
    kmax = float(np.abs(K.data).max())
    residuals = {
        "gram_offdiag": float(np.abs(G - np.eye(M)).max()),
        "stationarity": float(np.abs(K @ rho_s.flat).max()) / kmax,
        "eigen_residual_max": eig_res,
        "selfadjointness": selfadjointness_report(gen),
        "solver": "dense" if n <= dense_threshold else "shift-invert-lanczos",
    }
    return SpectralBasis(gen.grid, lam, modes, rho_s, gen.w, residuals)
