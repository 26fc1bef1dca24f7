"""Particle-level validation: Euler-Maruyama ensembles and empirical flux.

Particles follow dX = (-grad V - u1 grad alpha - u2 (1/rho_s) perp_grad
phi) dt + sqrt(2D) dW with mirror reflection at the walls, i.e. the SDE
whose law the controlled equation evolves.  The ensemble is split into
fixed-size chunks, each with its own RNG stream seeded by (seed, chunk
index), so the noise bits are fixed by the seed.  The positions are
column-major, so a chunk's x and y are contiguous, and a step computes
each chunk's drift in place in a workspace of nine chunk-sized rows,
allocated per `simulate` (or lone `em_step`) call.  The noise is
column-major too: stream i draws chunk i's uniforms into its x column,
then into its y column, and a Box-Muller transform turns them into
normals in place (`draw_noise`).

`simulate` advances one copy of an ensemble per control trajectory in
lockstep: the copies share the initial sample and every noise increment
(common random numbers), each substep's normals being drawn once and fed
to `em_step` for each copy.  Each copy's law is that of a lone run; only
their joint law is coupled.

The empirical flux estimator bins single-step displacements by the
position where the step started ("sample mean of the displacement" per
coarse cell) and multiplies by a binned density; clockwise circulation
shows up as a negative angular-momentum statistic x*vy - y*vx.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import _write_rows
from .control import ControlTrajectory
from .problem import InitialDensitySpec, ShapeFunctions

__all__ = [
    "CHUNK_SIZE",
    "ParticleEnsemble",
    "VelocityRecord",
    "FluxEstimate",
    "AngularMomentumStat",
    "sample_initial",
    "draw_noise",
    "em_step",
    "simulate",
    "estimate_flux",
    "angular_momentum",
    "histogram_tv_distance",
]

CHUNK_SIZE = 16384
_MAX_REFLECTIONS = 1000


def _chunk_slices(n: int) -> list[slice]:
    return [slice(i, min(i + CHUNK_SIZE, n)) for i in range(0, n, CHUNK_SIZE)]


@dataclass
class ParticleEnsemble:
    """Positions in the box, an (n, 2) column-major array, plus per-chunk RNG streams.

    The streams are part of the state: stepping mutates them, so two
    ensembles built with the same seed and stepped identically stay
    bit-identical (chunk i draws from SeedSequence((seed, i))).
    """

    positions: np.ndarray
    L: float
    seed: int
    t: float = 0.0
    rngs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # column-major, so that em_step steps contiguous coordinates
        self.positions = np.asfortranarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be (N, 2)")
        # NaN propagates through max and fails <=, so this rejects it too
        if not np.max(np.abs(self.positions)) <= self.L:
            raise ValueError("positions must be finite and start inside the box")
        if not self.rngs:
            self.rngs = [
                np.random.default_rng(np.random.SeedSequence((self.seed, i)))
                for i in range(len(_chunk_slices(len(self.positions))))
            ]

    @property
    def n(self) -> int:
        return len(self.positions)


def _reflect_into_box(x: np.ndarray, L: float) -> None:
    """Mirror coordinates into [-L, L] in place (x -> 2L - x style)."""
    if x.max() <= L and x.min() >= -L:
        return
    for _ in range(_MAX_REFLECTIONS):
        over = x > L
        under = x < -L
        if not (over.any() or under.any()):
            return
        x[over] = 2.0 * L - x[over]
        x[under] = -2.0 * L - x[under]
    raise RuntimeError("reflection did not terminate (step too large)")


def sample_initial(
    spec: InitialDensitySpec, n: int, seed: int, L: float
) -> ParticleEnsemble:
    """Draw n particles from the truncated mixture by per-chunk rejection."""
    if n < 1:
        raise ValueError("need at least one particle")
    weights = np.array([c.weight for c in spec.components])
    means = np.array([c.mean for c in spec.components])
    sigmas = np.sqrt(np.array([c.var for c in spec.components]))
    cum = np.cumsum(weights)

    slices = _chunk_slices(n)
    rngs = [
        np.random.default_rng(np.random.SeedSequence((seed, i)))
        for i in range(len(slices))
    ]
    positions = np.empty((n, 2), order="F")
    drawn = 0
    accepted = 0
    for sl, rng in zip(slices, rngs):
        need = sl.stop - sl.start
        out = np.empty((need, 2))
        got = 0
        while got < need:
            m = need - got
            comp = np.searchsorted(cum, rng.random(m))
            cand = means[comp] + sigmas[comp] * rng.standard_normal((m, 2))
            keep = np.max(np.abs(cand), axis=1) <= L
            k = int(keep.sum())
            out[got : got + k] = cand[keep]
            got += k
            drawn += m
            accepted += k
            if drawn >= 1000 and accepted < 0.5 * drawn:
                raise ValueError(
                    f"rejection rate {1 - accepted / drawn:.2f} > 0.5: "
                    "mixture barely overlaps the domain"
                )
        positions[sl] = out
    return ParticleEnsemble(positions, L, seed, 0.0, rngs)


def draw_noise(ens: ParticleEnsemble, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals for one substep, chunk i drawn from stream i.

    Fills and returns out, a float64 column-major (n, 2) array
    (allocated when None).  Stream i draws chunk i's uniforms u into its
    x column, then its uniforms v into its y column, and the Box-Muller
    transform turns each pair in place into two independent normals:
    with r = sqrt(-2 log(1 - u)) and t = tan(pi (v - 1/2)), the half
    angle of 2 pi v - pi,

        xi_x = r (1 - t^2) / (1 + t^2),    xi_y = r 2t / (1 + t^2),

    evaluated as q = r / (1 + t^2), xi_x = q (1 - t^2), xi_y = 2t q in
    one scratch row of a chunk's length.  1 - u lies in (0, 1], so the
    log is finite; at v = 0, t is about -1.6e16 and both outputs stay
    finite.  np.tan, log and sqrt run vectorized, unlike sin and cos.
    """
    if out is None:
        out = np.empty((ens.n, 2), order="F")
    elif out.shape != (ens.n, 2) or out.dtype != np.float64 or not out.flags.f_contiguous:
        raise ValueError("out must be a float64, column-major (n, 2) array")
    scratch = np.empty(min(ens.n, CHUNK_SIZE))
    for sl, rng in zip(_chunk_slices(ens.n), ens.rngs):
        r = out[sl, 0]
        t = out[sl, 1]
        s = scratch[: len(r)]
        rng.random(out=r)
        rng.random(out=t)
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        t -= 0.5
        t *= np.pi
        np.tan(t, out=t)
        np.multiply(t, t, out=s)
        s += 1.0
        r /= s
        np.multiply(t, t, out=s)
        np.subtract(1.0, s, out=s)
        t *= 2.0
        t *= r
        r *= s
    return out


def _workspace(n: int) -> np.ndarray:
    """Scratch for `_step_chunk`: nine rows as long as the largest chunk.

    Two each for grad V, the drift and a control term, three for the
    shape functions' intermediates.
    """
    return np.empty((9, min(n, CHUNK_SIZE)))


def _step_chunk(sl, ens, u1, u2, dt, shapes, potential, D, noise, work):
    """One step of the particles in sl, computed in place.

    Every intermediate goes into the rows of work through out= ufuncs,
    operation for operation as in x + dt * b + amp * noise with b =
    -grad V - u1 grad(alpha) - u2 (1/rho_s) perp_grad(phi), so the bits
    match that expression's.
    """
    x = ens.positions[sl, 0]
    y = ens.positions[sl, 1]
    vx, vy, bx, by, ax, ay, *scratch = work[:, : sl.stop - sl.start]
    potential.grad(x, y, out=(vx, vy))
    np.negative(vx, out=bx)
    np.negative(vy, out=by)
    if u1 != 0.0:
        shapes.grad_alpha_at(x, y, out=(ax, ay), work=scratch)
        ax *= u1
        bx -= ax
        ay *= u1
        by -= ay
    if u2 != 0.0:
        shapes.scaled_perp_phi_at(x, y, vx, vy, out=(ax, ay), work=scratch)
        ax *= u2
        bx -= ax
        ay *= u2
        by -= ay
    amp = np.sqrt(2.0 * D * dt)
    for pos, b, xi in ((x, bx, noise[sl, 0]), (y, by, noise[sl, 1])):
        b *= dt
        pos += b
        np.multiply(amp, xi, out=b)
        pos += b
        _reflect_into_box(pos, ens.L)


def em_step(
    ens: ParticleEnsemble,
    u1: float,
    u2: float,
    dt: float,
    shapes: ShapeFunctions,
    potential,
    D: float,
    noise: np.ndarray,
    work: np.ndarray | None = None,
) -> ParticleEnsemble:
    """One Euler-Maruyama step with wall reflection; mutates and returns ens.

    noise holds the step's standard normals, (n, 2), as `draw_noise`
    gives them.  work is the step's scratch space, as `_workspace(n)`
    gives it; allocated when None, so a caller taking many steps passes
    one.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if noise.shape != ens.positions.shape:
        raise ValueError("noise must have the shape of the positions")
    if work is None:
        work = _workspace(ens.n)
    for sl in _chunk_slices(ens.n):
        _step_chunk(sl, ens, u1, u2, dt, shapes, potential, D, noise, work)
    ens.t += dt
    return ens


@dataclass
class VelocityRecord:
    """Displacement samples from the trailing window of steps.

    positions are step midpoints (x_k + x_{k+1})/2 and velocities the
    (reflected) displacement over the step divided by its duration.
    Midpoint binning is what makes the per-cell mean estimate the flux
    velocity J/rho rather than the drift: conditioning on the start
    yields the full drift -grad V - ..., whose reversible part does not
    vanish at stationarity, while the midpoint (Stratonovich) reading
    averages the forward and reverse conditionings and leaves only the
    irreversible current.
    """

    positions: np.ndarray
    velocities: np.ndarray
    dt: float


def simulate(
    ens: ParticleEnsemble,
    trajs: Sequence[ControlTrajectory],
    shapes: ShapeFunctions,
    potential,
    D: float,
    *,
    velocity_window: int = 1,
    em_substeps: int = 1,
) -> list[tuple[ParticleEnsemble, VelocityRecord]]:
    """Run one copy of ens under each trajectory; keep the last window's samples.

    The copies step in lockstep from ens's positions: each substep's
    normals are drawn once from ens's chunk streams and every copy takes
    them, so each copy is bit-identical to a lone run from an identically
    seeded ensemble.  The first copy is ens itself, mutated; the others
    share its RNG streams.  Each control interval is integrated with
    em_substeps Euler-Maruyama steps (controls held constant), shrinking
    the weak error without touching the control grid.  Returns one
    (ensemble, record) pair per trajectory, in order.
    """
    if not trajs:
        raise ValueError("need at least one control trajectory")
    K = trajs[0].n_steps
    if any(tr.n_steps != K for tr in trajs):
        raise ValueError("control trajectories must have the same number of steps")
    if not 1 <= velocity_window <= K:
        raise ValueError("velocity window must lie in [1, K]")
    if em_substeps < 1:
        raise ValueError("need at least one substep")
    n = ens.n
    copies = [ens] + [
        replace(ens, positions=ens.positions.copy(order="F")) for _ in trajs[1:]
    ]
    n_rec = velocity_window * em_substeps * n
    records = [
        VelocityRecord(np.empty((n_rec, 2)), np.empty((n_rec, 2)), tr.dt / em_substeps)
        for tr in trajs
    ]
    noise = np.empty((n, 2), order="F")
    work = _workspace(n)
    row = 0
    for k in range(K):
        record = k >= K - velocity_window
        for _ in range(em_substeps):
            draw_noise(ens, noise)
            for e, tr, rec in zip(copies, trajs, records):
                if record:
                    # the midpoint block holds the start positions until
                    # the step is taken
                    mid = rec.positions[row : row + n]
                    vel = rec.velocities[row : row + n]
                    np.copyto(mid, e.positions)
                em_step(e, tr.u1[k], tr.u2[k], rec.dt, shapes, potential, D, noise, work)
                if record:
                    np.subtract(e.positions, mid, out=vel)
                    vel /= rec.dt
                    mid += e.positions
                    mid *= 0.5
            if record:
                row += n
    return list(zip(copies, records))


def _cell_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the cell of each x; points outside go to the nearest end cell."""
    idx = np.searchsorted(edges, x, side="right")
    idx -= 1
    return np.clip(idx, 0, len(edges) - 2, out=idx)


@dataclass
class FluxEstimate:
    """Coarse-grid density and mean velocity; their product is the flux.

    Cells with fewer than min_count velocity samples carry NaN velocity
    (masked); density is defined for every cell from the final
    positions.
    """

    x_centers: np.ndarray
    y_centers: np.ndarray
    density: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    count: np.ndarray
    min_count: int

    def write_csv(self, path) -> None:
        """One row per cell, x outer; count is printed as an integer."""
        X, Y = np.meshgrid(self.x_centers, self.y_centers, indexing="ij")
        _write_rows(
            path, ["x", "y", "density", "vx", "vy", "count"],
            [a.reshape(-1) for a in (X, Y, self.density, self.vx, self.vy, self.count)],
        )


def estimate_flux(
    ens: ParticleEnsemble,
    record: VelocityRecord,
    coarse_nx: int = 20,
    coarse_ny: int = 20,
    *,
    min_count: int = 10,
) -> FluxEstimate:
    """Bin velocities by step-midpoint cell, density by final position."""
    L = ens.L
    xe = np.linspace(-L, L, coarse_nx + 1)
    ye = np.linspace(-L, L, coarse_ny + 1)
    cell_area = (xe[1] - xe[0]) * (ye[1] - ye[0])

    hist, _, _ = np.histogram2d(
        ens.positions[:, 0], ens.positions[:, 1], bins=[xe, ye]
    )
    density = hist / (ens.n * cell_area)

    # flat cell index ix * coarse_ny + iy, built in place to keep the
    # temporaries of 1e5-sample records few
    flat = _cell_index(xe, record.positions[:, 0])
    flat *= coarse_ny
    flat += _cell_index(ye, record.positions[:, 1])
    ncell = coarse_nx * coarse_ny
    count = np.bincount(flat, minlength=ncell).astype(float)
    sx = np.bincount(flat, weights=record.velocities[:, 0], minlength=ncell)
    sy = np.bincount(flat, weights=record.velocities[:, 1], minlength=ncell)
    with np.errstate(invalid="ignore", divide="ignore"):
        vx = sx / count
        vy = sy / count
    bad = count < min_count
    vx[bad] = np.nan
    vy[bad] = np.nan

    centers_x = 0.5 * (xe[:-1] + xe[1:])
    centers_y = 0.5 * (ye[:-1] + ye[1:])
    return FluxEstimate(
        centers_x,
        centers_y,
        density,
        vx.reshape(coarse_nx, coarse_ny),
        vy.reshape(coarse_nx, coarse_ny),
        count.reshape(coarse_nx, coarse_ny),
        min_count,
    )


@dataclass
class AngularMomentumStat:
    """Mean of x*vy - y*vx over displacement samples inside a disc."""

    mean: float
    std_error: float
    n_samples: int

    @property
    def z_score(self) -> float:
        return self.mean / self.std_error if self.std_error > 0.0 else 0.0


def angular_momentum(record: VelocityRecord, radius: float = 2.0) -> AngularMomentumStat:
    """Circulation statistic over velocity samples with |midpoint| <= radius."""
    px, py = record.positions[:, 0], record.positions[:, 1]
    sel = np.hypot(px, py) <= radius
    # x*vy - y*vx in place, the temporary freed before mean and std run
    s = px[sel]
    s *= record.velocities[sel, 1]
    y_vx = py[sel]
    y_vx *= record.velocities[sel, 0]
    s -= y_vx
    del y_vx
    n = int(sel.sum())
    if n < 2:
        raise ValueError("too few samples inside the disc")
    return AngularMomentumStat(float(np.mean(s)), float(np.std(s, ddof=1) / np.sqrt(n)), n)


def _cell_assignment(nodes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map nodal quadrature mass to coarse cells of uniform width.

    Returns S with S[i, c] = share of node i belonging to cell c; nodes
    on an interior edge, to within rounding on either side, split
    0.5/0.5 (that is what trapezoid integration over each cell
    separately would do).
    """
    n_cells = len(edges) - 1
    S = np.zeros((len(nodes), n_cells))
    rows = np.arange(len(nodes))
    # index of each node's nearest edge
    e = np.rint((nodes - edges[0]) / ((edges[-1] - edges[0]) / n_cells)).astype(int)
    np.clip(e, 0, n_cells, out=e)
    tol = 1e-9 * (edges[-1] - edges[0])
    split = (e > 0) & (e < n_cells) & (np.abs(nodes - edges[e]) <= tol)
    S[rows[~split], _cell_index(edges, nodes[~split])] = 1.0
    S[rows[split], e[split] - 1] = 0.5
    S[rows[split], e[split]] = 0.5
    return S


def histogram_tv_distance(
    ens: ParticleEnsemble,
    rho,                      # ScalarField on the fine grid
    w,                        # QuadratureWeights
    coarse_nx: int = 20,
    coarse_ny: int = 20,
) -> tuple[float, float]:
    """Total-variation distance between the ensemble histogram and a density.

    The density is binned by summing quadrature-weighted nodal values
    over each coarse cell, so both sides are cell probabilities.
    Returns (tv, budget) where budget is the Monte Carlo standard-error
    sum 0.5 * sum_c sqrt(p_c (1 - p_c) / N).
    """
    L = ens.L
    xe = np.linspace(-L, L, coarse_nx + 1)
    ye = np.linspace(-L, L, coarse_ny + 1)
    hist, _, _ = np.histogram2d(ens.positions[:, 0], ens.positions[:, 1], bins=[xe, ye])
    p_hat = hist / ens.n

    grid = rho.grid
    weighted = rho.values * w.w
    Sx = _cell_assignment(grid.x, xe)
    Sy = _cell_assignment(grid.y, ye)
    p_cell = Sx.T @ weighted @ Sy
    p_cell = np.clip(p_cell, 0.0, None)
    p_cell /= p_cell.sum()

    tv = 0.5 * float(np.abs(p_hat - p_cell).sum())
    budget = 0.5 * float(np.sum(np.sqrt(p_cell * (1.0 - p_cell) / ens.n)))
    return tv, budget
