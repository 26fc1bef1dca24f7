"""Problem definition: potential, control shape functions, initial density, config.

The reference setup is V = 2x^2 + 3y^2 with D = 2 on [-4, 4]^2, a cosine
bump alpha for the gradient-shaped control and a stream function phi
(stationary density times a polynomial bubble) for the rotational
control.  Everything is overridable through ExperimentConfig, whose
defaults reproduce that setup.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from .fields import (
    Grid2D,
    QuadratureWeights,
    ScalarField,
    VectorField,
    boundary_max_normal,
    integrate,
    laplacian,
    make_grid,
    trapezoid_weights,
)

__all__ = [
    "QuadraticPotential",
    "ShapeFunctions",
    "ShapeBcReport",
    "GaussianComponent",
    "InitialDensitySpec",
    "CostWeights",
    "ExperimentConfig",
    "horizon_steps",
    "reference_shapes",
    "validate_shape_bcs",
    "desired_vorticity",
    "build_initial_density",
    "reference_problem",
]

# Floor applied wherever a field is divided by rho_s.
RHO_FLOOR = 1e-300


@dataclass(frozen=True)
class QuadraticPotential:
    """V(x, y) = a*x^2 + b*y^2 with a, b > 0 (confining)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("potential curvatures must be positive")

    def value(self, x, y):
        return self.a * np.asarray(x) ** 2 + self.b * np.asarray(y) ** 2

    def grad(self, x, y, out=None):
        """(2a x, 2b y), written into the pair out when given."""
        gx, gy = (None, None) if out is None else out
        return np.multiply(2.0 * self.a, x, out=gx), np.multiply(2.0 * self.b, y, out=gy)

    def on_grid(self, grid: Grid2D) -> ScalarField:
        X, Y = grid.meshgrid()
        return ScalarField(grid, self.value(X, Y))

    def grad_on_grid(self, grid: Grid2D) -> VectorField:
        X, Y = grid.meshgrid()
        gx, gy = self.grad(X, Y)
        return VectorField(grid, ScalarField(grid, gx), ScalarField(grid, gy))

    def descriptor(self) -> dict:
        return {"kind": "quadratic", "a": self.a, "b": self.b}


def _grad_alpha(x, y, L):
    x = np.asarray(x)
    y = np.asarray(y)
    k = np.pi / (2 * L)
    return (
        -k * np.sin(k * x) * np.cos(k * y),
        -k * np.cos(k * x) * np.sin(k * y),
    )


def _bubble(x, y, L):
    """g(x, y) = (L^2/4)(x^2/L^2 - 1)(y^2/L^2 - 1), zero on the boundary."""
    x = np.asarray(x)
    y = np.asarray(y)
    return (L**2 / 4.0) * (x**2 / L**2 - 1.0) * (y**2 / L**2 - 1.0)


def _arrays(shape, given, count):
    """given, or count new arrays of the shape when it is None."""
    return [np.empty(shape) for _ in range(count)] if given is None else given


def _scaled_perp_phi(x, y, L, vx, vy, D, out=None, work=None):
    """(1/rho_s) perp_grad(rho_s * g) = perp_grad(g) - g * perp_grad(V) / D.

    (vx, vy) is grad V at (x, y).  Each factor of the bubble is formed
    once, with the operations of ``_bubble``: fx = x^2/L^2 - 1, fy
    likewise, g = ((L^2/4) fx) fy, and (0.5 x) fy, (0.5 y) fx for the
    bubble's gradient.  The result goes into the pair out and the
    intermediates into the first two arrays of work, each allocated when
    None.
    """
    shape = np.broadcast(x, y).shape
    px, py = _arrays(shape, out, 2)
    g, gx = _arrays(shape, work, 2)[:2]
    np.square(x, out=px)
    px /= L**2
    px -= 1.0  # fx
    np.square(y, out=py)
    py /= L**2
    py -= 1.0  # fy
    np.multiply(L**2 / 4.0, px, out=g)
    g *= py
    np.multiply(0.5, x, out=gx)
    gx *= py
    np.multiply(0.5, y, out=py)
    py *= px  # gy
    # gy - g vy / D, then -gx + g vx / D
    np.multiply(g, vy, out=px)
    px /= D
    np.subtract(py, px, out=px)
    np.multiply(g, vx, out=py)
    py /= D
    py -= gx
    return px, py


@dataclass
class ShapeFunctions:
    """Control shape functions: a cosine bump alpha and a stream function phi.

    alpha = cos(pi x/2L) cos(pi y/2L) and phi = rho_s * g, where the
    bubble g (see ``_bubble``) vanishes on the boundary.  The nodal
    fields are tabulated on the grid; the ``*_at`` methods evaluate the
    closed forms at points of the closed box, where the particles are.
    ``grad_alpha_at`` takes grad(alpha) from the half-angle tangents
    tan(pi x/4L) and tan(pi y/4L), within a few ulp of the sine-cosine
    form the nodal table and the grid operators use.  ``scaled_perp_phi`` holds
    (1/rho_s) * perp_grad(phi), the drift actually entering the
    dynamics, in a closed form that never divides by a tiny rho_s.  At
    a point, rho_s is rho_ref * exp(-(V - v_ref)/D), anchored at the
    node of largest nodal rho_s so that the two agree.
    """

    grid: Grid2D
    alpha: ScalarField
    grad_alpha: VectorField
    phi: ScalarField
    perp_grad_phi: VectorField
    scaled_perp_phi: VectorField
    potential: QuadraticPotential
    D: float
    v_ref: float
    rho_ref: float

    def grad_alpha_at(self, x, y, out=None, work=None):
        """grad(alpha) at points, into the pair out; work is three scratch arrays.

        Both are allocated when None.  With t = tan(kx/2) and s =
        tan(ky/2), k = pi/2L: sin(kx) = 2t/(1+t^2) and cos(kx) =
        (1-t^2)/(1+t^2), so grad(alpha) = c (t (1-s^2), s (1-t^2)) with
        c = -2k/((1+t^2)(1+s^2)).  Two tangents cost less than two sines
        and two cosines, and on the closed box the half angles stay
        within +-pi/4.
        """
        k = np.pi / (2 * self.grid.L)
        shape = np.broadcast(x, y).shape
        gx, gy = _arrays(shape, out, 2)
        p, q, c = _arrays(shape, work, 3)
        np.multiply(0.5 * k, x, out=gx)
        np.tan(gx, out=gx)  # t
        np.multiply(0.5 * k, y, out=gy)
        np.tan(gy, out=gy)  # s
        np.multiply(gx, gx, out=p)
        p += 1.0
        np.multiply(gy, gy, out=q)
        q += 1.0
        np.multiply(p, q, out=c)
        np.divide(-2.0 * k, c, out=c)
        np.multiply(gx, gx, out=p)
        np.subtract(1.0, p, out=p)  # 1 - t^2
        np.multiply(gy, gy, out=q)
        np.subtract(1.0, q, out=q)  # 1 - s^2
        gx *= c
        gx *= q
        gy *= c
        gy *= p
        return gx, gy

    def scaled_perp_phi_at(self, x, y, vx, vy, out=None, work=None):
        """(1/rho_s) perp_grad(phi) at points, given grad V = (vx, vy) there.

        out and work as in ``_scaled_perp_phi``.
        """
        return _scaled_perp_phi(x, y, self.grid.L, vx, vy, self.D, out, work)

    def phi_at(self, x, y):
        rho_s = self.rho_ref * np.exp(-(self.potential.value(x, y) - self.v_ref) / self.D)
        return rho_s * _bubble(x, y, self.grid.L)


def reference_shapes(
    grid: Grid2D, potential: QuadraticPotential, D: float, rho_s: ScalarField
) -> ShapeFunctions:
    """The reference shapes on a grid, nodal fields from the closed forms.

    phi = 0 on the whole boundary, so the rotational drift is exactly
    tangential there.
    """
    L = grid.L
    X, Y = grid.meshgrid()
    alpha = ScalarField(
        grid, np.cos(np.pi * X / (2 * L)) * np.cos(np.pi * Y / (2 * L))
    )
    gax, gay = _grad_alpha(X, Y, L)
    grad_alpha = VectorField(grid, ScalarField(grid, gax), ScalarField(grid, gay))

    phi = ScalarField(grid, rho_s.values * _bubble(X, Y, L))
    spx, spy = _scaled_perp_phi(X, Y, L, *potential.grad(X, Y), D)
    scaled = VectorField(grid, ScalarField(grid, spx), ScalarField(grid, spy))
    perp = VectorField(
        grid,
        ScalarField(grid, rho_s.values * spx),
        ScalarField(grid, rho_s.values * spy),
    )

    i0, j0 = np.unravel_index(np.argmax(rho_s.values), rho_s.values.shape)
    return ShapeFunctions(
        grid=grid,
        alpha=alpha,
        grad_alpha=grad_alpha,
        phi=phi,
        perp_grad_phi=perp,
        scaled_perp_phi=scaled,
        potential=potential,
        D=D,
        v_ref=float(potential.value(grid.x[i0], grid.y[j0])),
        rho_ref=float(rho_s.values[i0, j0]),
    )


@dataclass(frozen=True)
class ShapeBcReport:
    """Measured boundary-normal components of the control drifts.

    The shape functions are supposed to satisfy <grad alpha, n> = 0 and
    <perp_grad phi, n> = 0 on the boundary.  The report records the
    measured maxima and flags each condition against the tolerance
    1e-6; it does not raise, because the reference alpha genuinely
    violates its condition and the violation is part of the record.
    """

    max_alpha_normal: float
    max_phi_perp_normal: float
    tolerance: float
    alpha_ok: bool
    phi_ok: bool


def validate_shape_bcs(shapes: ShapeFunctions) -> ShapeBcReport:
    tol = 1e-6
    a = boundary_max_normal(shapes.grad_alpha)
    p = boundary_max_normal(shapes.perp_grad_phi)
    return ShapeBcReport(a, p, tol, a <= tol, p <= tol)


def desired_vorticity(shapes: ShapeFunctions) -> ScalarField:
    """Target vorticity omega_d = Laplacian(phi), from the nodal phi.

    The stencil Laplacian of the tabulated phi is used although phi has
    a closed form: the same discrete field then appears in the reduced
    vorticity matrices, which keeps the reduced target exactly
    consistent with this one.
    """
    return laplacian(shapes.phi)


@dataclass(frozen=True)
class GaussianComponent:
    weight: float
    mean: tuple[float, float]
    var: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.weight > 0.0:
            raise ValueError("mixture weights must be positive")
        if not (self.var[0] > 0.0 and self.var[1] > 0.0):
            raise ValueError("component variances must be positive")


@dataclass(frozen=True)
class InitialDensitySpec:
    """Truncated Gaussian mixture; weights must sum to one."""

    components: tuple[GaussianComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total}, expected 1")

    def density(self, x, y):
        """Un-truncated mixture density at points."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for c in self.components:
            vx, vy = c.var
            norm = 1.0 / (2.0 * np.pi * np.sqrt(vx * vy))
            out += (
                c.weight
                * norm
                * np.exp(
                    -((x - c.mean[0]) ** 2) / (2 * vx) - ((y - c.mean[1]) ** 2) / (2 * vy)
                )
            )
        return out


def build_initial_density(
    spec: InitialDensitySpec, grid: Grid2D, w: QuadratureWeights
) -> ScalarField:
    """Mixture density restricted to the domain and renormalized to unit mass."""
    X, Y = grid.meshgrid()
    vals = spec.density(X, Y)
    rho = ScalarField(grid, vals)
    mass = integrate(rho, w)
    if mass <= 0.0:
        raise ValueError("initial density has nonpositive mass on the domain")
    rho = ScalarField(grid, vals / mass)
    if not np.all(rho.values > 0.0):
        raise ValueError("initial density must be strictly positive")
    return rho


def horizon_steps(t0: float, tf: float, dt: float) -> int:
    """Step count K = (tf - t0)/dt of a finite horizon that dt divides, K >= 1."""
    horizon = tf - t0
    if not (dt > 0.0 and horizon > 0.0 and np.isfinite(horizon)):
        raise ValueError(f"need a finite tf > t0 and dt > 0, got t0={t0}, tf={tf}, dt={dt}")
    k = round(horizon / dt)
    if abs(k * dt - horizon) > 1e-9 * horizon:  # also rejects k = 0
        raise ValueError(f"dt={dt} does not divide the horizon tf - t0 = {horizon}")
    return k


@dataclass(frozen=True)
class CostWeights:
    """Objective weights; all nonnegative.  optimize() additionally
    requires R1, R2 > 0 for coercivity in the controls."""

    Q1: float = 1.0e4
    Q2: float = 10.0
    R1: float = 1.0
    R2: float = 1.0
    Qf: float = 100.0
    Rf: float = 1.0

    def __post_init__(self) -> None:
        for name in ("Q1", "Q2", "R1", "R2", "Qf", "Rf"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"cost weight {name} must be nonnegative")


_WEIGHT_KEYS = ("Q1", "Q2", "R1", "R2", "Qf", "Rf")


def _as_int(name: str, value) -> int:
    """value as an int if it is a finite integral number; else ValueError."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"config field {name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete run configuration; defaults reproduce the reference study."""

    L: float = 4.0
    nx: int = 101
    ny: int = 101
    D: float = 2.0
    M: int = 21
    t0: float = 0.0
    tf: float = 1.0
    dt: float = 5.0e-3
    weights: CostWeights = field(default_factory=CostWeights)
    n_particles: int = 100_000
    seed: int = 0
    u1_init: float = 0.0
    u2_init: float = 1.0
    coarse_nx: int = 20
    coarse_ny: int = 20
    velocity_window: int = 1
    # substeps per control interval for the particle integrator; 2 keeps
    # the weak error under the Monte Carlo budget at N = 1e5
    em_substeps: int = 2

    def __post_init__(self) -> None:
        # int fields are stored as int, so that 41.0 and 41 hash alike and
        # the hashes key the grid that actually runs
        for f in fields(self):
            if f.type in ("int", int):
                object.__setattr__(self, f.name, _as_int(f.name, getattr(self, f.name)))
        if self.D <= 0.0:
            raise ValueError("diffusion coefficient D must be positive")
        if self.M < 1:
            raise ValueError("mode count M must be at least 1")
        horizon_steps(self.t0, self.tf, self.dt)
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if self.coarse_nx < 2 or self.coarse_ny < 2:
            raise ValueError("coarse grid must have at least 2 cells per axis")
        if self.velocity_window < 1:
            raise ValueError("velocity window must be at least one step")
        if self.em_substeps < 1:
            raise ValueError("em_substeps must be at least 1")
        # grid validity via make_grid
        make_grid(self.L, self.nx, self.ny)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["weights"] = {k: getattr(self.weights, k) for k in _WEIGHT_KEYS}
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "weights" in kwargs:
            wdata = kwargs["weights"]
            if not isinstance(wdata, dict):
                raise ValueError("config 'weights' must be an object")
            unknown_w = set(wdata) - set(_WEIGHT_KEYS)
            if unknown_w:
                raise ValueError(f"unknown weight keys: {sorted(unknown_w)}")
            kwargs["weights"] = CostWeights(**wdata)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def _hash_of(self, keys: tuple[str, ...]) -> str:
        sub = {k: self.to_dict()[k] for k in keys}
        return hashlib.sha256(json.dumps(sub, sort_keys=True).encode()).hexdigest()

    def eigen_hash(self) -> str:
        """Hash of the fields that determine the eigenbasis artifacts."""
        return self._hash_of(("L", "nx", "ny", "D", "M"))

    def design_hash(self) -> str:
        """Hash of the fields that determine the designed controls.

        The seed, particle and histogram fields only affect validation,
        so controls stay valid when they change.
        """
        return self._hash_of(
            ("L", "nx", "ny", "D", "M", "t0", "tf", "dt", "weights", "u1_init", "u2_init")
        )


class ReferenceProblem(NamedTuple):
    potential: QuadraticPotential
    shapes: ShapeFunctions
    initial: InitialDensitySpec
    config: ExperimentConfig
    grid: Grid2D
    w: QuadratureWeights
    rho_s: ScalarField


def reference_problem(config: ExperimentConfig | None = None) -> ReferenceProblem:
    """Assemble the reference study (optionally at a different resolution).

    The potential, shape functions and the two-bump initial mixture are
    fixed; grid, horizon, weights etc. come from the config.
    """
    cfg = config if config is not None else ExperimentConfig()
    grid = make_grid(cfg.L, cfg.nx, cfg.ny)
    w = trapezoid_weights(grid)
    potential = QuadraticPotential(2.0, 3.0)
    from .operators import stationary_density  # deferred: operators imports problem

    rho_s = stationary_density(potential, cfg.D, grid, w)
    shapes = reference_shapes(grid, potential, cfg.D, rho_s)
    initial = InitialDensitySpec(
        (
            GaussianComponent(0.5, (1.0, 0.0), (0.5, 0.5)),
            GaussianComponent(0.5, (-1.0, 0.0), (0.5, 0.5)),
        )
    )
    return ReferenceProblem(potential, shapes, initial, cfg, grid, w, rho_s)
