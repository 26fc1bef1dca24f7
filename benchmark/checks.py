"""Output checks for the benchmark, against references computed here.

Nothing in this module imports fpcirc: every reference value comes from
the model's definition (V = 2x^2 + 3y^2, D = 2 on [-4, 4]^2, the cost
weights of the reference study) or from the artifacts' own numbers
recomputed with code written apart from the program.  A failed check
raises CheckFailed with a message that names the artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The reference study, as the README of fpcirc states it.
POTENTIAL_A, POTENTIAL_B = 2.0, 3.0  # V = a x^2 + b y^2
DIFFUSION = 2.0
DT = 0.005
N_STEPS = 200
WEIGHTS = {"Q1": 1e4, "Q2": 10.0, "R1": 1.0, "R2": 1.0, "Qf": 100.0, "Rf": 1.0}
N_GATES = 9

MASS_TOL = 1e-10
EIGEN_REL_TOL = 0.02  # criterion 1
N_EIGEN_CHECKED = 7  # rates 0, 4, 6, 8, 10, 12, 12
DECAY_REL_TOL = 0.02
OBJECTIVE_REL_TOL = 1e-12


class CheckFailed(Exception):
    """An artifact does not match its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- reading ------------------------------------------------------------------


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and rows of a numeric CSV file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[1] == len(header), f"{path}: {data.shape[1]} columns for header {header}")
    return header, data


def read_field(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node coordinates xs, ys and values[i, j] at (xs[i], ys[j]) of a field CSV."""
    header, data = read_table(path)
    _require(header == ["x", "y", "value"], f"{path}: unexpected header {header}")
    xs, ix = np.unique(data[:, 0], return_inverse=True)
    ys, iy = np.unique(data[:, 1], return_inverse=True)
    _require(len(data) == len(xs) * len(ys), f"{path}: nodes do not form a tensor grid")
    values = np.full((len(xs), len(ys)), np.nan)
    values[ix, iy] = data[:, 2]
    _require(bool(np.isfinite(values).all()), f"{path}: missing or non-finite nodes")
    return xs, ys, values


def trapezoid(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> float:
    """Tensor trapezoid rule on a uniform grid."""
    def weights(nodes):
        h = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
        w = np.full(len(nodes), h)
        w[[0, -1]] = 0.5 * h
        return w

    return float(weights(xs) @ values @ weights(ys))


def file_digests(root, pattern: str = "*.csv") -> dict[str, str]:
    """SHA-256 of every file under root matching pattern, by relative path."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob(pattern))
        if p.is_file()
    }


def basis_dir(out) -> Path:
    dirs = sorted(Path(out).glob("basis_*"))
    _require(len(dirs) == 1, f"{out}: expected one basis directory, found {len(dirs)}")
    return dirs[0]


# -- references ---------------------------------------------------------------


def ou_rates(n: int) -> np.ndarray:
    """The n slowest Ornstein-Uhlenbeck rates -(4i + 6j), i, j >= 0, descending."""
    ka, kb = 2.0 * POTENTIAL_A, 2.0 * POTENTIAL_B
    rates = sorted(ka * i + kb * j for i in range(n) for j in range(n))
    return -np.array(rates[:n])


def rollout(model: dict, u1: np.ndarray, u2: np.ndarray, c0: np.ndarray, dt: float) -> np.ndarray:
    """Explicit Euler for dc/dt = (Lambda + u1 B1 + u2 B2) c; states (K+1, M)."""
    lam = np.asarray(model["eigenvalues"])
    B1, B2 = np.asarray(model["B1"]), np.asarray(model["B2"])
    C = np.empty((len(u1) + 1, len(c0)))
    C[0] = c0
    for k in range(len(u1)):
        c = C[k]
        C[k + 1] = c + dt * (lam * c + u1[k] * (B1 @ c) + u2[k] * (B2 @ c))
    return C


def cost(model: dict, u1: np.ndarray, u2: np.ndarray, c0: np.ndarray, dt: float) -> float:
    """Tracking + vorticity + effort + terminal cost of a control path."""
    w = WEIGHTS
    C = rollout(model, u1, u2, c0, dt)
    c_s, d = np.asarray(model["c_s"]), np.asarray(model["d"])
    A1, A2, A3 = (np.asarray(model[k]) for k in ("A1", "A2", "A3"))
    Cq = C[:-1]
    resid = Cq @ A1.T + u1[:, None] * (Cq @ A2.T) + u2[:, None] * (Cq @ A3.T) - d
    return (
        0.5 * dt * w["Q1"] * float(np.sum((Cq - c_s) ** 2))
        + 0.5 * dt * w["Q2"] * float(np.sum(resid**2))
        + 0.5 * dt * (w["R1"] * float(u1 @ u1) + w["R2"] * float(u2 @ u2))
        + 0.5 * w["Qf"] * float(np.sum((C[-1] - c_s) ** 2))
        + 0.5 * w["Rf"] * (float(u2[-1]) - 1.0) ** 2
    )


def read_controls(path) -> tuple[np.ndarray, np.ndarray, float]:
    header, data = read_table(path)
    _require(header == ["t", "u1", "u2"], f"{path}: unexpected header {header}")
    _require(len(data) == N_STEPS, f"{path}: {len(data)} samples, expected {N_STEPS}")
    return data[:, 1], data[:, 2], float(data[1, 0] - data[0, 0])


def read_c0(out) -> np.ndarray:
    """Initial reduced state: the t = 0 row of reduced_states.csv."""
    header, data = read_table(Path(out) / "reduced_states.csv")
    _require(header[0] == "t" and data[0, 0] == 0.0, f"{out}: reduced_states.csv has no t = 0 row")
    return data[0, 1:]


# -- checks -------------------------------------------------------------------


def check_gates(out) -> None:
    """All nine validation gates are present and pass."""
    gates = json.loads((Path(out) / "validation_summary.json").read_text())["gates"]
    _require(len(gates) == N_GATES, f"{out}: {len(gates)} gates, expected {N_GATES}")
    failing = sorted(name for name, g in gates.items() if g.get("pass") is not True)
    _require(not failing, f"{out}: gates failed: {failing}")


def check_stationary_density(path) -> None:
    """rho_s.csv equals exp(-V/D) / Z with Z from the trapezoid rule."""
    xs, ys, values = read_field(path)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    boltzmann = np.exp(-(POTENTIAL_A * X**2 + POTENTIAL_B * Y**2) / DIFFUSION)
    ref = boltzmann / trapezoid(xs, ys, boltzmann)
    err = float(np.max(np.abs(values - ref)) / np.max(ref))
    _require(err <= 1e-10, f"{path}: relative deviation {err:.3e} from exp(-V/D)/Z")


def check_eigenvalues(path) -> None:
    """The leading cached eigenvalues match the Ornstein-Uhlenbeck rates."""
    _, data = read_table(path)
    lam = data[:N_EIGEN_CHECKED, 1]
    ref = ou_rates(N_EIGEN_CHECKED)
    _require(len(lam) == N_EIGEN_CHECKED, f"{path}: only {len(lam)} eigenvalues")
    _require(abs(lam[0]) <= 1e-12, f"{path}: zero mode reads {lam[0]:.3e}")
    rel = np.abs(lam[1:] - ref[1:]) / np.abs(ref[1:])
    _require(
        bool(np.all(rel <= EIGEN_REL_TOL)),
        f"{path}: eigenvalues {lam.round(4).tolist()} off the rates {ref.tolist()} by {rel.max():.3%}",
    )


def check_mass(path) -> None:
    """The mass column of a diagnostics CSV stays within MASS_TOL of 1."""
    header, data = read_table(path)
    _require(header == ["t", "e_rho", "e_omega", "mass"], f"{path}: unexpected header {header}")
    _require(len(data) == N_STEPS + 1, f"{path}: {len(data)} rows, expected {N_STEPS + 1}")
    dev = float(np.max(np.abs(data[:, 3] - 1.0)))
    _require(dev <= MASS_TOL, f"{path}: mass deviates from 1 by {dev:.3e}")


def check_decay_rate(path) -> None:
    """Uncontrolled e_rho decays at the backward-Euler rate of the (2, 0) mode.

    The slowest mode even in x and y has rate -8; backward Euler turns it
    into -ln(1 + 8 dt) / dt.  The fit uses t >= 0.3, after the faster modes
    have gone.
    """
    _, data = read_table(path)
    t, e = data[:, 0], data[:, 1]
    keep = t >= 0.3
    slope = float(np.polyfit(t[keep], np.log(e[keep]), 1)[0])
    rate = 2.0 * 2.0 * POTENTIAL_A
    ref = -math.log1p(rate * DT) / DT
    _require(
        abs(slope - ref) <= DECAY_REL_TOL * abs(ref),
        f"{path}: e_rho decays at {slope:.4f}, expected {ref:.4f}",
    )


def check_objective(out) -> float:
    """report.json's J is the cost of controls.csv; its history never rises.

    Returns J.
    """
    out = Path(out)
    report = json.loads((out / "report.json").read_text())
    model = json.loads((out / "reduced_model.json").read_text())
    u1, u2, dt = read_controls(out / "controls.csv")
    J = cost(model, u1, u2, read_c0(out), dt)
    rel = abs(J - report["objective"]) / abs(J)
    _require(rel <= OBJECTIVE_REL_TOL, f"{out}: report J {report['objective']!r} vs recomputed {J!r} ({rel:.2e})")
    hist = np.asarray(report["objective_history"])
    _require(bool(np.all(np.diff(hist) <= 0.0)), f"{out}: objective_history increases")
    _require(hist[-1] == report["objective"], f"{out}: history does not end at J")
    return J


def check_snapshots(directory, expected: int) -> None:
    """expected density snapshots, each of unit mass under the trapezoid rule."""
    files = sorted(Path(directory).glob("rho_*.csv"))
    _require(len(files) == expected, f"{directory}: {len(files)} snapshots, expected {expected}")
    for f in files:
        mass = trapezoid(*read_field(f))
        _require(abs(mass - 1.0) <= MASS_TOL, f"{f}: mass {mass!r}")


def check_same_files(before: dict, after: dict, what: str) -> None:
    """Two digest maps (from file_digests) are equal."""
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    _require(not changed, f"{what}: files differ: {changed[:5]}")


def check_study(out) -> None:
    """Every check of one `fpcirc all` output directory."""
    out = Path(out)
    check_gates(out)
    check_stationary_density(out / "rho_s.csv")
    check_eigenvalues(basis_dir(out) / "eigenvalues.csv")
    check_mass(out / "diagnostics_optimized.csv")
    check_mass(out / "diagnostics_uncontrolled.csv")
    check_decay_rate(out / "diagnostics_uncontrolled.csv")
    check_objective(out)


def check_revalidate(out, snapshots: int) -> None:
    """Every per-directory check of one `fpcirc validate` round."""
    out = Path(out)
    check_gates(out)
    check_mass(out / "diagnostics_optimized.csv")
    check_mass(out / "diagnostics_uncontrolled.csv")
    check_snapshots(out / "snapshots", snapshots)
