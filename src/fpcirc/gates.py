"""Grading rules of a validation run, each stated once.

A designed control is graded two ways: the reduced model against the
full-grid solve, and the designed circulation against the particle
ensemble.  This module holds the nine gates of `fpcirc validate`, their
thresholds, the decay-slope fit, the consistency window and the
vorticity settling ratio; the command line and the acceptance suite
both grade through it.

Every function takes values that were already computed (diagnostic
series, consistency ratios, angular-momentum statistics, TV distances
with their budgets); none runs a solver or an estimator itself.
"""

from __future__ import annotations

import numpy as np

from .particles import AngularMomentumStat
from .pde import DiagnosticsSeries

__all__ = [
    "log_slope",
    "slowest_surviving",
    "mass_gate",
    "improvement_gate",
    "decay_rate_gate",
    "consistency_gate",
    "circulation_optimized_gate",
    "circulation_uncontrolled_gate",
    "tv_gate",
    "validation_gates",
    "settling_ratio",
]

MASS_TOL = 1e-10  # max |mass - 1| over the run
DECAY_FIT_FROM = 0.3  # the free decay is fitted from t0 + 0.3 horizon
DECAY_REL_TOL = 0.05  # fitted rate against the slowest surviving rate
SURVIVING_REL = 1e-8  # mode m survives when |c0[m]| > SURVIVING_REL |c0|
CONSISTENCY_FROM = 0.1  # reduced/full consistency graded from t0 + 0.1 horizon
CONSISTENCY_TOL = 0.05
CIRCULATION_RADIUS = 2.0  # angular momentum is averaged over |x| <= this
Z_OPTIMIZED_MAX = -5.0  # designed circulation: z at or below this
Z_UNCONTROLLED_MAX = 3.0  # no control: |z| at or below this
TV_BUDGETS = 3.0  # histogram TV distance within this many Monte Carlo budgets
# The vorticity settling ratio is recorded in the summary's extras, not
# graded as a gate; the acceptance suite holds it to this bound.
SETTLING_MAX = 0.1


def log_slope(times: np.ndarray, series: np.ndarray, t_min: float) -> float:
    """Least-squares slope of log(series) over the positive samples at t >= t_min."""
    msk = (times >= t_min) & (series > 0.0)
    if int(msk.sum()) < 2:
        return float("nan")
    A = np.vstack([times[msk], np.ones(int(msk.sum()))]).T
    sol, *_ = np.linalg.lstsq(A, np.log(series[msk]), rcond=None)
    return float(sol[0])


def slowest_surviving(eigenvalues: np.ndarray, c0: np.ndarray) -> float:
    """Most slowly decaying rate among the nonzero modes present in c0."""
    scale = float(np.linalg.norm(c0))
    for m in range(1, len(eigenvalues)):
        if abs(c0[m]) > SURVIVING_REL * scale:
            return float(eigenvalues[m])
    return float(eigenvalues[-1])


def mass_gate(mass: np.ndarray) -> dict:
    dev = float(np.max(np.abs(mass - 1.0)))
    return {"value": dev, "threshold": MASS_TOL, "pass": bool(dev <= MASS_TOL)}


def improvement_gate(e_rho_optimized: np.ndarray, e_rho_uncontrolled: np.ndarray) -> dict:
    """The controlled run ends closer to rho_s than the free one."""
    final = [float(e_rho_optimized[-1]), float(e_rho_uncontrolled[-1])]
    return {"value": final, "pass": bool(final[0] < final[1])}


def decay_rate_gate(
    series: DiagnosticsSeries, eigenvalues: np.ndarray, c0: np.ndarray, t0: float, tf: float
) -> dict:
    """The free run's e_rho decays at the slowest rate present in c0."""
    slope = log_slope(series.times, series.e_rho, t0 + DECAY_FIT_FROM * (tf - t0))
    target = slowest_surviving(eigenvalues, c0)
    return {
        "value": slope,
        "target": target,
        "rel_dev": abs(slope - target) / abs(target),
        "pass": bool(abs(slope - target) <= DECAY_REL_TOL * abs(target)),
    }


def consistency_gate(ratios: np.ndarray, t0: float, tf: float, dt: float) -> dict:
    """Reduced/full deviation ratios stay small once the initial
    truncation transient (ratios[0]) has passed."""
    t_win = t0 + CONSISTENCY_FROM * (tf - t0)
    k_win = max(1, int(np.ceil((t_win - t0 - 1e-12) / dt)))
    worst = float(np.max(ratios[k_win:]))
    return {
        "value": worst,
        "threshold": CONSISTENCY_TOL,
        "window_t_min": t_win,
        "initial_truncation_ratio": float(ratios[0]),
        "pass": bool(worst <= CONSISTENCY_TOL),
    }


def circulation_optimized_gate(am: AngularMomentumStat) -> dict:
    return {
        "z": am.z_score,
        "mean": am.mean,
        "se": am.std_error,
        "pass": bool(am.z_score <= Z_OPTIMIZED_MAX),
    }


def circulation_uncontrolled_gate(am: AngularMomentumStat) -> dict:
    return {"z": am.z_score, "pass": bool(abs(am.z_score) <= Z_UNCONTROLLED_MAX)}


def tv_gate(tv: float, budget: float) -> dict:
    return {"value": tv, "budget": budget, "pass": bool(tv <= TV_BUDGETS * budget)}


def validation_gates(
    series_optimized: DiagnosticsSeries,
    series_uncontrolled: DiagnosticsSeries,
    ratios: np.ndarray,
    eigenvalues: np.ndarray,
    c0: np.ndarray,
    am_optimized: AngularMomentumStat,
    am_uncontrolled: AngularMomentumStat,
    tv_optimized: tuple[float, float],
    tv_uncontrolled: tuple[float, float],
    *,
    t0: float,
    tf: float,
    dt: float,
) -> dict:
    """The nine gates of a validation run, by name.

    tv_* are (distance, budget) pairs; ratios[k] is the reduced/full
    deviation at step k relative to the initial deviation from rho_s.
    """
    return {
        "mass_optimized": mass_gate(series_optimized.mass),
        "mass_uncontrolled": mass_gate(series_uncontrolled.mass),
        "e_rho_final_improves": improvement_gate(
            series_optimized.e_rho, series_uncontrolled.e_rho
        ),
        "uncontrolled_decay_rate": decay_rate_gate(series_uncontrolled, eigenvalues, c0, t0, tf),
        "reduced_full_consistency": consistency_gate(ratios, t0, tf, dt),
        "circulation_optimized": circulation_optimized_gate(am_optimized),
        "circulation_uncontrolled": circulation_uncontrolled_gate(am_uncontrolled),
        "tv_optimized": tv_gate(*tv_optimized),
        "tv_uncontrolled": tv_gate(*tv_uncontrolled),
    }


def settling_ratio(e_omega_final: float, e_omega_initial: float) -> float:
    """Final vorticity error relative to that of rho0 under (u1, u2) = (0, 1)."""
    return float(e_omega_final / e_omega_initial)
