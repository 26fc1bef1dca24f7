"""Tests for the reduced-model control stack.

The gradient tests compare the adjoint gradient against independent
finite differences and against hand-derived closed forms on synthetic
diagonal models, so optimizer behavior rests on verified derivatives.
"""

import numpy as np
import pytest

from fpcirc.control import (
    ControlTrajectory,
    LineSearchError,
    RolloutBlowupError,
    check_gradient,
    objective,
    objective_and_gradient,
    objective_terms,
    optimize,
    rollout_state,
    stationarity_residual,
    total_variation,
)
from fpcirc.problem import CostWeights
from fpcirc.reduction import ReducedModel

from conftest import per_term_gradient, relative_error


def make_diag_model(lam, B1=None, B2=None):
    lam = np.asarray(lam, dtype=float)
    M = len(lam)
    Z = np.zeros((M, M))
    return ReducedModel(
        eigenvalues=lam,
        B1=Z if B1 is None else np.asarray(B1, dtype=float),
        B2=Z if B2 is None else np.asarray(B2, dtype=float),
        A1=Z.copy(),
        A2=Z.copy(),
        A3=Z.copy(),
        d=np.zeros(M),
        c_s=np.zeros(M),
    )


# ---------------------------------------------------------------- trajectories


def test_trajectory_rejects_nondividing_dt():
    with pytest.raises(ValueError):
        ControlTrajectory.from_constant(0.0, 1.0, 0.3, 0.0, 1.0)


def test_trajectory_rejects_bad_horizon():
    with pytest.raises(ValueError):
        ControlTrajectory(1.0, 1.0, 0.1, np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        ControlTrajectory(0.0, 1.0, -0.1, np.zeros(10), np.zeros(10))


def test_trajectory_rejects_wrong_array_length():
    with pytest.raises(ValueError):
        ControlTrajectory(0.0, 1.0, 0.1, np.zeros(9), np.zeros(10))


def test_trajectory_times_are_left_endpoints():
    traj = ControlTrajectory.from_constant(0.0, 1.0, 0.25, 0.0, 1.0)
    assert traj.n_steps == 4
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75])


def test_trajectory_vector_roundtrip():
    rng = np.random.default_rng(3)
    traj = ControlTrajectory(0.0, 1.0, 0.1, rng.normal(size=10), rng.normal(size=10))
    x = traj.as_vector()
    assert x.shape == (20,)
    back = traj.with_vector(x)
    assert np.array_equal(back.u1, traj.u1)
    assert np.array_equal(back.u2, traj.u2)
    with pytest.raises(ValueError):
        traj.with_vector(x[:-1])


def test_trajectory_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    traj = ControlTrajectory(0.0, 1.0, 0.05, rng.normal(size=20), rng.normal(size=20))
    path = tmp_path / "controls.csv"
    traj.write_csv(path)
    back = ControlTrajectory.read_csv(path)
    assert np.array_equal(back.u1, traj.u1)
    assert np.array_equal(back.u2, traj.u2)
    assert back.dt == pytest.approx(traj.dt, rel=1e-12)
    assert back.tf == pytest.approx(traj.tf, rel=1e-12)


def test_trajectory_csv_rejects_malformed(tmp_path):
    bad_cols = tmp_path / "four.csv"
    bad_cols.write_text("t,u1,u2,u3\n0.0,1.0,2.0,3.0\n0.1,1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        ControlTrajectory.read_csv(bad_cols)
    single = tmp_path / "one.csv"
    single.write_text("t,u1,u2\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        ControlTrajectory.read_csv(single)


def test_total_variation():
    assert total_variation(np.array([0.0, 2.0, 1.0])) == pytest.approx(3.0)
    assert total_variation(np.array([5.0])) == 0.0


# -------------------------------------------------------------------- rollout


def test_rollout_shape_and_initial_state(coarse_model, unit_horizon_traj, coarse_c0):
    C = rollout_state(coarse_model, unit_horizon_traj, coarse_c0)
    assert C.shape == (unit_horizon_traj.n_steps + 1, coarse_model.M)
    assert np.array_equal(C[0], coarse_c0)


def test_rollout_rejects_wrong_state_length(coarse_model, unit_horizon_traj):
    with pytest.raises(ValueError):
        rollout_state(coarse_model, unit_horizon_traj, np.zeros(coarse_model.M + 1))


def test_stationary_state_is_fixed_under_nominal_control(
    coarse_model, unit_horizon_traj
):
    # u = (0, 1) must hold the projected stationary density in place
    C = rollout_state(coarse_model, unit_horizon_traj, coarse_model.c_s)
    assert np.max(np.abs(C - coarse_model.c_s)) <= 1e-8


def test_uncontrolled_rollout_matches_scalar_recursion(coarse_model, coarse_c0):
    traj = ControlTrajectory.from_constant(0.0, 0.5, 0.005, 0.0, 0.0)
    C = rollout_state(coarse_model, traj, coarse_c0)
    # with u = 0 each step is c + (dt lambda) c, rounded in that order
    e = coarse_c0.copy()
    dt_lam = traj.dt * coarse_model.eigenvalues
    for k in range(traj.n_steps):
        e = e + dt_lam * e
        assert np.array_equal(C[k + 1], e)


def random_trajectories(n, seed):
    """Unit-horizon controls with N(0, 0.5^2) noise around (0, 1)."""
    rng = np.random.default_rng(seed)
    base = ControlTrajectory.from_constant(0.0, 1.0, 0.005, 0.0, 1.0)
    return [
        base.with_vector(base.as_vector() + 0.5 * rng.standard_normal(2 * base.n_steps))
        for _ in range(n)
    ]


def test_stacked_rollout_and_adjoint_match_per_term_recursion(coarse_model, coarse_c0):
    weights = CostWeights()
    for traj in random_trajectories(3, seed=17):
        C_ref, g1_ref, g2_ref = per_term_gradient(coarse_model, traj, coarse_c0, weights)
        C = rollout_state(coarse_model, traj, coarse_c0)
        _, g1, g2 = objective_and_gradient(coarse_model, traj, coarse_c0, weights)
        assert relative_error(C, C_ref) <= 1e-13
        assert relative_error(np.concatenate([g1, g2]), np.concatenate([g1_ref, g2_ref])) <= 1e-13


def test_rollout_blowup_raises():
    model = make_diag_model([-100.0, -100.0])
    traj = ControlTrajectory.from_constant(0.0, 5.0, 0.1, 0.0, 0.0)
    with pytest.raises(RolloutBlowupError):
        rollout_state(model, traj, np.ones(2))


# ------------------------------------------------------------------ objective


def test_effort_only_objective_closed_form():
    model = make_diag_model([-1.0, -2.0])
    traj = ControlTrajectory.from_constant(0.0, 2.0, 0.1, 3.0, 0.0)
    weights = CostWeights(Q1=0.0, Q2=0.0, R1=1.5, R2=0.0, Qf=0.0, Rf=0.0)
    J = objective(model, traj, np.zeros(2), weights)
    # 0.5 * R1 * u1^2 * (tf - t0)
    assert J == pytest.approx(0.5 * 1.5 * 9.0 * 2.0, rel=1e-12)


def test_objective_terms_sum_to_total(coarse_model, unit_horizon_traj, coarse_c0):
    weights = CostWeights()
    terms = objective_terms(coarse_model, unit_horizon_traj, coarse_c0, weights)
    parts = [
        terms["tracking"],
        terms["vorticity"],
        terms["effort"],
        terms["terminal_state"],
        terms["terminal_control"],
    ]
    assert terms["total"] == sum(parts)
    assert all(p >= 0.0 for p in parts)


def test_nominal_control_at_stationary_state_costs_only_effort(coarse_model):
    traj = ControlTrajectory.from_constant(0.0, 1.0, 0.005, 0.0, 1.0)
    J = objective(coarse_model, traj, coarse_model.c_s, CostWeights())
    # R2 = 1 effort over a unit horizon; every other term vanishes
    assert J == pytest.approx(0.5, abs=1e-10)


def test_objective_entry_points_agree_bit_for_bit(coarse_model, coarse_c0):
    # the optimizer compares J from objective with J from
    # objective_and_gradient; its monotone history needs equal bits
    weights = CostWeights()
    for traj in random_trajectories(4, seed=23):
        J = objective(coarse_model, traj, coarse_c0, weights)
        assert J == objective_and_gradient(coarse_model, traj, coarse_c0, weights)[0]


def test_zero_weights_give_zero_objective_and_gradient(
    coarse_model, unit_horizon_traj, coarse_c0
):
    weights = CostWeights(Q1=0.0, Q2=0.0, R1=0.0, R2=0.0, Qf=0.0, Rf=0.0)
    J, g1, g2 = objective_and_gradient(
        coarse_model, unit_horizon_traj, coarse_c0, weights
    )
    assert J == 0.0
    assert not np.any(g1)
    assert not np.any(g2)


# ------------------------------------------------------------------- gradient


def test_adjoint_gradient_matches_terminal_cost_closed_form():
    # Qf-only cost on a diagonal model admits a hand derivation:
    # mu[k] = (1 + dt lam)^(K-k) Qf (c_K - c_s), g_i[k] = dt mu[k+1].B_i c[k]
    rng = np.random.default_rng(11)
    lam = np.array([-1.0, -2.5, -4.0])
    B1 = rng.normal(size=(3, 3)) * 0.3
    B2 = rng.normal(size=(3, 3)) * 0.3
    model = make_diag_model(lam, B1, B2)
    traj = ControlTrajectory(
        0.0, 1.0, 0.1, rng.normal(size=10) * 0.2, rng.normal(size=10) * 0.2
    )
    c0 = rng.normal(size=3)
    weights = CostWeights(Q1=0.0, Q2=0.0, R1=0.0, R2=0.0, Qf=2.0, Rf=0.0)

    C = rollout_state(model, traj, c0)
    K, dt = traj.n_steps, traj.dt
    mu = weights.Qf * (C[K] - model.c_s)
    g1_ref = np.empty(K)
    g2_ref = np.empty(K)
    for k in range(K - 1, -1, -1):
        g1_ref[k] = dt * float(mu @ (B1 @ C[k]))
        g2_ref[k] = dt * float(mu @ (B2 @ C[k]))
        A = np.diag(1.0 + dt * lam) + dt * (traj.u1[k] * B1 + traj.u2[k] * B2)
        mu = A.T @ mu

    _, g1, g2 = objective_and_gradient(model, traj, c0, weights)
    np.testing.assert_allclose(g1, g1_ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(g2, g2_ref, rtol=1e-12, atol=1e-15)


def test_gradient_at_stationary_nominal_point_is_pure_effort(coarse_model):
    traj = ControlTrajectory.from_constant(0.0, 1.0, 0.005, 0.0, 1.0)
    weights = CostWeights()
    _, g1, g2 = objective_and_gradient(coarse_model, traj, coarse_model.c_s, weights)
    np.testing.assert_allclose(g1, 0.0, atol=1e-8)
    np.testing.assert_allclose(g2, traj.dt * weights.R2, atol=1e-8)


def test_adjoint_gradient_matches_finite_differences(
    coarse_model, unit_horizon_traj, coarse_c0
):
    worst = check_gradient(
        coarse_model, unit_horizon_traj, coarse_c0, CostWeights(), n_directions=8
    )
    assert worst <= 1e-6


def test_stationarity_residual_rescales_by_dt():
    g = np.array([0.0, -3.0, 1.0, 0.0])  # stacked (u1, u2) gradient
    assert stationarity_residual(g, 0.5) == pytest.approx(6.0)


# ------------------------------------------------------------------ optimizer


def small_problem():
    rng = np.random.default_rng(5)
    lam = np.array([-0.5, -2.0, -3.5])
    B1 = rng.normal(size=(3, 3)) * 0.4
    B2 = rng.normal(size=(3, 3)) * 0.4
    model = make_diag_model(lam, B1, B2)
    traj0 = ControlTrajectory.from_constant(0.0, 1.0, 0.05, 0.0, 0.0)
    c0 = np.array([1.0, -0.6, 0.4])
    weights = CostWeights(Q1=2.0, Q2=0.0, R1=0.2, R2=0.2, Qf=1.0, Rf=0.1)
    return model, traj0, c0, weights


def test_optimize_converges_on_small_problem():
    model, traj0, c0, weights = small_problem()
    calls = []
    rep = optimize(
        model,
        traj0,
        c0,
        weights,
        gtol=1e-9,
        max_iterations=500,
        callback=lambda it, x, J, g: calls.append(it),
    )
    assert rep.converged
    assert rep.message == "gradient tolerance reached"
    assert rep.stop_reason == "gtol"
    assert rep.grad_inf <= 1e-9
    hist = rep.objective_history
    assert rep.objective == hist[-1]
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] < hist[0]
    assert len(calls) == rep.n_iterations
    assert rep.n_evaluations >= rep.n_iterations
    J_check = objective(model, rep.trajectory, c0, weights)
    assert J_check == pytest.approx(rep.objective, rel=1e-12)


def test_optimize_stops_at_objective_floor_before_cap():
    # gtol=0 is never reached; the run must end at the first accepted
    # step that leaves J unchanged instead of backtracking to the cap
    model, traj0, c0, weights = small_problem()
    calls = []
    rep = optimize(
        model,
        traj0,
        c0,
        weights,
        gtol=0.0,
        max_iterations=2000,
        callback=lambda it, x, J, g: calls.append(it),
    )
    assert not rep.converged
    assert rep.message == "objective at floating-point floor"
    assert rep.stop_reason == "floor"
    assert rep.n_iterations < 2000
    assert len(calls) == rep.n_iterations
    hist = rep.objective_history
    assert rep.objective == hist[-1]
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == hist[-2]


def test_optimize_evaluates_only_value_and_gradient(monkeypatch):
    # each line-search trial is one value-and-gradient evaluation, and
    # n_evaluations counts every one of them
    from fpcirc import control

    model, traj0, c0, weights = small_problem()
    real = control.objective_and_gradient
    calls = []

    def objective(*args):
        raise AssertionError("optimize called the value-only objective")

    def objective_and_gradient(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(control, "objective", objective)
    monkeypatch.setattr(control, "objective_and_gradient", objective_and_gradient)
    rep = optimize(model, traj0, c0, weights, gtol=1e-9, max_iterations=500)
    assert rep.converged
    assert rep.n_evaluations == len(calls)
    assert rep.n_iterations < rep.n_evaluations


def test_optimize_retries_along_steepest_descent(monkeypatch):
    # every trial step along the second iteration's quasi-Newton direction
    # is rejected; the line search must then retry along steepest descent
    # rather than stop
    from fpcirc import control

    model, traj0, c0, weights = small_problem()
    real = control.objective_and_gradient
    rejections = {"left": 0}

    def objective_and_gradient(*args):
        if rejections["left"] > 0:
            rejections["left"] -= 1
            raise RolloutBlowupError("rejected by the test")
        return real(*args)

    seen = {}

    def callback(it, x, J, g):
        seen[it] = (x.copy(), g.copy())
        if it == 1:
            rejections["left"] = control.MAX_BACKTRACKS

    monkeypatch.setattr(control, "objective_and_gradient", objective_and_gradient)
    rep = optimize(model, traj0, c0, weights, gtol=1e-9, max_iterations=500, callback=callback)
    assert rejections["left"] == 0
    assert rep.converged
    (x1, g1), (x2, _) = seen[1], seen[2]
    step = x2 - x1
    np.testing.assert_allclose(step / np.linalg.norm(step), -g1 / np.linalg.norm(g1), atol=1e-12)


def test_optimize_requires_positive_effort_weights(coarse_model, coarse_c0):
    traj = ControlTrajectory.from_constant(0.0, 1.0, 0.1, 0.0, 1.0)
    bad = CostWeights(R1=0.0)
    with pytest.raises(ValueError):
        optimize(coarse_model, traj, coarse_c0, bad)


def test_optimize_stops_on_failed_line_search(monkeypatch):
    # after the first iteration every trial step is rejected, along the
    # quasi-Newton direction and along the steepest-descent retry
    from fpcirc import control

    model, traj0, c0, weights = small_problem()
    real = control.objective_and_gradient
    reject = {"on": False}

    def objective_and_gradient(*args):
        if reject["on"]:
            raise RolloutBlowupError("rejected by the test")
        return real(*args)

    def callback(it, x, J, g):
        reject["on"] = True

    monkeypatch.setattr(control, "objective_and_gradient", objective_and_gradient)
    rep = optimize(model, traj0, c0, weights, gtol=1e-9, max_iterations=500, callback=callback)
    assert rep.stop_reason == "line_search"
    assert not rep.converged
    assert rep.n_iterations == 1


def test_optimize_report_summary_keys():
    model, traj0, c0, weights = small_problem()
    rep = optimize(model, traj0, c0, weights, gtol=0.0, max_iterations=3)
    s = rep.summary()
    assert s["stop_reason"] == "cap"
    assert s["n_iterations"] == 3
    assert not s["converged"]
    assert set(s) == {
        "objective",
        "grad_inf",
        "stationarity",
        "converged",
        "n_iterations",
        "n_evaluations",
        "message",
        "stop_reason",
    }
    assert s["stationarity"] == pytest.approx(s["grad_inf"] / traj0.dt)
