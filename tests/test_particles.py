"""Tests for the particle ensemble and the empirical flux estimator.

Monte Carlo assertions use z-score bands sized from the estimator's own
standard error (3-4 sigma), so failures mean a real bug rather than an
unlucky seed; deterministic mechanics (reflection, chunked streams,
substeps) are checked exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fpcirc.control import ControlTrajectory
from fpcirc.particles import (
    CHUNK_SIZE,
    AngularMomentumStat,
    ParticleEnsemble,
    _cell_assignment,
    angular_momentum,
    draw_noise,
    em_step,
    estimate_flux,
    histogram_tv_distance,
    sample_initial,
    simulate,
)
from fpcirc.problem import (
    GaussianComponent,
    InitialDensitySpec,
    _grad_alpha,
    _scaled_perp_phi,
)

from conftest import box_muller, expression_em_step

L = 4.0


def stationary_spec():
    # the stationary density of V = 2x^2 + 3y^2 at D = 2 is the Gaussian
    # with Var x = 1/2, Var y = 1/3 (truncation at |x| = 4 is negligible)
    return InitialDensitySpec(
        (GaussianComponent(1.0, (0.0, 0.0), (0.5, 1.0 / 3.0)),)
    )


@pytest.fixture(scope="module")
def stationary_run(coarse_prob):
    """Uncontrolled run started in equilibrium, with a velocity record."""
    ens = sample_initial(stationary_spec(), 20000, 42, L)
    traj = ControlTrajectory.from_constant(0.0, 0.25, 5e-3, 0.0, 0.0)
    [(ens, record)] = simulate(
        ens,
        [traj],
        coarse_prob.shapes,
        coarse_prob.potential,
        coarse_prob.config.D,
        velocity_window=10,
    )
    return ens, record


# ------------------------------------------------------------------- sampling


def test_sample_initial_stays_in_box_and_is_deterministic(coarse_prob):
    spec = coarse_prob.initial
    a = sample_initial(spec, 5000, 7, L)
    b = sample_initial(spec, 5000, 7, L)
    assert np.max(np.abs(a.positions)) <= L
    assert np.array_equal(a.positions, b.positions)
    c = sample_initial(spec, 5000, 8, L)
    assert not np.array_equal(a.positions, c.positions)


def test_sample_initial_matches_mixture_moments(coarse_prob):
    n = 20000
    ens = sample_initial(coarse_prob.initial, n, 3, L)
    x, y = ens.positions[:, 0], ens.positions[:, 1]
    # mixture of N(+-1, 0.5) in x: mean 0, Var = 1 + 0.5; y: N(0, 0.5)
    assert abs(np.mean(x)) <= 4.0 * np.sqrt(1.5 / n)
    assert abs(np.mean(y)) <= 4.0 * np.sqrt(0.5 / n)
    assert np.var(x) == pytest.approx(1.5, abs=4.0 * 1.5 * np.sqrt(2.0 / n))
    assert np.var(y) == pytest.approx(0.5, abs=4.0 * 0.5 * np.sqrt(2.0 / n))


def test_sample_initial_rejects_mixture_outside_box():
    spec = InitialDensitySpec((GaussianComponent(1.0, (10.0, 0.0), (0.5, 0.5)),))
    with pytest.raises(ValueError):
        sample_initial(spec, 2000, 0, L)


def test_ensemble_rejects_bad_positions():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros((5, 3)), L, 0)
    with pytest.raises(ValueError):
        ParticleEnsemble(np.array([[5.0, 0.0]]), L, 0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ParticleEnsemble(np.array([[0.0, 0.0], [bad, 0.0]]), L, 0)


# ---------------------------------------------------------------------- noise


class _FixedUniforms:
    """Stands in for a chunk stream: each random(out=) call fills the next value."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, out):
        out[...] = self.values.pop(0)


def test_draw_noise_matches_box_muller_oracle():
    # three chunks, the last a partial one
    n = 2 * CHUNK_SIZE + 17
    noise = draw_noise(ParticleEnsemble(np.zeros((n, 2)), L, 11))
    for i, start in enumerate(range(0, n, CHUNK_SIZE)):
        m = min(CHUNK_SIZE, n - start)
        rng = np.random.default_rng(np.random.SeedSequence((11, i)))
        xi_x, xi_y = box_muller(rng.random(m), rng.random(m))
        assert np.array_equal(noise[start : start + m, 0], xi_x)
        assert np.array_equal(noise[start : start + m, 1], xi_y)


def test_draw_noise_moments_and_ks_statistic():
    # deterministic at the fixed seed; the bounds are 4 standard errors
    # (mean, variance, correlation) and the KS statistic's 0.1% critical
    # value 1.95 / sqrt(N)
    n = 500_000
    noise = draw_noise(ParticleEnsemble(np.zeros((n, 2)), L, 2024))
    x, y = noise[:, 0], noise[:, 1]
    for xi in (x, y, noise.reshape(-1)):
        N = len(xi)
        assert abs(np.mean(xi)) <= 4.0 / np.sqrt(N)
        assert abs(np.var(xi) - 1.0) <= 4.0 * np.sqrt(2.0 / N)
        assert stats.kstest(xi, "norm").statistic <= 1.95 / np.sqrt(N)
    assert abs(np.corrcoef(x, y)[0, 1]) <= 4.0 / np.sqrt(n)
    # x and y are independent, not merely uncorrelated: r^2 = x^2 + y^2
    # is exponential with mean 2 and its angle is uniform
    assert abs(np.corrcoef(x * x, y * y)[0, 1]) <= 4.0 / np.sqrt(n)
    assert stats.kstest(x * x + y * y, "expon", args=(0.0, 2.0)).statistic <= 1.95 / np.sqrt(n)


def test_draw_noise_is_finite_at_the_uniforms_ends():
    # u = 0 gives r = 0; v = 0 puts the angle at -pi, where t is -1.6e16;
    # the largest uniform below 1 gives the largest radius
    top = 1.0 - 2.0**-53
    for u in (0.0, 0.5, top):
        for v in (0.0, 0.25, 0.5, top):
            ens = ParticleEnsemble(np.zeros((3, 2)), L, 0, rngs=[_FixedUniforms(u, v)])
            noise = draw_noise(ens)
            assert np.isfinite(noise).all()
            r, theta = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v - np.pi
            np.testing.assert_allclose(noise, [[r * np.cos(theta), r * np.sin(theta)]] * 3,
                                       rtol=0.0, atol=1e-14)


def test_draw_noise_rejects_bad_out():
    n = 7
    ens = ParticleEnsemble(np.zeros((n, 2)), L, 0)
    for out in (
        np.empty((n, 2)),  # row-major
        np.empty((n, 2), dtype=np.float32, order="F"),
        np.empty((n + 1, 2), order="F"),
        np.empty((n, 3), order="F"),
        np.empty((2 * n, 2), order="F")[::2],  # strided
    ):
        with pytest.raises(ValueError):
            draw_noise(ens, out)
    out = np.empty((n, 2), order="F")
    assert draw_noise(ens, out) is out


# ----------------------------------------------------------------------- step


def test_em_step_zero_noise_follows_drift(coarse_prob):
    ens = ParticleEnsemble(np.array([[0.0, 0.0], [1.0, 0.0]]), L, 0)
    em_step(ens, 0.0, 0.0, 0.01, coarse_prob.shapes, coarse_prob.potential, 0.0,
            draw_noise(ens))
    # -grad V = (-4x, -6y): the origin is fixed, (1, 0) moves to (1 - 4 dt, 0)
    assert np.array_equal(ens.positions[0], [0.0, 0.0])
    np.testing.assert_allclose(ens.positions[1], [1.0 - 0.04, 0.0], rtol=1e-15)
    assert ens.t == pytest.approx(0.01)


def test_em_step_zero_noise_follows_controlled_drift(coarse_prob):
    # the reference comes from the sine-cosine closed forms that fill the
    # nodal tables, not from the particles' own evaluators
    shapes, potential = coarse_prob.shapes, coarse_prob.potential
    rng = np.random.default_rng(5)
    start = rng.uniform(-3.0, 3.0, size=(200, 2))
    x, y = start[:, 0], start[:, 1]
    u1, u2, dt = 0.7, -1.3, 0.01
    gvx, gvy = potential.grad(x, y)
    gax, gay = _grad_alpha(x, y, L)
    spx, spy = _scaled_perp_phi(x, y, L, gvx, gvy, coarse_prob.config.D)
    expected = start + dt * np.column_stack(
        [-gvx - u1 * gax - u2 * spx, -gvy - u1 * gay - u2 * spy]
    )
    ens = ParticleEnsemble(start.copy(), L, 0)
    em_step(ens, u1, u2, dt, shapes, potential, 0.0, draw_noise(ens))
    np.testing.assert_allclose(ens.positions, expected, rtol=1e-14, atol=0.0)


def test_em_step_reflects_back_into_box(coarse_prob):
    rng = np.random.default_rng(0)
    pos = np.column_stack([
        rng.uniform(3.5, 4.0, 500), rng.uniform(-4.0, 4.0, 500)
    ])
    ens = ParticleEnsemble(pos, L, 1)
    for _ in range(20):
        em_step(ens, 0.0, 1.0, 0.01, coarse_prob.shapes, coarse_prob.potential, 2.0,
                draw_noise(ens))
    assert np.max(np.abs(ens.positions)) <= L


def test_em_step_rejects_nonpositive_dt(coarse_prob):
    ens = ParticleEnsemble(np.zeros((4, 2)), L, 0)
    with pytest.raises(ValueError):
        em_step(ens, 0.0, 0.0, 0.0, coarse_prob.shapes, coarse_prob.potential, 2.0,
                draw_noise(ens))


def test_em_step_rejects_misshapen_noise(coarse_prob):
    ens = ParticleEnsemble(np.zeros((4, 2)), L, 0)
    with pytest.raises(ValueError):
        em_step(ens, 0.0, 0.0, 0.01, coarse_prob.shapes, coarse_prob.potential, 2.0,
                np.zeros((3, 2)))


def test_em_step_matches_expression_oracle(coarse_prob):
    # all four cases of u1 and u2 zero or not, over three chunks, the last
    # a partial one; at D = 1.5, since dividing by 2 is exact
    potential, D = coarse_prob.potential, 1.5
    shapes = replace(coarse_prob.shapes, D=D)
    n = 2 * CHUNK_SIZE + 17
    dt = 0.01
    rng = np.random.default_rng(8)
    for u1, u2 in ((0.0, 0.0), (1.3, 0.0), (0.0, -0.9), (0.7, 1.1)):
        start = rng.uniform(-L, L, size=(n, 2))
        # every 50th particle starts 0.01 inside a wall, and its noise
        # carries it 1.0 out, more than the drift can bring back in dt
        near = slice(0, n, 50)
        side = np.sign(start[near])
        start[near] = side * (L - 0.01)
        ens = ParticleEnsemble(start, L, 3)
        noise = draw_noise(ens)
        noise[near] = 5.0 * side
        expected = expression_em_step(start, u1, u2, dt, L, potential.a, potential.b, D,
                                      noise)
        em_step(ens, u1, u2, dt, shapes, potential, D, noise)
        assert np.array_equal(ens.positions, expected)
        assert np.abs(ens.positions[near]).max() < L - 0.5  # reflected


def _separate_run(ens, traj, window, substeps, step):
    """A lone ensemble drawing its own noise: the reference for lockstep.

    step(ens, u1, u2, dt, noise) takes one substep.
    """
    dt_s = traj.dt / substeps
    K = traj.n_steps
    mids, vels = [], []
    for k in range(K):
        for _ in range(substeps):
            before = ens.positions.copy()
            step(ens, traj.u1[k], traj.u2[k], dt_s, draw_noise(ens))
            if k >= K - window:
                mids.append(0.5 * (before + ens.positions))
                vels.append((ens.positions - before) / dt_s)
    return ens.positions, np.concatenate(mids), np.concatenate(vels)


@pytest.mark.parametrize("substeps", [1, 4])
def test_lockstep_matches_separate_runs(coarse_prob, substeps):
    shapes, potential = coarse_prob.shapes, coarse_prob.potential
    rng = np.random.default_rng(4)
    traj_a = ControlTrajectory.from_constant(0.0, 0.03, 5e-3, 0.0, 0.0)
    traj_b = traj_a.with_vector(rng.normal(size=2 * traj_a.n_steps))
    n = 40000  # 3 chunks
    ens = sample_initial(coarse_prob.initial, n, 13, L)
    runs = simulate(ens, [traj_a, traj_b], shapes, potential, 2.0,
                    velocity_window=2, em_substeps=substeps)
    assert len(runs) == 2
    for (e, rec), traj in zip(runs, (traj_a, traj_b)):
        ref = sample_initial(coarse_prob.initial, n, 13, L)
        pos, mids, vels = _separate_run(
            ref, traj, 2, substeps,
            lambda e, u1, u2, dt, nz: em_step(e, u1, u2, dt, shapes, potential, 2.0, nz),
        )
        assert np.array_equal(e.positions, pos)
        assert np.array_equal(rec.positions, mids)
        assert np.array_equal(rec.velocities, vels)
        assert rec.dt == traj.dt / substeps
        assert e.t == pytest.approx(0.03)
    assert not np.array_equal(runs[0][0].positions, runs[1][0].positions)


@pytest.mark.parametrize("substeps", [1, 2])
def test_simulate_matches_expression_oracle(coarse_prob, substeps):
    potential = coarse_prob.potential

    def oracle(e, u1, u2, dt, noise):
        e.positions = expression_em_step(e.positions, u1, u2, dt, L, potential.a,
                                         potential.b, 2.0, noise)

    # one control step in each case of u1 and u2 zero or not
    traj = ControlTrajectory(0.0, 0.02, 5e-3, [0.0, 1.3, 0.0, 0.7], [0.0, 0.0, -0.9, 1.1])
    trajs = [traj, traj.with_vector(np.zeros(8))]
    n = 2 * CHUNK_SIZE + 17
    ens = sample_initial(coarse_prob.initial, n, 21, L)
    runs = simulate(ens, trajs, coarse_prob.shapes, potential, 2.0,
                    velocity_window=2, em_substeps=substeps)
    for (e, rec), tr in zip(runs, trajs):
        ref = sample_initial(coarse_prob.initial, n, 21, L)
        pos, mids, vels = _separate_run(ref, tr, 2, substeps, oracle)
        assert np.array_equal(e.positions, pos)
        assert np.array_equal(rec.positions, mids)
        assert np.array_equal(rec.velocities, vels)


def test_positions_and_noise_are_column_major(coarse_prob):
    assert ParticleEnsemble(np.zeros((5, 2)), L, 0).positions.flags.f_contiguous
    n = 2 * CHUNK_SIZE + 17
    ens = sample_initial(coarse_prob.initial, n, 6, L)
    assert ens.positions.flags.f_contiguous
    traj = ControlTrajectory.from_constant(0.0, 0.01, 5e-3, 0.0, 1.0)
    runs = simulate(ens, [traj, traj, traj], coarse_prob.shapes, coarse_prob.potential,
                    2.0)
    assert all(e.positions.flags.f_contiguous for e, _ in runs)
    # chunk i's stream draws its x column's uniforms, then its y column's,
    # and nothing else
    ens = ParticleEnsemble(np.zeros((n, 2)), L, 6)
    assert draw_noise(ens).flags.f_contiguous
    for i, start in enumerate(range(0, n, CHUNK_SIZE)):
        m = min(CHUNK_SIZE, n - start)
        rng = np.random.default_rng(np.random.SeedSequence((6, i)))
        rng.random(2 * m)
        assert ens.rngs[i].bit_generator.state == rng.bit_generator.state


def test_simulate_calls_em_step_once_per_ensemble_and_substep(coarse_prob, monkeypatch):
    import fpcirc.particles as particles

    calls = []
    real = particles.em_step

    def counting(ens, *args, **kwargs):
        calls.append(id(ens))
        return real(ens, *args, **kwargs)

    monkeypatch.setattr(particles, "em_step", counting)
    ens = sample_initial(coarse_prob.initial, 500, 3, L)
    traj = ControlTrajectory.from_constant(0.0, 0.05, 5e-3, 0.0, 1.0)
    u_zero = ControlTrajectory.from_constant(0.0, 0.05, 5e-3, 0.0, 0.0)
    runs = simulate(ens, [traj, u_zero], coarse_prob.shapes, coarse_prob.potential,
                    2.0, em_substeps=2)
    assert len(calls) == 2 * traj.n_steps * 2
    for e, _ in runs:
        assert calls.count(id(e)) == traj.n_steps * 2


def test_simulate_is_deterministic(coarse_prob):
    traj = ControlTrajectory.from_constant(0.0, 0.05, 5e-3, 0.0, 1.0)

    def run():
        ens = sample_initial(coarse_prob.initial, 3000, 5, L)
        return simulate(
            ens, [traj], coarse_prob.shapes, coarse_prob.potential, 2.0
        )[0][0].positions

    assert np.array_equal(run(), run())


def test_simulate_substeps_shrink_record_dt(coarse_prob):
    ens = sample_initial(coarse_prob.initial, 1000, 2, L)
    traj = ControlTrajectory.from_constant(0.0, 0.05, 5e-3, 0.0, 1.0)
    [(ens, record)] = simulate(
        ens, [traj], coarse_prob.shapes, coarse_prob.potential, 2.0,
        velocity_window=3, em_substeps=2,
    )
    assert record.dt == pytest.approx(2.5e-3)
    # 3 windowed control steps x 2 substeps x 1000 particles
    assert record.positions.shape == (6000, 2)
    assert record.velocities.shape == (6000, 2)


def test_simulate_rejects_bad_window_and_substeps(coarse_prob):
    ens = sample_initial(coarse_prob.initial, 100, 0, L)
    traj = ControlTrajectory.from_constant(0.0, 0.05, 5e-3, 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate(ens, [traj], coarse_prob.shapes, coarse_prob.potential, 2.0,
                 velocity_window=11)
    with pytest.raises(ValueError):
        simulate(ens, [traj], coarse_prob.shapes, coarse_prob.potential, 2.0,
                 em_substeps=0)
    with pytest.raises(ValueError):
        simulate(ens, [], coarse_prob.shapes, coarse_prob.potential, 2.0)
    shorter = ControlTrajectory.from_constant(0.0, 0.04, 5e-3, 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate(ens, [traj, shorter], coarse_prob.shapes, coarse_prob.potential, 2.0)


# ------------------------------------------------------------ long-run moments


def test_uncontrolled_ensemble_equilibrates_to_stationary_moments(coarse_prob):
    n = 5000
    ens = sample_initial(coarse_prob.initial, n, 1, L)
    traj = ControlTrajectory.from_constant(0.0, 5.0, 2e-3, 0.0, 0.0)
    [(ens, _)] = simulate(ens, [traj], coarse_prob.shapes, coarse_prob.potential, 2.0)
    x, y = ens.positions[:, 0], ens.positions[:, 1]
    vx, vy = 0.5, 1.0 / 3.0
    assert abs(np.mean(x)) <= 3.0 * np.sqrt(vx / n)
    assert abs(np.mean(y)) <= 3.0 * np.sqrt(vy / n)
    assert np.var(x) == pytest.approx(vx, abs=3.0 * vx * np.sqrt(2.0 / n))
    assert np.var(y) == pytest.approx(vy, abs=3.0 * vy * np.sqrt(2.0 / n))


def test_circulating_control_preserves_stationary_moments(coarse_prob):
    # u = (0, 1) adds a divergence-free current: the one-time marginals
    # must stay at the stationary Gaussian
    n = 5000
    ens = sample_initial(stationary_spec(), n, 9, L)
    traj = ControlTrajectory.from_constant(0.0, 1.0, 2e-3, 0.0, 1.0)
    [(ens, _)] = simulate(ens, [traj], coarse_prob.shapes, coarse_prob.potential, 2.0)
    x, y = ens.positions[:, 0], ens.positions[:, 1]
    vx, vy = 0.5, 1.0 / 3.0
    assert abs(np.mean(x)) <= 4.0 * np.sqrt(vx / n)
    assert abs(np.mean(y)) <= 4.0 * np.sqrt(vy / n)
    assert np.var(x) == pytest.approx(vx, abs=4.0 * vx * np.sqrt(2.0 / n))
    assert np.var(y) == pytest.approx(vy, abs=4.0 * vy * np.sqrt(2.0 / n))


# ------------------------------------------------------------- flux estimation


def test_midpoint_binning_sees_zero_flux_at_equilibrium(stationary_run):
    # per-cell mean velocity must be statistically zero without control;
    # binning by step start instead would read the full reversible drift
    ens, record = stationary_run
    edges = np.linspace(-L, L, 11)
    ix = np.clip(np.searchsorted(edges, record.positions[:, 0], "right") - 1, 0, 9)
    iy = np.clip(np.searchsorted(edges, record.positions[:, 1], "right") - 1, 0, 9)
    flat = ix * 10 + iy
    n_ok = 0
    n_cells = 0
    for c in range(100):
        sel = flat == c
        m = int(sel.sum())
        if m < 200:
            continue
        n_cells += 1
        for comp in (0, 1):
            v = record.velocities[sel, comp]
            z = abs(np.mean(v)) / (np.std(v, ddof=1) / np.sqrt(m))
            n_ok += z <= 3.0
    assert n_cells >= 20
    assert n_ok >= 0.95 * (2 * n_cells)


def test_estimate_flux_density_normalization_and_masking(stationary_run):
    ens, record = stationary_run
    est = estimate_flux(ens, record, 10, 10, min_count=10)
    cell_area = (8.0 / 10) ** 2
    assert np.sum(est.density) * cell_area == pytest.approx(1.0, rel=1e-12)
    # corner cells hold essentially no equilibrium mass: masked as NaN
    assert est.count.min() < 10
    assert np.isnan(est.vx[est.count < 10]).all()
    assert np.isfinite(est.vx[est.count >= 10]).all()


def test_flux_estimate_csv_layout(stationary_run, tmp_path):
    ens, record = stationary_run
    est = estimate_flux(ens, record, 5, 5)
    path = tmp_path / "flux.csv"
    est.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,density,vx,vy,count"
    assert len(lines) == 1 + 25
    # one row per cell, x outer, every value round-trips; counts print
    # as integers
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    X, Y = np.meshgrid(est.x_centers, est.y_centers, indexing="ij")
    for col, ref in zip(data.T, (X, Y, est.density, est.vx, est.vy, est.count)):
        np.testing.assert_array_equal(col, ref.reshape(-1))
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [
        str(int(c)) for c in est.count.reshape(-1)
    ]


def test_angular_momentum_is_statistically_zero_at_equilibrium(stationary_run):
    _, record = stationary_run
    stat = angular_momentum(record, radius=2.0)
    assert stat.n_samples > 1000
    assert abs(stat.z_score) <= 3.0


def test_angular_momentum_standard_error_scales_with_samples(coarse_prob):
    def run(n, seed):
        ens = sample_initial(stationary_spec(), n, seed, L)
        traj = ControlTrajectory.from_constant(0.0, 0.05, 5e-3, 0.0, 0.0)
        [(_, record)] = simulate(
            ens, [traj], coarse_prob.shapes, coarse_prob.potential, 2.0,
            velocity_window=10,
        )
        return angular_momentum(record, radius=2.0)

    small = run(2000, 31)
    large = run(8000, 31)
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_angular_momentum_rejects_empty_disc():
    record_pos = np.array([[3.5, 3.5], [3.6, 3.6]])
    record_vel = np.zeros((2, 2))
    from fpcirc.particles import VelocityRecord

    rec = VelocityRecord(record_pos, record_vel, 1e-3)
    with pytest.raises(ValueError):
        angular_momentum(rec, radius=1.0)


def test_angular_momentum_zero_std_error_degenerate():
    stat = AngularMomentumStat(mean=1.0, std_error=0.0, n_samples=10)
    assert stat.z_score == 0.0


# ----------------------------------------------------------- histogram metric


def test_cell_assignment_splits_shared_nodes():
    nodes = np.array([-4.0, -1.0, 0.0, 2.5, 4.0])
    edges = np.array([-4.0, 0.0, 4.0])
    S = _cell_assignment(nodes, edges)
    np.testing.assert_allclose(S.sum(axis=1), 1.0)
    np.testing.assert_allclose(S[0], [1.0, 0.0])   # left boundary node
    np.testing.assert_allclose(S[1], [1.0, 0.0])
    np.testing.assert_allclose(S[2], [0.5, 0.5])   # node on interior edge
    np.testing.assert_allclose(S[3], [0.0, 1.0])
    np.testing.assert_allclose(S[4], [0.0, 1.0])   # right boundary node

    # the reference grid's nodes against 20 cells: linspace puts some
    # nodes a rounding below or above their edge (x = -1.6, 0.8, 2.8),
    # and every node on one of the 19 interior edges must still split
    nodes = np.linspace(-4.0, 4.0, 101)
    edges = np.linspace(-4.0, 4.0, 21)
    S = _cell_assignment(nodes, edges)
    np.testing.assert_allclose(S.sum(axis=1), 1.0)
    on_edge = np.arange(5, 100, 5)
    for i, c in zip(on_edge, range(1, 20)):
        assert S[i, c - 1] == S[i, c] == 0.5
    inner = np.setdiff1d(np.arange(101), on_edge)
    assert np.all(S[inner].max(axis=1) == 1.0)
    np.testing.assert_array_equal(S[inner].argmax(axis=1), np.minimum(inner // 5, 19))


def test_histogram_tv_against_own_density_within_budget(coarse_prob, coarse_rho0):
    ens = sample_initial(coarse_prob.initial, 20000, 17, L)
    tv, budget = histogram_tv_distance(ens, coarse_rho0, coarse_prob.w, 10, 10)
    assert 0.0 < budget < 0.1
    assert tv <= 3.0 * budget


def test_histogram_tv_detects_wrong_density(coarse_prob):
    ens = sample_initial(coarse_prob.initial, 20000, 17, L)
    tv, budget = histogram_tv_distance(ens, coarse_prob.rho_s, coarse_prob.w, 10, 10)
    assert tv > 10.0 * budget
