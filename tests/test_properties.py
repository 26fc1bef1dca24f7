"""Property-based checks of invariants that must hold for any input.

These complement the example-based tests: conservation and reflection
are structural guarantees of the discretization, not artifacts of the
reference parameters, so they are asserted over generated inputs.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpcirc.control import ControlTrajectory, total_variation
from fpcirc.fields import integrate, make_grid
from fpcirc.particles import ParticleEnsemble, draw_noise, em_step
from fpcirc.pde import ImplicitStepper

from conftest import (
    bilinear_interpolate,
    column_mass_residual,
    direct_step,
    implicit_step,
    relative_error,
)

finite_controls = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=25, deadline=None)
@given(u1=finite_controls, u2=finite_controls)
def test_any_control_pair_conserves_column_mass(coarse_op, u1, u2):
    # flux-form operators move mass between cells, never create it
    assert column_mass_residual(coarse_op, u1, u2) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(u1=finite_controls, u2=finite_controls)
def test_any_control_pair_conserves_total_mass_over_a_step(
    coarse_op, coarse_prob, coarse_rho0, u1, u2
):
    out = implicit_step(coarse_rho0, coarse_op, u1, u2, 5e-3)
    before = integrate(coarse_rho0, coarse_prob.w)
    after = integrate(out, coarse_prob.w)
    assert abs(after - before) <= 1e-11


# piecewise-constant controls: (u1, u2, steps) segments, with jumps of any
# size between them, up to the optimized u1(0) of about -58.7
control_segments = st.lists(
    st.tuples(
        st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=15, deadline=None)
@given(segments=control_segments)
def test_stepper_matches_direct_solves_over_control_sequences(
    coarse_op, coarse_prob, coarse_rho0, segments
):
    dt = 5e-3
    stepper = ImplicitStepper(coarse_op, dt)
    rho = coarse_rho0.flat.copy()
    mass0 = float(coarse_prob.w.flat @ rho)
    for u1, u2, n in segments:
        for _ in range(n):
            ref = direct_step(coarse_op, rho, u1, u2, dt)
            rho = stepper.step(rho, u1, u2)
            assert relative_error(rho, ref) <= 1e-10
            assert abs(float(coarse_prob.w.flat @ rho) - mass0) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    u1=finite_controls,
    u2=finite_controls,
    dt=st.floats(min_value=1e-5, max_value=5e-3),
)
def test_reflection_keeps_every_particle_in_the_box(
    coarse_prob, seed, u1, u2, dt
):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-4.0, 4.0, size=(256, 2))
    ens = ParticleEnsemble(pos, 4.0, seed)
    em_step(ens, u1, u2, dt, coarse_prob.shapes, draw_noise(ens))
    assert np.max(np.abs(ens.positions)) <= 4.0


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=40
    )
)
@example(data=[0.0, 0.05])
def test_control_vector_roundtrip_is_identity(data):
    n = len(data)
    traj = ControlTrajectory(0.0, float(n), 1.0, np.array(data), np.array(data[::-1]))
    back = traj.with_vector(traj.as_vector())
    assert np.array_equal(back.u1, traj.u1)
    assert np.array_equal(back.u2, traj.u2)
    # total variation is invariant under sign flip exactly: negation is
    # exact and round-to-nearest is symmetric, so fl(-a - (-b)) = -fl(a - b)
    assert total_variation(traj.u1) == total_variation(-traj.u1)
    # a constant shift is invariant only up to rounding.  Under the
    # model fl(x op y) = (x op y)(1 + d), |d| <= eps/2 (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., 2.2 and 4.2), the
    # rounded shifted samples each enter at most two differences
    # (eps S), and each difference's rounding plus the recursive sum of
    # n - 1 nonnegative terms add at most (n + 1) eps per unit of each
    # total variation.
    shifted = traj.u1 + 7.25
    tv, tv_shift = total_variation(traj.u1), total_variation(shifted)
    eps = np.finfo(float).eps
    bound = eps * np.sum(np.abs(shifted)) + (n + 1) * eps * (tv + tv_shift)
    assert abs(tv_shift - tv) <= bound


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    b=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bilinear_interpolation_reproduces_linear_fields(a, b, c, seed):
    grid = make_grid(4.0, 17, 13)
    from fpcirc.fields import ScalarField

    X, Y = grid.meshgrid()
    f = ScalarField(grid, a * X + b * Y + c)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4.0, 4.0, size=(64, 2))
    vals = bilinear_interpolate(f, pts[:, 0], pts[:, 1])
    expect = a * pts[:, 0] + b * pts[:, 1] + c
    np.testing.assert_allclose(vals, expect, rtol=1e-12, atol=1e-9)
