"""Classical side: Verlet orbits, actions, S-field reconstruction, caustics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import (
    FreePotential,
    HarmonicPotential,
    build_grid,
    free_principal_function,
    hj_residual,
    integrate_hamilton,
    principal_function_from_characteristics,
)
from qclab.grids import PhysicalConstants
from qclab.hamilton_jacobi import (
    ClassicalState,
    PrincipalFunctionField,
    Trajectory,
)


def test_harmonic_orbit_matches_closed_form(constants):
    # m = omega = 1: x(t) = x0 cos t + p0 sin t
    x0, p0, dt, n = 1.3, -0.4, 1e-3, 6283
    traj = integrate_hamilton(HarmonicPotential(1.0), x0, p0, dt, n, constants)
    exact_x = x0 * np.cos(traj.times) + p0 * np.sin(traj.times)
    exact_p = -x0 * np.sin(traj.times) + p0 * np.cos(traj.times)
    assert np.max(np.abs(traj.positions - exact_x)) < 1e-5
    assert np.max(np.abs(traj.momenta - exact_p)) < 1e-5


def test_harmonic_orbit_energy_drift_is_bounded(constants):
    traj = integrate_hamilton(HarmonicPotential(1.0), 2.0, 0.0, 1e-3, 20000, constants)
    e = traj.momenta**2 / 2.0 + traj.positions**2 / 2.0
    # symplectic: the energy error oscillates at O(dt^2) without secular growth
    assert np.max(np.abs(e - e[0])) < 1e-5


@settings(deadline=None, max_examples=25)
@given(
    x0=st.floats(-2.0, 2.0),
    p0=st.floats(-2.0, 2.0),
    n=st.integers(5, 60),
)
def test_verlet_is_time_reversible(x0, p0, n):
    constants = PhysicalConstants()
    pot = HarmonicPotential(1.0)
    fwd = integrate_hamilton(pot, x0, p0, 0.05, n, constants)
    back = integrate_hamilton(
        pot, float(fwd.positions[-1]), -float(fwd.momenta[-1]), 0.05, n, constants
    )
    assert abs(float(back.positions[-1]) - x0) < 1e-10
    assert abs(float(back.momenta[-1]) + p0) < 1e-10


def test_free_action_matches_closed_form(constants):
    # L = p^2/2m is constant on inertial motion, so the action is exact
    p0, dt, n = 1.7, 1e-2, 500
    traj = integrate_hamilton(FreePotential(), 0.0, p0, dt, n, constants)
    expected = (p0**2 / 2.0) * traj.times
    assert np.max(np.abs(traj.actions - expected)) < 1e-10


def test_batch_matches_scalar_orbits_exactly(constants):
    pot = HarmonicPotential(1.0)
    x0 = np.array([-1.0, 0.3, 2.0])
    p0 = np.array([0.5, -0.2, 0.0])
    batch = integrate_hamilton(pot, x0, p0, 1e-2, 40, constants)
    for j in range(3):
        single = integrate_hamilton(
            pot, float(x0[j]), float(p0[j]), 1e-2, 40, constants
        )
        assert np.array_equal(batch.positions[:, j], single.positions)
        assert np.array_equal(batch.momenta[:, j], single.momenta)
        assert np.array_equal(batch.actions[:, j], single.actions)


def test_trajectory_state_accessor(constants):
    traj = integrate_hamilton(FreePotential(), 0.0, 1.0, 0.1, 5, constants)
    s = traj.state(3)
    assert isinstance(s, ClassicalState)
    assert s.x == pytest.approx(0.3)
    assert s.p == 1.0
    batch = integrate_hamilton(
        FreePotential(), np.zeros(2), np.ones(2), 0.1, 5, constants
    )
    with pytest.raises(ValueError, match="scalar"):
        batch.state(0)


def test_integrate_hamilton_validates_arguments(constants):
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            integrate_hamilton(FreePotential(), 0.0, 1.0, dt, 5, constants)
    with pytest.raises(ValueError, match="n_steps"):
        integrate_hamilton(FreePotential(), 0.0, 1.0, 0.1, 0, constants)
    with pytest.raises(ValueError, match="finite"):
        ClassicalState(math.nan, 0.0, 0.0)


def test_free_principal_function_closed_form(constants):
    s = free_principal_function(0.5, constants)
    assert s.momentum == pytest.approx(1.0)
    assert s(2.0, 3.0) == pytest.approx(-0.5 * 3.0 + 2.0)
    with pytest.raises(ValueError, match="energy"):
        free_principal_function(0.0, constants)


def test_free_characteristics_rebuild_the_closed_form(constants):
    grid = build_grid(-20.0, 20.0, 2001)
    energy = 0.5
    s_fn = free_principal_function(energy, constants)
    s0 = np.asarray(s_fn(grid.x, 0.0))
    field = principal_function_from_characteristics(
        FreePotential(), s0, grid, 1e-2, 30, constants
    )
    worst = 0.0
    for k, t in enumerate(field.times):
        live = field.validity_mask[k]
        assert live.sum() > grid.n_points // 2
        exact = s_fn(grid.x[live], t)
        worst = max(worst, float(np.max(np.abs(field.s[k][live] - exact))))
    assert worst < 1e-9


def test_free_characteristics_mask_drifts_with_the_fan(constants):
    # positive-momentum fan translates right; the left edge loses coverage
    grid = build_grid(-10.0, 10.0, 501)
    s0 = np.asarray(free_principal_function(2.0, constants)(grid.x, 0.0))
    field = principal_function_from_characteristics(
        FreePotential(), s0, grid, 0.05, 20, constants
    )
    assert not field.validity_mask[-1, 0]      # left edge exposed
    assert field.validity_mask[-1, -1]         # right edge still covered
    assert np.isnan(field.s[-1, 0])


def test_rest_release_caustic_is_detected_on_time(constants):
    # s0 = 0 launches every point at rest; x(t) = x0 cos t, so all
    # characteristics cross at the focus t = pi/2
    grid = build_grid(-5.0, 5.0, 401)
    dt, n = 1e-2, 200
    field = principal_function_from_characteristics(
        HarmonicPotential(1.0), np.zeros(grid.n_points), grid, dt, n, constants
    )
    dead = np.nonzero(~field.validity_mask.any(axis=1))[0]
    assert dead.size > 0
    first = int(dead[0])
    assert abs(field.times[first] - math.pi / 2.0) <= 2.0 * dt
    # nothing recovers after the crossing
    assert not field.validity_mask[first:].any()


def test_hj_residual_vanishes_on_the_exact_free_field(constants):
    grid = build_grid(-10.0, 10.0, 801)
    times = 0.01 * np.arange(5)
    s_fn = free_principal_function(2.0, constants)
    s = np.stack([np.asarray(s_fn(grid.x, t)) for t in times])
    field = PrincipalFunctionField(
        s, np.ones_like(s, dtype=bool), times, grid
    )
    r = hj_residual(field, np.zeros(grid.n_points), constants)
    # S is linear in x and t, so central differences are exact
    assert np.max(np.abs(r[:, 1:-1])) < 1e-12


def test_hj_residual_flags_the_quantum_gap(constants):
    # feed the *quantum* phase of a gaussian packet: the defect is -v_q
    grid = build_grid(-10.0, 10.0, 801)
    times = 0.01 * np.arange(3)
    # stationary gaussian modulus with zero phase: Phi = 0 identically,
    # so the residual reduces to V alone
    s = np.zeros((3, grid.n_points))
    field = PrincipalFunctionField(s, np.ones_like(s, dtype=bool), times, grid)
    v = HarmonicPotential(1.0).on_grid(grid, constants)
    r = hj_residual(field, v, constants)
    assert np.allclose(r[0], v)


def test_hj_residual_validates_slice_geometry(constants):
    grid = build_grid(-1.0, 1.0, 11)
    s = np.zeros((2, 11))
    field = PrincipalFunctionField(
        s, np.ones_like(s, dtype=bool), np.array([0.0, 0.1]), grid
    )
    with pytest.raises(ValueError, match="3 time slices"):
        hj_residual(field, np.zeros(11), constants)
    s3 = np.zeros((3, 11))
    bad_times = np.array([0.0, 0.1, 0.3])
    field3 = PrincipalFunctionField(
        s3, np.ones_like(s3, dtype=bool), bad_times, grid
    )
    with pytest.raises(ValueError, match="uniform"):
        hj_residual(field3, np.zeros(11), constants)


def test_characteristics_validate_s0_shape(constants):
    grid = build_grid(-1.0, 1.0, 11)
    with pytest.raises(ValueError, match="grid"):
        principal_function_from_characteristics(
            FreePotential(), np.zeros(7), grid, 0.1, 3, constants
        )


def test_trajectory_field_consistency():
    with pytest.raises(ValueError, match="sample counts"):
        Trajectory(
            times=np.zeros(3),
            positions=np.zeros(3),
            momenta=np.zeros(3),
            actions=np.zeros(2),
        )
