"""Classical side: Verlet orbits, actions, S-field reconstruction, caustics."""
import math
import tracemalloc

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
    PrincipalFunctionField,
    Trajectory,
    _verlet_with_action,
)
from qclab.stencils import gradient


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


def _field_from_stored_orbits(potential, s0, grid, dt, n_steps, constants):
    """The sweep done the long way: store every characteristic's whole
    orbit and action, then re-interpolate each slice."""
    orbits = list(_verlet_with_action(
        potential, grid.x.copy(), gradient(s0, grid.dx), dt, n_steps, constants
    ))
    s = np.full((n_steps + 1, grid.n_points), np.nan)
    mask = np.zeros(s.shape, dtype=bool)
    s[0], mask[0] = s0, True
    crossed = False
    for k, (pos, _, action) in enumerate(orbits[1:], start=1):
        crossed = crossed or bool(np.any(np.diff(pos) <= 0.0))
        if crossed:
            continue
        s[k] = np.interp(grid.x, pos, s0 + action, left=np.nan, right=np.nan)
        inside = (grid.x >= pos[0]) & (grid.x <= pos[-1])
        s[k, ~inside] = np.nan
        mask[k] = inside
    return s, mask, dt * np.arange(n_steps + 1)


@pytest.mark.parametrize(
    "potential, s0_kind, dt, n_steps",
    [
        (FreePotential(), "free", 1e-2, 100),
        (HarmonicPotential(1.0), "free", 1e-2, 120),
        # rest release: the caustic at t = pi/2 falls inside the run
        (HarmonicPotential(1.0), "zero", 1e-2, 250),
    ],
    ids=["free", "harmonic", "harmonic-past-caustic"],
)
def test_streamed_sweep_equals_the_stored_orbit_field(
    constants, potential, s0_kind, dt, n_steps
):
    grid = build_grid(-5.0, 5.0, 401)
    if s0_kind == "free":
        s0 = np.asarray(free_principal_function(0.5, constants)(grid.x, 0.0))
    else:
        s0 = np.zeros(grid.n_points)
    field = principal_function_from_characteristics(
        potential, s0, grid, dt, n_steps, constants
    )
    s, mask, times = _field_from_stored_orbits(potential, s0, grid, dt, n_steps, constants)
    if s0_kind == "zero":
        assert not mask[-1].any()  # the run does go past the caustic
    assert np.array_equal(field.s, s, equal_nan=True)
    assert np.array_equal(field.validity_mask, mask)
    assert np.array_equal(field.times, times)


def _first_masked(field):
    """The first fully masked slice of a store_every=1 field, or None."""
    valid = field.validity_mask.any(axis=1)
    return None if valid.all() else int(np.argmin(valid))


@pytest.mark.parametrize("store_every", [7, 50, 1000])
@pytest.mark.parametrize(
    "potential, s0_kind, dt, n_steps",
    [
        (FreePotential(), "free", 1e-2, 100),
        (HarmonicPotential(1.0), "free", 1e-2, 120),
        (HarmonicPotential(1.0), "zero", 1e-2, 250),
    ],
    ids=["free", "harmonic", "harmonic-past-caustic"],
)
def test_strided_sweep_keeps_every_sth_row_of_the_full_field(
    constants, potential, s0_kind, dt, n_steps, store_every
):
    grid = build_grid(-5.0, 5.0, 401)
    if s0_kind == "free":
        s0 = np.asarray(free_principal_function(0.5, constants)(grid.x, 0.0))
    else:
        s0 = np.zeros(grid.n_points)
    full = principal_function_from_characteristics(
        potential, s0, grid, dt, n_steps, constants
    )
    strided = principal_function_from_characteristics(
        potential, s0, grid, dt, n_steps, constants, store_every=store_every
    )
    rows = slice(None, None, store_every)
    assert np.array_equal(strided.s, full.s[rows], equal_nan=True)
    assert np.array_equal(strided.validity_mask, full.validity_mask[rows])
    assert np.array_equal(strided.times, full.times[rows])
    assert strided.first_masked_step == full.first_masked_step == _first_masked(full)
    if s0_kind == "zero":
        # the crossing at t = pi/2 falls between stored slices
        assert full.first_masked_step == 158


def test_an_empty_fan_before_the_crossing_is_the_first_masked_step(constants):
    # x(t) = x0 cos t: the fan [-cos t, cos t] passes the inner points
    # +-1/3 at t = acos(1/3) = 1.23, before the crossing at pi/2
    grid = build_grid(-1.0, 1.0, 4)
    dt, n_steps = 1e-2, 200
    args = (HarmonicPotential(1.0), np.zeros(4), grid, dt, n_steps, constants)
    full = principal_function_from_characteristics(*args)
    first = full.first_masked_step
    assert first == _first_masked(full)
    assert abs(first * dt - math.acos(1.0 / 3.0)) <= dt
    assert not full.validity_mask[first:].any()
    strided = principal_function_from_characteristics(*args, store_every=100)
    assert strided.first_masked_step == first
    assert np.array_equal(strided.validity_mask, full.validity_mask[::100])


def test_sweep_memory_is_its_output_not_the_orbits(constants):
    # 1601 slices x 1201 points: storing the position, momentum and action
    # of every characteristic would triple the output's footprint
    grid = build_grid(-12.0, 12.0, 1201)
    tracemalloc.start()
    try:
        field = principal_function_from_characteristics(
            HarmonicPotential(1.0), np.zeros(grid.n_points), grid, 1e-3, 1600, constants
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (field.s.nbytes + field.validity_mask.nbytes)


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
