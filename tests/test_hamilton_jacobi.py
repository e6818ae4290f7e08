"""Classical side: Verlet orbits, actions, S-field reconstruction, caustics."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclab.hamilton_jacobi
from qclab import (
    FreePotential,
    HarmonicPotential,
    build_grid,
    free_principal_function,
    integrate_hamilton,
)
from qclab.grids import PhysicalConstants
from qclab.hamilton_jacobi import (
    Trajectory,
    _verlet_with_action,
    caustic_step,
    principal_function_slices,
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


def _field(potential, s0, grid, dt, n_steps, constants):
    """Every slice of the sweep stacked: (steps, S, valid)."""
    slices = principal_function_slices(potential, s0, grid, dt, n_steps, constants)
    steps, s, valid = zip(*slices)
    return np.array(steps), np.array(s), np.array(valid)


def test_free_characteristics_rebuild_the_closed_form(constants):
    grid = build_grid(-20.0, 20.0, 2001)
    energy = 0.5
    s_fn = free_principal_function(energy, constants)
    s0 = np.asarray(s_fn(grid.x, 0.0))
    dt = 1e-2
    worst = 0.0
    for k, s, live in principal_function_slices(FreePotential(), s0, grid, dt, 30, constants):
        assert live.sum() > grid.n_points // 2
        exact = s_fn(grid.x[live], k * dt)
        worst = max(worst, float(np.max(np.abs(s[live] - exact))))
    assert k == 30
    assert worst < 1e-9


def test_free_characteristics_mask_drifts_with_the_fan(constants):
    # positive-momentum fan translates right; the left edge loses coverage
    grid = build_grid(-10.0, 10.0, 501)
    s0 = np.asarray(free_principal_function(2.0, constants)(grid.x, 0.0))
    _, s, valid = _field(FreePotential(), s0, grid, 0.05, 20, constants)
    assert not valid[-1, 0]      # left edge exposed
    assert valid[-1, -1]         # right edge still covered
    assert np.isnan(s[-1, 0])


def test_rest_release_caustic_is_detected_on_time(constants):
    # s0 = 0 launches every point at rest; x(t) = x0 cos t, so all
    # characteristics cross at the focus t = pi/2
    grid = build_grid(-5.0, 5.0, 401)
    dt, n = 1e-2, 200
    s0 = np.zeros(grid.n_points)
    steps, _, valid = _field(HarmonicPotential(1.0), s0, grid, dt, n, constants)
    assert np.array_equal(steps, np.arange(n + 1))
    dead = np.nonzero(~valid.any(axis=1))[0]
    assert dead.size > 0
    first = int(dead[0])
    assert first == 158
    assert abs(first * dt - math.pi / 2.0) <= 2.0 * dt
    # nothing recovers after the crossing
    assert not valid[first:].any()


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
    return s, mask


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
    slices = list(principal_function_slices(potential, s0, grid, dt, n_steps, constants))
    arrays = [a for _, s, valid in slices for a in (s, valid)]
    assert len({id(a) for a in arrays}) == len(arrays)  # fresh arrays
    steps, s, valid = (np.array(column) for column in zip(*slices))
    s_ref, mask_ref = _field_from_stored_orbits(potential, s0, grid, dt, n_steps, constants)
    if s0_kind == "zero":
        assert not mask_ref[-1].any()  # the run does go past the caustic
    assert np.array_equal(steps, np.arange(n_steps + 1))
    assert np.array_equal(s, s_ref, equal_nan=True)
    assert np.array_equal(valid, mask_ref)


@pytest.mark.parametrize("store_every", [1, 7, 250])
def test_a_strided_sweep_interpolates_only_the_slices_it_yields(
    monkeypatch, constants, store_every
):
    # rest release crosses at step 158, not a multiple of 7: the stride
    # runs on through the masked tail
    case = _rest_release(5.0, 401, 1e-2, 250)
    full = [(k, s, valid) for k, s, valid in principal_function_slices(*case, constants)]
    interpolated = []
    real_interp = np.interp

    def counted_interp(*args, **kwargs):
        interpolated.append(1)
        return real_interp(*args, **kwargs)

    monkeypatch.setattr(qclab.hamilton_jacobi.np, "interp", counted_interp)
    strided = list(principal_function_slices(*case, constants, store_every=store_every))
    expected = [row for row in full if row[0] % store_every == 0]
    assert [k for k, _, _ in strided] == [k for k, _, _ in expected]
    for (_, s, valid), (_, s_ref, valid_ref) in zip(strided, expected):
        assert np.array_equal(s, s_ref, equal_nan=True) and np.array_equal(valid, valid_ref)
    assert len(interpolated) == sum(1 for k, _, _ in expected if 0 < k < 158)


def test_an_empty_fan_before_the_crossing_is_the_first_masked_step(constants):
    # x(t) = x0 cos t: the fan [-cos t, cos t] passes the inner points
    # +-1/3 at t = acos(1/3) = 1.23, before the crossing at pi/2
    grid = build_grid(-1.0, 1.0, 4)
    dt, n_steps = 1e-2, 200
    steps, s, valid = _field(HarmonicPotential(1.0), np.zeros(4), grid, dt, n_steps, constants)
    first = int(np.argmin(valid.any(axis=1)))
    assert abs(first * dt - math.acos(1.0 / 3.0)) <= dt
    assert first * dt < math.pi / 2.0 - dt
    assert not valid[first:].any()
    assert np.isnan(s[first:]).all()
    assert np.array_equal(steps, np.arange(n_steps + 1))


def _rest_release(half_width, n_points, dt, n_steps):
    grid = build_grid(-half_width, half_width, n_points)
    return HarmonicPotential(1.0), np.zeros(n_points), grid, dt, n_steps


def _free_launch(energy, half_width, n_points, dt, n_steps):
    grid = build_grid(-half_width, half_width, n_points)
    s0 = np.asarray(free_principal_function(energy, PhysicalConstants())(grid.x, 0.0))
    return FreePotential(), s0, grid, dt, n_steps


@pytest.mark.parametrize(
    "case, expected",
    [
        (_rest_release(5.0, 401, 1e-2, 200), 158),
        (_rest_release(12.0, 2401, 1e-3, 1600), 1571),
        # p = 1 on [-20, 20]: the fan slides 0.3 in 30 steps and never crosses
        (_free_launch(0.5, 20.0, 2001, 1e-2, 30), None),
        # p = 10 on [-1, 1]: the fan's left edge reaches x = 1 at step 4
        # (t = 0.2) and has left the grid at step 5; a free fan never crosses
        (_free_launch(50.0, 1.0, 21, 0.05, 20), 5),
    ],
    ids=["rest-release-401", "rest-release-2401", "free-never-crosses", "free-slides-off"],
)
def test_caustic_step_is_the_sweeps_first_fully_masked_slice(constants, case, expected):
    slices = principal_function_slices(*case, constants)
    first = next((k for k, _, valid in slices if not valid.any()), None)
    assert first == expected
    assert caustic_step(*case, constants) == expected


def test_sweep_memory_is_its_output_not_the_orbits(constants):
    # 1601 slices x 1201 points: iterating the rest-release sweep holds a
    # few slice-sized arrays at a time (the orbits' positions, momenta,
    # forces and actions, S0, one S and its mask, their temporaries),
    # never the (steps x points) field of 15.4 MB
    grid = build_grid(-12.0, 12.0, 1201)
    one_slice = grid.n_points * 8
    n_slices = 0
    tracemalloc.start()
    try:
        for _ in principal_function_slices(
            HarmonicPotential(1.0), np.zeros(grid.n_points), grid, 1e-3, 1600, constants
        ):
            n_slices += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_slices == 1601
    assert peak < 20 * one_slice


def _sweep_in_oscillator_units(constants, omega, s0_energy):
    """The rest-release (s0_energy None) or free-s0 sweep in the well
    omega, on [-5L, 5L] with L = sqrt(hbar / m omega), 200 steps of
    dt = 0.01 / omega, S0 launched at energy s0_energy hbar omega; S is
    yielded in units of m omega L^2 (= hbar)."""
    length = math.sqrt(constants.hbar / (constants.mass * omega))
    grid = build_grid(-5.0 * length, 5.0 * length, 401)
    if s0_energy is None:
        s0 = np.zeros(grid.n_points)
    else:
        s_fn = free_principal_function(s0_energy * constants.hbar * omega, constants)
        s0 = np.asarray(s_fn(grid.x, 0.0))
    action = constants.mass * omega * length**2
    slices = principal_function_slices(
        HarmonicPotential(omega), s0, grid, 1e-2 / omega, 200, constants
    )
    for k, s, valid in slices:
        yield k, s / action, valid


def _scaling_gap(s0_energy):
    """(largest |S| difference over valid points, masks identical, caustic
    steps) between the sweep at (hbar, m, omega) = (0.37, 2.9, 1.7) and at
    unit constants, both in oscillator units."""
    scaled = _sweep_in_oscillator_units(PhysicalConstants(0.37, 2.9), 1.7, s0_energy)
    unit = _sweep_in_oscillator_units(PhysicalConstants(), 1.0, s0_energy)
    worst, same_masks, caustics = 0.0, True, [None, None]
    for (k, s, valid), (_, s_unit, valid_unit) in zip(scaled, unit):
        same_masks = same_masks and np.array_equal(valid, valid_unit)
        both = valid & valid_unit
        if both.any():
            worst = max(worst, float(np.max(np.abs(s[both] - s_unit[both]))))
        for i, v in enumerate((valid, valid_unit)):
            if caustics[i] is None and not v.any():
                caustics[i] = k
    return worst, same_masks, caustics


# the two sweeps differ only by the rounding of L, dt / omega and the
# unit of action: measured 1.5e-14, with |S| up to ~10
_SCALING_TOLERANCE = 1e-12


@pytest.mark.parametrize("s0_energy", [None, 0.5], ids=["rest-release", "free-s0"])
def test_the_sweep_scales_with_hbar_m_omega(s0_energy):
    worst, same_masks, caustics = _scaling_gap(s0_energy)
    assert worst <= _SCALING_TOLERANCE
    assert same_masks
    # x(t) = x0 cos t + (p0 / m omega) sin t: every fan focuses at t = pi/2
    assert caustics == [158, 158]


@pytest.mark.parametrize("s0_energy", [None, 0.5], ids=["rest-release", "free-s0"])
def test_sweep_scaling_catches_a_dropped_mass(monkeypatch, s0_energy):
    # planted defect: the position update moves by p dt, not p dt / m
    def mass_dropped(potential, x, p, force, dt, constants):
        p_half = p + 0.5 * dt * force
        x = x + dt * p_half
        force = potential.force(x, constants)
        return x, p_half + 0.5 * dt * force, force

    monkeypatch.setattr(qclab.hamilton_jacobi, "verlet_step", mass_dropped)
    worst, same_masks, _ = _scaling_gap(s0_energy)
    assert worst > _SCALING_TOLERANCE or not same_masks


def test_characteristics_validate_s0_shape(constants):
    # on the call, before any slice is asked for; run arguments are
    # checked alike in test_grids.py
    grid = build_grid(-1.0, 1.0, 11)
    for sweep in (principal_function_slices, caustic_step):
        with pytest.raises(ValueError, match="grid"):
            sweep(FreePotential(), np.zeros(7), grid, 0.1, 3, constants)


def test_trajectory_field_consistency():
    with pytest.raises(ValueError, match="sample counts"):
        Trajectory(
            times=np.zeros(3),
            positions=np.zeros(3),
            momenta=np.zeros(3),
            actions=np.zeros(2),
        )
