"""Polar decomposition, quantum potential, and the pointwise identities.

The analytic oscillator states double as oracles here: the eigenvalue
relation fixes V_q = E_n - V wherever the state is appreciable, with no
reference to the eigensolver.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import (
    HarmonicPotential,
    build_grid,
    decompose,
    gaussian_packet,
    harmonic_eigenfunction,
    plane_wave,
    quantum_potential,
    recompose,
    total_potential,
)
from qclab.madelung import (
    MadelungRows,
    madelung_residuals,
    phase_action_gap,
    phase_jump_guard,
    verify_1d_amplitude_relation,
    verify_modified_hj,
    verify_oscillator_identity,
)
from qclab.spectral import EigenPair
from qclab.states import WaveFunction
from qclab.stencils import gradient, second_derivative


@settings(deadline=None, max_examples=30)
@given(
    center=st.floats(-2.0, 2.0),
    momentum=st.floats(-3.0, 3.0),
    width=st.floats(0.4, 2.0),
)
def test_decompose_recompose_roundtrip(center, momentum, width):
    from qclab.grids import PhysicalConstants

    constants = PhysicalConstants()
    grid = build_grid(-10.0, 10.0, 801)
    psi = gaussian_packet(grid, center, momentum, width, constants)
    polar = decompose(psi, constants)
    back = recompose(polar, constants)
    live = ~polar.node_mask
    assert np.max(np.abs(back.values[live] - psi.values[live])) < 1e-12


def test_global_phase_leaves_modulus_and_vq_alone(harmonic_grid, constants):
    psi = gaussian_packet(harmonic_grid, 0.5, 1.0, 0.9, constants)
    rotated = WaveFunction(np.exp(0.73j) * psi.values, harmonic_grid)
    a = decompose(psi, constants)
    b = decompose(rotated, constants)
    assert np.array_equal(a.node_mask, b.node_mask)
    assert np.allclose(a.modulus, b.modulus)
    va = quantum_potential(a, constants)
    vb = quantum_potential(b, constants)
    live = np.isfinite(va)
    assert np.array_equal(live, np.isfinite(vb))
    assert np.allclose(va[live], vb[live], atol=1e-12)


def test_vq_is_invariant_under_rescaling(harmonic_grid, constants):
    # V_q depends on lambda only through lambda''/lambda
    psi = gaussian_packet(harmonic_grid, 0.0, 0.0, 1.2, constants)
    scaled = WaveFunction(17.0 * psi.values, harmonic_grid)
    va = quantum_potential(decompose(psi, constants), constants)
    vb = quantum_potential(decompose(scaled, constants), constants)
    live = np.isfinite(va) & np.isfinite(vb)
    assert np.allclose(va[live], vb[live], atol=1e-10)


def test_plane_wave_has_flat_phaseless_vq(constants):
    grid = build_grid(-20.0, 20.0, 4001)
    polar = decompose(plane_wave(grid, 0.5, constants), constants)
    assert not polar.node_mask.any()
    v_q = quantum_potential(polar, constants)
    assert np.nanmax(np.abs(v_q)) < 1e-10


def test_vq_of_oscillator_states_is_energy_minus_potential(
    harmonic_grid, constants
):
    # continuum identity: V + V_q = E_n pointwise; the discrete stencil
    # error grows like dx^2 * x^4 toward the mask edge
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    for n in (0, 3):
        psi = harmonic_eigenfunction(n, harmonic_grid, 1.0, constants)
        polar = decompose(psi, constants)
        v_t = total_potential(quantum_potential(polar, constants), v)
        assert np.nanmax(np.abs(v_t - (n + 0.5))) < 2e-2
        # away from tails and nodes the identity is tight; surviving
        # points next to a masked node still amplify the stencil error
        core = np.abs(harmonic_grid.x) < 3.0
        tight = 2e-4 if n == 0 else 2e-3
        assert np.nanmax(np.abs(v_t[core] - (n + 0.5))) < tight


def test_interior_node_is_masked_and_dilated(harmonic_grid, constants):
    psi = harmonic_eigenfunction(1, harmonic_grid, 1.0, constants)
    polar = decompose(psi, constants)
    center = harmonic_grid.n_points // 2
    assert polar.node_mask[center]  # odd state vanishes at x = 0
    v_q = quantum_potential(polar, constants)
    assert np.all(np.isnan(v_q[center - 1 : center + 2]))
    live = np.isfinite(v_q)
    assert live.sum() > 0.8 * harmonic_grid.n_points * 0.4  # plenty survives


def test_decompose_rejects_the_zero_state(constants):
    grid = build_grid(-1.0, 1.0, 21)
    with pytest.raises(ValueError):
        decompose(WaveFunction(np.zeros(21, dtype=complex), grid), constants)


def test_amplitude_relation_is_vacuous_for_real_states(harmonic_grid, constants):
    psi = harmonic_eigenfunction(0, harmonic_grid, 1.0, constants)
    result = verify_1d_amplitude_relation(decompose(psi, constants), constants)
    assert result.vacuous


@pytest.mark.parametrize("n", [1, 3, 5])
def test_amplitude_relation_is_vacuous_for_odd_states(harmonic_grid, constants, n):
    # the node at x = 0 is a grid point: its own central stencil reads
    # the pi*hbar phase step across it, which is no momentum
    polar = decompose(harmonic_eigenfunction(n, harmonic_grid, 1.0, constants), constants)
    assert polar.node_mask[harmonic_grid.n_points // 2]
    assert verify_1d_amplitude_relation(polar, constants).vacuous


def test_node_free_states_keep_every_amplitude_relation_point(constants):
    # the states verify-all and plane-wave-madelung check have no masked
    # point, so excluding nodes leaves their deviation as it was
    from qclab import SmoothBarrierPotential, stationary_scattering_state

    grid = build_grid(-20.0, 20.0, 4001)
    scattering = stationary_scattering_state(
        SmoothBarrierPotential(1.0, 1.0, 0.0), grid, 2.0, constants
    )
    for psi in (scattering, plane_wave(grid, 0.5, constants)):
        polar = decompose(psi, constants)
        assert not polar.node_mask.any()
        assert not verify_1d_amplitude_relation(polar, constants).vacuous


def test_amplitude_relation_holds_for_plane_wave(constants):
    grid = build_grid(-20.0, 20.0, 4001)
    polar = decompose(plane_wave(grid, 2.0, constants), constants)
    result = verify_1d_amplitude_relation(polar, constants)
    assert not result.vacuous
    assert result.deviation < 1e-9


def test_modified_hj_closes_for_free_motion(constants):
    grid = build_grid(-20.0, 20.0, 4001)
    psi = plane_wave(grid, 0.5, constants)
    v = np.zeros(grid.n_points)
    assert verify_modified_hj(psi, v, 0.5, constants) < 1e-9


def test_oscillator_identity_analytic_states(harmonic_grid, constants):
    for n in range(5):
        psi = harmonic_eigenfunction(n, harmonic_grid, 1.0, constants)
        pair = EigenPair(energy=n + 0.5, state=psi, index=n)
        residual = verify_oscillator_identity(n, pair, 1.0, constants)
        assert residual < 1e-3


def test_oscillator_identity_rejects_mismatched_index(harmonic_pairs, constants):
    with pytest.raises(ValueError):
        verify_oscillator_identity(1, harmonic_pairs[0], 1.0, constants)


def test_madelung_residuals_on_analytic_stationary_series(
    harmonic_grid, constants
):
    # exact slices of the ground state: residuals are pure stencil error
    phi0 = harmonic_eigenfunction(0, harmonic_grid, 1.0, constants).values
    dt = 1e-3
    slices = [
        WaveFunction(phi0 * np.exp(-0.5j * (k * dt)), harmonic_grid, k * dt)
        for k in range(3)
    ]
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    r_phase, r_cont = madelung_residuals(slices, v, constants)
    assert r_phase.shape == (1, harmonic_grid.n_points)
    assert np.nanmax(np.abs(r_phase)) < 2e-2   # tail-edge stencil error
    assert np.nanmax(np.abs(r_cont)) < 1e-8    # static modulus: exact
    core = np.abs(harmonic_grid.x) < 3.0
    assert np.nanmax(np.abs(r_phase[0, core])) < 2e-4


def _residuals_from_lists(series, v, constants):
    """madelung_residuals with every slice's polar form held in lists."""
    dx, dt = series[0].grid.dx, series[1].time - series[0].time
    m, hbar = constants.mass, constants.hbar
    polars = [decompose(w, constants) for w in series]
    guarded = [phase_jump_guard(p, constants) for p in polars]
    log_lam = [
        np.where(p.node_mask, np.nan, np.log(np.where(p.node_mask, 1.0, p.modulus)))
        for p in polars
    ]
    v_qs = [quantum_potential(p, constants) for p in polars]
    r_phase, r_cont = [], []
    for k in range(1, len(series) - 1):
        grad_phi = gradient(guarded[k], dx)
        lap_phi = second_derivative(guarded[k], dx)
        grad_log = gradient(log_lam[k], dx)
        dphi_dt = (
            hbar
            * np.angle(series[k + 1].values * np.conj(series[k - 1].values))
            / (2.0 * dt)
        )
        dphi_dt[polars[k - 1].node_mask | polars[k + 1].node_mask] = np.nan
        dlog_dt = (log_lam[k + 1] - log_lam[k - 1]) / (2.0 * dt)
        r_phase.append(grad_phi**2 / (2.0 * m) + v + v_qs[k] + dphi_dt)
        r_cont.append(lap_phi + 2.0 * grad_phi * grad_log + 2.0 * m * dlog_dt)
    return np.array(r_phase), np.array(r_cont)


@pytest.mark.parametrize("levels", [(0, 1, 3), (3,)], ids=["superposition", "odd"])
def test_sliding_window_residuals_equal_the_list_reference(
    harmonic_grid, constants, levels
):
    # the odd eigenstate has a node on the grid and a pi*hbar step beside
    # each one between grid points: masks, dilations and guards all enter
    phis = [
        harmonic_eigenfunction(n, harmonic_grid, 1.0, constants).values for n in levels
    ]
    dt = 0.05
    slices = [
        WaveFunction(
            sum(phi * np.exp(-1j * (n + 0.5) * k * dt) for n, phi in zip(levels, phis)),
            harmonic_grid,
            k * dt,
        )
        for k in range(9)
    ]
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    r_phase, r_cont = madelung_residuals(slices, v, constants)
    ref_phase, ref_cont = _residuals_from_lists(slices, v, constants)
    assert r_phase.shape == (7, harmonic_grid.n_points)
    assert np.isnan(r_phase).any()
    assert np.array_equal(r_phase, ref_phase, equal_nan=True)
    assert np.array_equal(r_cont, ref_cont, equal_nan=True)


def test_madelung_residuals_need_uniform_times(harmonic_grid, constants):
    phi0 = harmonic_eigenfunction(0, harmonic_grid, 1.0, constants).values
    slices = [
        WaveFunction(phi0, harmonic_grid, t) for t in (0.0, 1e-3, 3e-3)
    ]
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    with pytest.raises(ValueError, match="uniform"):
        madelung_residuals(slices, v, constants)


@pytest.mark.parametrize(
    "times, potential_points, message",
    [
        ((0.0, 1e-3, 3e-3), 2401, "uniformly spaced and increasing"),
        ((0.0, -1e-3, -2e-3), 2401, "uniformly spaced and increasing"),
        ((0.0, 0.0, 0.0), 2401, "uniformly spaced and increasing"),
        ((0.0, 1e-3, 2e-3), 2400, "potential_values must live on the series grid"),
    ],
    ids=["uneven", "backwards", "still", "other-grid"],
)
def test_streamed_rows_refuse_what_the_batch_refuses(
    harmonic_grid, constants, times, potential_points, message
):
    phi0 = harmonic_eigenfunction(0, harmonic_grid, 1.0, constants).values
    slices = [WaveFunction(phi0, harmonic_grid, t) for t in times]
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)[:potential_points]
    with pytest.raises(ValueError, match=message):
        madelung_residuals(slices, v, constants)
    rows = MadelungRows(v, constants)
    with pytest.raises(ValueError, match=message):
        for w in slices:
            rows.push(w)


def test_streamed_rows_take_dt_from_the_first_interval(harmonic_grid, constants):
    # evolve's slice times k * dt are uniform only to roundoff, so a dt
    # taken from each window would move the rows in their last bits
    phi0 = harmonic_eigenfunction(0, harmonic_grid, 1.0, constants).values
    dt = 0.1
    slices = [
        WaveFunction(phi0 * np.exp(-0.5j * (k * dt)), harmonic_grid, k * dt)
        for k in range(6)
    ]
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    rows = MadelungRows(v, constants)
    streamed = [row for row in map(rows.push, slices) if row is not None]
    ref_phase, ref_cont = _residuals_from_lists(slices, v, constants)
    assert np.array_equal([r for r, _ in streamed], ref_phase, equal_nan=True)
    assert np.array_equal([r for _, r in streamed], ref_cont, equal_nan=True)


@pytest.mark.filterwarnings("error")
def test_a_phase_row_with_no_finite_point_is_refused(constants):
    # with zero walls on four points every point is on or beside a node
    grid = build_grid(-1.0, 1.0, 4)
    values = np.array([0.0, 1.0, 1.0, 0.0])
    slices = [WaveFunction(values * np.exp(-0.5j * t), grid, t) for t in (0.0, 0.1, 0.2)]
    v = HarmonicPotential(1.0).on_grid(grid, constants)
    with pytest.raises(ValueError, match="^phase residual has no finite point"):
        phase_action_gap(slices, v, constants)
