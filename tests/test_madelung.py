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
    align_phase_series,
    madelung_residuals,
    stationary_continuity_residual,
    verify_1d_amplitude_relation,
    verify_modified_hj,
    verify_oscillator_identity,
)
from qclab.spectral import EigenPair
from qclab.states import WaveFunction


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


def test_align_phase_series_undoes_branch_jumps(harmonic_grid, constants):
    psi = gaussian_packet(harmonic_grid, 0.0, 2.0, 1.0, constants)
    a = decompose(psi, constants)
    two_pi_hbar = 2.0 * np.pi * constants.hbar
    shifted = WaveFunction(psi.values, harmonic_grid, time=0.1)
    b = decompose(shifted, constants)
    b = type(b)(
        modulus=b.modulus,
        phase=b.phase + 3.0 * two_pi_hbar,
        node_mask=b.node_mask,
        grid=b.grid,
        time=b.time,
    )
    stacked = align_phase_series([a, b], constants)
    assert np.nanmax(np.abs(stacked[1] - stacked[0])) < 1e-9


def test_amplitude_relation_is_vacuous_for_real_states(harmonic_grid, constants):
    psi = harmonic_eigenfunction(0, harmonic_grid, 1.0, constants)
    result = verify_1d_amplitude_relation(decompose(psi, constants), constants)
    assert result.vacuous


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
    assert verify_modified_hj(psi, v, constants, energy=0.5) < 1e-9


def test_oscillator_identity_analytic_states(harmonic_grid, constants):
    for n in range(5):
        psi = harmonic_eigenfunction(n, harmonic_grid, 1.0, constants)
        pair = EigenPair(energy=n + 0.5, state=psi, index=n)
        residual = verify_oscillator_identity(n, pair, 1.0, constants)
        assert residual < 1e-3


def test_oscillator_identity_rejects_mismatched_index(harmonic_pairs, constants):
    with pytest.raises(ValueError):
        verify_oscillator_identity(1, harmonic_pairs[0], 1.0, constants)


def test_stationary_continuity_residual_small_for_scattering(constants):
    from qclab import SmoothBarrierPotential, stationary_scattering_state

    grid = build_grid(-20.0, 20.0, 4001)
    psi = stationary_scattering_state(
        SmoothBarrierPotential(1.0, 1.0, 0.0), grid, 2.0, constants
    )
    polar = decompose(psi, constants)
    r = stationary_continuity_residual(polar, constants)
    # scale: lap Phi ~ p / length; residual should sit orders below p^2
    assert np.nanmax(np.abs(r[2:-2])) < 1e-2


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


def test_madelung_residuals_need_uniform_times(harmonic_grid, constants):
    phi0 = harmonic_eigenfunction(0, harmonic_grid, 1.0, constants).values
    slices = [
        WaveFunction(phi0, harmonic_grid, t) for t in (0.0, 1e-3, 3e-3)
    ]
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    with pytest.raises(ValueError, match="uniform"):
        madelung_residuals(slices, v, constants)
