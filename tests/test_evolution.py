"""Crank-Nicolson unitarity, exact eigenstate rotation, expectation values.

The Cayley transform (I + i dt H / 2hbar)^{-1} (I - i dt H / 2hbar)
shares eigenvectors with the discrete H, so a solver eigenstate must
rotate by exactly theta = -2 atan(E dt / 2hbar) per step.  That gives a
closed-form oracle for the evolved state with no discretization slack
beyond the linear solves.
"""
import math

import numpy as np
import pytest

from qclab import (
    HarmonicPotential,
    Observable,
    build_grid,
    evolve,
    expectation,
    gaussian_packet,
    hamiltonian_from_values,
    solve_lowest_eigenpairs,
)
from qclab.states import WaveFunction


@pytest.fixture(scope="module")
def harmonic_setup(harmonic_grid, constants):
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    h = hamiltonian_from_values(v, harmonic_grid, constants)
    return v, solve_lowest_eigenpairs(h, 2)


def test_eigenstate_rotates_at_the_cayley_angle(harmonic_setup, constants):
    v, pairs = harmonic_setup
    energy, psi0 = pairs[0].energy, pairs[0].state
    dt, n = 1e-3, 37
    result = evolve(psi0, v, dt, n, constants, store_every=n)
    theta = -2.0 * np.arctan(energy * dt / (2.0 * constants.hbar))
    predicted = psi0.values * np.exp(1j * n * theta)
    # slack covers the solver's eigenvector residual, nothing else
    assert np.max(np.abs(result.slices[-1].values - predicted)) < 1e-10


def test_energy_is_conserved_exactly_for_eigenstates(harmonic_setup, constants):
    v, pairs = harmonic_setup
    result = evolve(pairs[1].state, v, 1e-3, 200, constants, store_every=50)
    drift = np.abs(result.energy_history - pairs[1].energy)
    assert np.max(drift) < 1e-10


def test_norm_is_conserved_to_roundoff(harmonic_setup, constants):
    v, _ = harmonic_setup
    psi0 = gaussian_packet(
        build_grid(-12.0, 12.0, 2401), 1.0, 1.5, 0.8, constants
    )
    result = evolve(psi0, v, 1e-3, 500, constants, store_every=100)
    assert np.max(np.abs(result.norm_history - 1.0)) < 1e-12


def test_evolution_is_linear(harmonic_setup, constants):
    v, pairs = harmonic_setup
    a, b = pairs[0].state, pairs[1].state
    combo = WaveFunction(
        0.6 * a.values + 0.8j * b.values, a.grid
    )
    dt, n = 1e-3, 25
    ra = evolve(a, v, dt, n, constants, store_every=n)
    rb = evolve(b, v, dt, n, constants, store_every=n)
    rc = evolve(combo, v, dt, n, constants, store_every=n)
    synth = 0.6 * ra.slices[-1].values + 0.8j * rb.slices[-1].values
    assert np.max(np.abs(rc.slices[-1].values - synth)) < 1e-12


def test_store_every_keeps_first_and_last(harmonic_setup, constants):
    v, pairs = harmonic_setup
    result = evolve(pairs[0].state, v, 1e-3, 103, constants, store_every=25)
    times = [w.time for w in result.slices]
    # k = 0, 25, 50, 75, 100 and the final 103
    assert times == pytest.approx([0.0, 0.025, 0.05, 0.075, 0.1, 0.103])
    assert len(result.norm_history) == len(result.slices)
    assert len(result.energy_history) == len(result.slices)


def test_evolve_validates_arguments(harmonic_setup, constants):
    v, pairs = harmonic_setup
    psi = pairs[0].state
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            evolve(psi, v, dt, 5, constants)
    with pytest.raises(ValueError, match="n_steps"):
        evolve(psi, v, 1e-3, 0, constants)
    with pytest.raises(ValueError, match="store_every"):
        evolve(psi, v, 1e-3, 5, constants, store_every=0)
    with pytest.raises(ValueError, match="grid"):
        evolve(psi, v[:-1], 1e-3, 5, constants)


def test_non_finite_input_is_caught_at_a_stored_slice(harmonic_setup, constants):
    v, pairs = harmonic_setup
    values = pairs[0].state.values.copy()
    values[1200] = np.nan
    psi = WaveFunction(values, pairs[0].state.grid, 0.0)
    with pytest.raises(RuntimeError, match="non-finite values by step 3"):
        evolve(psi, v, 1e-3, 7, constants, store_every=3)


def test_position_and_momentum_of_a_packet(constants):
    grid = build_grid(-12.0, 12.0, 2401)
    psi = gaussian_packet(grid, 0.7, 1.9, 0.9, constants)
    assert expectation(psi, Observable.POSITION, constants) == pytest.approx(
        0.7, abs=1e-9
    )
    assert expectation(psi, Observable.MOMENTUM, constants) == pytest.approx(
        1.9, abs=5e-4  # central-stencil gradient is second order in dx
    )


def test_energy_expectation_matches_rayleigh_history(harmonic_setup, constants):
    v, pairs = harmonic_setup
    psi = pairs[0].state
    e = expectation(psi, Observable.ENERGY, constants, potential_values=v)
    assert e == pytest.approx(pairs[0].energy, rel=1e-12)
    with pytest.raises(ValueError, match="potential_values"):
        expectation(psi, Observable.ENERGY, constants)


def test_expectation_rejects_unnormalized_states(constants):
    grid = build_grid(-12.0, 12.0, 2401)
    psi = gaussian_packet(grid, 0.0, 0.0, 1.0, constants)
    doubled = WaveFunction(2.0 * psi.values, grid)
    with pytest.raises(ValueError, match="normalized"):
        expectation(doubled, Observable.POSITION, constants)


def test_coherent_packet_oscillates_classically(constants):
    # <x>(t) = x0 cos(t) for omega = 1 release from rest: Ehrenfest is
    # exact for quadratic potentials, so the discrepancy is pure stencil
    grid = build_grid(-12.0, 12.0, 2401)
    x0 = 2.0
    psi0 = gaussian_packet(grid, x0, 0.0, 2.0**-0.5, constants)
    v = HarmonicPotential(1.0).on_grid(grid, constants)
    result = evolve(psi0, v, 1e-3, 1571, constants, store_every=1571)
    # quarter period: the packet should sit near the origin
    x_final = expectation(result.slices[-1], Observable.POSITION, constants)
    assert abs(x_final - x0 * np.cos(1.571)) < 1e-3
