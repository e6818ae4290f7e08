import math

import numpy as np
import pytest

from qclab import (
    build_grid,
    gaussian_packet,
    harmonic_eigenfunction,
    plane_wave,
    probability_current,
)
from qclab.spectral import HamiltonianMatrix, assemble_hamiltonian
from qclab.potentials import HarmonicPotential
from qclab.states import WaveFunction


def test_plane_wave_has_unit_modulus_and_right_wavelength(constants):
    grid = build_grid(-10.0, 10.0, 2001)
    psi = plane_wave(grid, 2.0, constants)
    assert np.allclose(np.abs(psi.values), 1.0)
    k = np.sqrt(2.0 * 2.0)  # sqrt(2mE)/hbar
    phase = np.unwrap(np.angle(psi.values))
    assert np.allclose(np.diff(phase) / grid.dx, k, atol=1e-9)


def test_plane_wave_requires_positive_energy(constants):
    grid = build_grid(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        plane_wave(grid, 0.0, constants)


def test_gaussian_packet_moments(constants):
    grid = build_grid(-14.0, 14.0, 2801)
    center, momentum, width = 1.5, -0.7, 0.8
    psi = gaussian_packet(grid, center, momentum, width, constants)
    rho = np.abs(psi.values) ** 2
    assert psi.norm == pytest.approx(1.0, abs=1e-12)
    mean = np.trapezoid(grid.x * rho, dx=grid.dx)
    var = np.trapezoid((grid.x - mean) ** 2 * rho, dx=grid.dx)
    assert mean == pytest.approx(center, abs=1e-10)
    assert np.sqrt(var) == pytest.approx(width, abs=1e-10)


def test_normalized_is_idempotent(constants):
    grid = build_grid(-5.0, 5.0, 501)
    psi = WaveFunction(3.7j * np.exp(-grid.x**2), grid)
    once = psi.normalized()
    twice = once.normalized()
    assert once.norm == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(once.values, twice.values)


def test_inner_product_is_conjugate_linear_in_first_slot(constants):
    grid = build_grid(-6.0, 6.0, 601)
    a = gaussian_packet(grid, 0.0, 1.0, 1.0, constants)
    b = gaussian_packet(grid, 0.5, -0.5, 0.7, constants)
    assert a.inner(b) == pytest.approx(np.conj(b.inner(a)))
    scaled = WaveFunction(2.0j * a.values, grid)
    assert scaled.inner(b) == pytest.approx(-2.0j * a.inner(b))


def test_analytic_oscillator_states_are_orthonormal(harmonic_grid, constants):
    states = [
        harmonic_eigenfunction(n, harmonic_grid, 1.0, constants) for n in range(6)
    ]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert abs(a.inner(b) - expected) < 1e-10


def test_analytic_oscillator_states_satisfy_the_eigen_equation(
    harmonic_grid, constants
):
    # H phi_n = (n+1/2) phi_n up to the O(dx^2) stencil error
    h = assemble_hamiltonian(HarmonicPotential(1.0), harmonic_grid, constants)
    for n in (0, 3):
        phi = harmonic_eigenfunction(n, harmonic_grid, 1.0, constants)
        residual = h.apply(phi.values.real) - (n + 0.5) * phi.values.real
        assert np.max(np.abs(residual[1:-1])) < 5e-4


def test_oscillator_state_against_explicit_hermite_forms(harmonic_grid, constants):
    x = harmonic_grid.x
    phi0 = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    phi2 = np.pi**-0.25 / np.sqrt(8.0) * (4.0 * x**2 - 2.0) * np.exp(-(x**2) / 2.0)
    assert np.allclose(
        harmonic_eigenfunction(0, harmonic_grid, 1.0, constants).values.real,
        phi0,
        atol=1e-13,
    )
    assert np.allclose(
        harmonic_eigenfunction(2, harmonic_grid, 1.0, constants).values.real,
        phi2,
        atol=1e-12,
    )


def test_oscillator_state_scales_with_omega_and_mass(constants):
    from qclab.grids import PhysicalConstants

    grid = build_grid(-9.0, 9.0, 1801)
    heavy = PhysicalConstants(hbar=1.0, mass=4.0)
    psi = harmonic_eigenfunction(0, grid, 3.0, heavy)
    rho = np.abs(psi.values) ** 2
    var = np.trapezoid(grid.x**2 * rho, dx=grid.dx)
    # <x^2> = hbar/(2 m omega) in the ground state
    assert var == pytest.approx(1.0 / 24.0, rel=1e-10)


def test_probability_current_of_plane_wave(constants):
    grid = build_grid(-10.0, 10.0, 2001)
    energy = 0.5
    psi = plane_wave(grid, energy, constants)
    j = probability_current(psi, constants)
    p = np.sqrt(2.0 * constants.mass * energy)
    # j = |psi|^2 p / m, with O(dx^2) from the gradient stencil
    assert np.allclose(j[1:-1], p / constants.mass, rtol=2e-5)


def test_probability_current_vanishes_for_real_states(harmonic_grid, constants):
    psi = harmonic_eigenfunction(1, harmonic_grid, 1.0, constants)
    j = probability_current(psi, constants)
    assert np.max(np.abs(j)) < 1e-14


def test_wavefunction_rejects_shape_mismatch():
    grid = build_grid(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        WaveFunction(np.zeros(10), grid)


@pytest.mark.parametrize("n", [0, 1, 7, 100, 150])
def test_oscillator_state_values_below_the_overflow(constants, n):
    # 2^n n! is finite up to n = 150: the closed form written out
    # directly, bit for bit (n = 151..170 is rejected, see test_config_cli)
    grid = build_grid(-12.0, 12.0, 601)
    xi = grid.x
    h_prev, h = np.zeros_like(xi), np.ones_like(xi)
    for k in range(1, n + 1):
        h, h_prev = 2.0 * xi * h - 2.0 * (k - 1) * h_prev, h
    norm = (1.0 / np.pi) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    expected = (norm * h * np.exp(-0.5 * xi**2)).astype(complex)
    psi = harmonic_eigenfunction(n, grid, 1.0, constants)
    assert np.array_equal(psi.values, expected)
    assert np.any(psi.values != 0.0)
