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
from qclab.ensemble import WeightingFunction, build_superposition, project
from qclab.evolution import Observable, evolve, expectation, split_operator_evolve
from qclab.madelung import decompose
from qclab.spectral import HamiltonianMatrix, assemble_hamiltonian
from qclab.potentials import HarmonicPotential
from qclab.states import EigenPair, WaveFunction


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


# --- real stationary states ---------------------------------------------------


def test_float64_values_stay_real_and_other_input_becomes_complex128():
    grid = build_grid(-1.0, 1.0, 5)
    real = np.linspace(0.0, 1.0, 5)
    psi = WaveFunction(real, grid)
    assert psi.values.dtype == np.float64 and psi.values is real
    assert psi.normalized().values.dtype == np.float64
    for values in (
        np.arange(5),
        [0, 1, 2, 3, 4],
        real.astype(np.float32),
        real.astype(np.complex64),
        real.astype(complex),
    ):
        assert WaveFunction(values, grid).values.dtype == np.complex128


def test_stationary_states_are_float64(harmonic_pairs, harmonic_grid, constants):
    assert [pair.state.values.dtype for pair in harmonic_pairs] == [np.float64] * 8
    for n in (0, 5):
        psi = harmonic_eigenfunction(n, harmonic_grid, 1.0, constants)
        assert psi.values.dtype == np.float64


def _same_bits(a, b) -> bool:
    """a and b are equal bit for bit once a real one is promoted the way
    numpy promotes it (x -> x + 0j), NaNs and signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    common = np.result_type(a, b)
    return a.shape == b.shape and a.astype(common).tobytes() == b.astype(common).tobytes()


def _evolution_bits(run):
    def outputs(basis, constants, v):
        result = run(basis[2].state, v, 1e-3, 20, constants, store_every=5)
        return [w.values for w in result.slices] + [
            result.norm_history,
            result.energy_history,
        ]

    return outputs


_WEIGHTS = np.array([0.6, 0.0, 0.8j, 0.0])


@pytest.mark.parametrize(
    "outputs",
    [
        _evolution_bits(evolve),
        _evolution_bits(split_operator_evolve),
        lambda basis, constants, v: [
            build_superposition(basis, WeightingFunction(_WEIGHTS)).values
        ],
        # the eigenstates are the basis; the projected state is complex
        lambda basis, constants, v: [
            project(gaussian_packet(basis[0].state.grid, 0.5, 1.0, 0.7, constants), basis)
            .coefficients
        ],
        lambda basis, constants, v: [
            getattr(decompose(pair.state, constants), field)
            for pair in basis
            for field in ("modulus", "phase", "node_mask")
        ],
        lambda basis, constants, v: [
            expectation(pair.state, observable, constants)
            for pair in basis
            for observable in Observable
        ],
    ],
    ids=["evolve", "split_operator_evolve", "build_superposition", "project",
         "decompose", "expectation"],
)
def test_a_real_eigenstate_gives_its_complex_copys_bits(
    harmonic_pairs, harmonic_grid, constants, outputs
):
    basis = harmonic_pairs[:4]
    copies = [
        EigenPair(p.energy, WaveFunction(p.state.values.astype(complex), harmonic_grid), p.index)
        for p in basis
    ]
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    real, complex_ = outputs(basis, constants, v), outputs(copies, constants, v)
    assert len(real) == len(complex_)
    assert all(_same_bits(a, b) for a, b in zip(real, complex_))
