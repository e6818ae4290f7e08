"""The quantum and classical layers at non-unit hbar and m.

With the oscillator length L = sqrt(hbar / (m omega)), the time 1/omega
and the energy hbar omega, a harmonic run at (hbar, m, omega) is the
run at hbar = m = omega = 1 in other units: on the grid scaled by L, with
dt scaled by 1/omega, each output divided by its unit agrees with the
natural-unit output to rounding.  A dropped or misplaced hbar or m
moves some output by O(1) instead.
"""
import math

import numpy as np
import pytest

from qclab import (
    HarmonicPotential,
    PhysicalConstants,
    build_grid,
    gaussian_packet,
    harmonic_eigenfunction,
)
from qclab.ensemble import EnsembleSpec, run_classical_ensemble
from qclab.evolution import evolve
from qclab.madelung import decompose, madelung_residuals, quantum_potential

NATURAL = (1.0, 1.0, 1.0)
SCALED = (0.37, 2.9, 1.7)  # (hbar, m, omega)


def _dimensionless_outputs(hbar: float, mass: float, omega: float) -> dict:
    """Each layer's outputs in units of L, 1/omega and hbar omega."""
    constants = PhysicalConstants(hbar=hbar, mass=mass)
    length = math.sqrt(hbar / (mass * omega))
    energy = hbar * omega
    grid = build_grid(-12.0 * length, 12.0 * length, 1201)
    potential = HarmonicPotential(omega)
    v = potential.on_grid(grid, constants)
    dt = 2e-3 / omega

    packet = gaussian_packet(grid, 1.0 * length, 0.8 * hbar / length, 0.7 * length, constants)
    run = evolve(packet, v, dt, 60, constants, store_every=20)
    r_phase, r_cont = madelung_residuals(run.slices, v, constants)
    phi = harmonic_eigenfunction(3, grid, omega, constants)
    levels = energy * (np.arange(4) + 0.5)
    spec = EnsembleSpec(levels, np.array([0.1, 0.2, 0.3, 0.4]), 1000, 5)
    ensemble = run_classical_ensemble(spec, potential, grid, dt, 700, constants, store_every=100)
    return {
        # psi scales as L^(-1/2)
        "evolve": [w.values * math.sqrt(length) for w in run.slices]
        + [run.energy_history / energy],
        # the continuity row is in units of hbar / L^2 = m omega
        "madelung_residuals": [r_phase / energy, r_cont / (mass * omega)],
        "quantum_potential": [quantum_potential(decompose(phi, constants), constants) / energy],
        "run_classical_ensemble": [ensemble.histograms, ensemble.energy_drift],
    }


@pytest.fixture(scope="module")
def outputs():
    return {units: _dimensionless_outputs(*units) for units in (NATURAL, SCALED)}


# Largest |natural - scaled| allowed, each ~100x above what it reads:
# - evolve: the slices (|psi| <= 0.75) agree to 1.2e-14 and the energy
#   history (E ~ 1.32) to 2.4e-14;
# - madelung_residuals: 7.4e-11 and 1.4e-10, rounding amplified in the
#   tails where lambda is small, against peaks of 3.7e-3 and 1.1e-2;
# - quantum_potential of the n = 3 state: 1.7e-11 beside its nodes, where
#   |V_q| peaks at 16;
# - run_classical_ensemble: the histograms are equal counts and the
#   drifts (~1e-6) agree to 6.6e-15.
@pytest.mark.parametrize(
    "layer, tolerance",
    [
        ("evolve", 1e-12),
        ("madelung_residuals", 1e-8),
        ("quantum_potential", 1e-9),
        ("run_classical_ensemble", 1e-12),
    ],
)
def test_a_layer_agrees_with_natural_units_at_non_unit_hbar_and_mass(
    outputs, layer, tolerance
):
    natural, scaled = outputs[NATURAL][layer], outputs[SCALED][layer]
    assert len(natural) == len(scaled)
    for a, b in zip(natural, scaled):
        # the node and boundary masks (NaN) must fall on the same points
        assert np.array_equal(np.isnan(a), np.isnan(b))
        if a.dtype == np.int64:
            assert np.array_equal(a, b)
        else:
            assert np.nanmax(np.abs(a - b)) <= tolerance
