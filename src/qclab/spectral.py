"""Discrete 1D Hamiltonian, bound-state eigenpairs, stationary scattering.

The kinetic term is the standard three-point Laplacian, so H is symmetric
tridiagonal with constant off-diagonal:

    H[i, i]   = hbar^2 / (m dx^2) + V(x_i)
    H[i, i+1] = -hbar^2 / (2 m dx^2)

Bound states are solved on the interior points only (hard walls at the
grid ends), and the eigenvectors are zero-padded back onto the full grid.
With that convention the trapezoid inner product of two padded vectors is
exactly dx times their Euclidean product, so eigenstates normalized here
are orthonormal to machine precision under the same quadrature the rest
of the package uses.

Above-barrier scattering states come from a Numerov sweep at fixed
energy, launched as a right-moving plane wave on the left edge.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, PhysicalConstants
from .potentials import Potential
from .states import EigenPair, WaveFunction
from .tridiagonal import lowest_eigenpairs

_EDGE_DECAY_TOL = 1e-10


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Symmetric tridiagonal Hamiltonian on the full grid."""

    diagonal: np.ndarray
    off_diagonal: float
    grid: Grid1D
    constants: PhysicalConstants

    def apply(self, values: np.ndarray) -> np.ndarray:
        """H @ values for a real or complex vector on the full grid."""
        out = self.diagonal * values
        out = out.astype(np.result_type(values, self.off_diagonal), copy=False)
        out[1:] += self.off_diagonal * values[:-1]
        out[:-1] += self.off_diagonal * values[1:]
        return out

    @property
    def potential_values(self) -> np.ndarray:
        kinetic = self.constants.hbar**2 / (self.constants.mass * self.grid.dx**2)
        return self.diagonal - kinetic


def hamiltonian_from_values(
    potential_values: np.ndarray, grid: Grid1D, constants: PhysicalConstants
) -> HamiltonianMatrix:
    if potential_values.shape != (grid.n_points,):
        raise ValueError("potential_values must be sampled on the grid")
    dx2 = grid.dx**2
    kinetic = constants.hbar**2 / (constants.mass * dx2)
    off = -(constants.hbar**2) / (2.0 * constants.mass * dx2)
    return HamiltonianMatrix(potential_values + kinetic, off, grid, constants)


def assemble_hamiltonian(
    potential: Potential, grid: Grid1D, constants: PhysicalConstants
) -> HamiltonianMatrix:
    v = potential.on_grid(grid, constants)
    return hamiltonian_from_values(v, grid, constants)


def solve_lowest_eigenpairs(
    hamiltonian: HamiltonianMatrix, k: int
) -> list[EigenPair]:
    """The k lowest bound eigenpairs, trapezoid-normalized on the grid.

    Hard-wall boundary: the eigenproblem lives on the interior points and
    the returned states vanish at both grid ends.  Each vector's sign is
    fixed so its first appreciable component is positive.  A warning is
    issued when an eigenstate has not decayed at the walls even though
    the potential there lies above its energy, i.e. when the box is
    visibly truncating a state it should have contained.
    """
    grid = hamiltonian.grid
    n_interior = grid.n_points - 2
    if not (1 <= k <= n_interior):
        raise ValueError(
            f"k must be in [1, {n_interior}] for this grid, got {k}"
        )
    interior = hamiltonian.diagonal[1:-1]
    result = lowest_eigenpairs(interior, hamiltonian.off_diagonal, k)

    pairs: list[EigenPair] = []
    v_edges = hamiltonian.potential_values[[0, -1]]
    for j in range(k):
        energy = float(result.eigenvalues[j])
        padded = np.zeros(grid.n_points)
        padded[1:-1] = result.eigenvectors[:, j]
        # trapezoid normalization; with zero ends this is dx * (l2 norm)^2
        padded /= np.sqrt(np.trapezoid(padded**2, dx=grid.dx))
        peak = np.max(np.abs(padded))
        appreciable = np.nonzero(np.abs(padded) > 1e-3 * peak)[0]
        if padded[appreciable[0]] < 0.0:
            padded = -padded
        residual = np.max(
            np.abs(hamiltonian.apply(padded) - energy * padded)[1:-1]
        )
        # Budget: 1e-8 * peak wherever floating point can express it.  On
        # fine grids the roundoff floor eps * |H|_scale * ||u||_2 takes
        # over (trapezoid normalization puts ||u||_2 at 1/sqrt(dx)), so
        # the gate never asks for digits that do not exist.  LAPACK's
        # inverse iteration lands 100-10000x below this on harmonic
        # wells of 2401-40001 points.
        h_scale = np.max(np.abs(hamiltonian.diagonal)) + 2.0 * abs(
            hamiltonian.off_diagonal
        )
        roundoff_floor = (
            500.0 * np.finfo(float).eps * h_scale / np.sqrt(grid.dx)
        )
        residual_gate = max(1e-8 * peak, roundoff_floor)
        if residual > residual_gate:
            raise RuntimeError(
                f"eigenpair {j}: interior residual {residual:.3e} exceeds "
                f"{residual_gate:.3e} = max(1e-8 peak, "
                f"500 eps |H| / sqrt(dx))"
            )
        if energy < min(v_edges) and (
            abs(padded[1]) > _EDGE_DECAY_TOL * peak
            or abs(padded[-2]) > _EDGE_DECAY_TOL * peak
        ):
            warnings.warn(
                f"eigenstate {j} (E={energy:.6g}) has not decayed at the "
                "grid edges; enlarge the domain for wall-independent "
                "results",
                stacklevel=2,
            )
        state = WaveFunction(padded.astype(complex), grid)
        pairs.append(EigenPair(energy, state, j))
    return pairs


def stationary_scattering_state(
    potential: Potential,
    grid: Grid1D,
    energy: float,
    constants: PhysicalConstants,
) -> WaveFunction:
    """Above-barrier stationary state psi_E by a Numerov sweep.

    Integrates psi'' = f psi, f = 2m(V - E)/hbar^2, from the left edge,
    seeded with the incoming plane wave exp(i k x), k = sqrt(2mE)/hbar.
    The fourth-order Numerov recurrence

        w_i = 1 - dx^2 f_i / 12
        w_{i+1} psi_{i+1} = 2 (1 + 5 dx^2 f_i / 12) psi_i - w_{i-1} psi_{i-1}

    keeps the local truncation error at O(dx^6).  Requires E above the
    potential everywhere so the solution stays oscillatory.
    """
    v = potential.on_grid(grid, constants)
    if energy <= float(np.max(v)):
        raise ValueError(
            "stationary_scattering_state requires the energy to exceed the "
            f"potential everywhere (E={energy}, max V={float(np.max(v))})"
        )
    m, hbar = constants.mass, constants.hbar
    dx = grid.dx
    f = 2.0 * m * (v - energy) / hbar**2
    w = 1.0 - dx**2 * f / 12.0
    c = 2.0 * (1.0 + 5.0 * dx**2 * f / 12.0)
    k = np.sqrt(2.0 * m * energy) / hbar
    psi = np.empty(grid.n_points, dtype=complex)
    psi[0] = np.exp(1j * k * grid.x[0])
    psi[1] = np.exp(1j * k * grid.x[1])
    for i in range(1, grid.n_points - 1):
        psi[i + 1] = (c[i] * psi[i] - w[i - 1] * psi[i - 1]) / w[i + 1]
    return WaveFunction(psi, grid)
