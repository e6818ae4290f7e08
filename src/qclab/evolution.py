"""Crank-Nicolson time evolution and expectation values.

One step advances the interior points by

    (I + i dt/(2 hbar) H) psi^{k+1} = (I - i dt/(2 hbar) H) psi^k

with hard-wall (Dirichlet) boundaries, H being the same tridiagonal
matrix the eigensolver uses.  The scheme is unconditionally stable and
exactly unitary in the discrete inner product, so the trapezoid norm of
a wall-vanishing state is conserved to solver roundoff.  The implicit
matrix is LU-factorized once per run; each step costs one tridiagonal
substitution.

dt guidance: stability is unconditional, but phase accuracy is second
order — keep dt at or below dx (natural units) and let the residual
checks flag anything coarser.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grids import PhysicalConstants
from .spectral import hamiltonian_from_values
from .states import WaveFunction
from .stencils import gradient

_IMAG_RESIDUE_TOL = 1e-10
_NORM_TOL = 1e-6


@dataclass(frozen=True)
class EvolutionResult:
    """Stored slices of one evolution (every `store_every`-th step).

    norm_history and energy_history are per stored slice; energy is the
    Rayleigh quotient <psi, H psi>/<psi, psi>, so it is meaningful for
    unnormalized inputs too.
    """

    slices: tuple[WaveFunction, ...]
    dt: float
    store_every: int
    norm_history: np.ndarray
    energy_history: np.ndarray


def evolve(
    psi0: WaveFunction,
    potential_values: np.ndarray,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants = PhysicalConstants(),
    store_every: int = 1,
) -> EvolutionResult:
    """Advance psi0 by n_steps of size dt; keep every store_every-th slice.

    The initial state is always stored (index 0); the final state is
    always stored; n_steps need not be a multiple of store_every.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    grid = psi0.grid
    if potential_values.shape != (grid.n_points,):
        raise ValueError("potential_values must live on the state's grid")

    hamiltonian = hamiltonian_from_values(potential_values, grid, constants)
    diag = hamiltonian.diagonal[1:-1]
    off = hamiltonian.off_diagonal
    n_int = grid.n_points - 2
    alpha = 1j * dt / (2.0 * constants.hbar)
    implicit = sp.diags_array(
        [alpha * off * np.ones(n_int - 1), 1.0 + alpha * diag,
         alpha * off * np.ones(n_int - 1)],
        offsets=[-1, 0, 1],
        format="csc",
    )
    lu = splu(implicit)

    def rayleigh(values: np.ndarray) -> float:
        num = np.trapezoid(
            np.real(np.conj(values) * hamiltonian.apply(values)), dx=grid.dx
        )
        den = np.trapezoid(np.abs(values) ** 2, dx=grid.dx)
        return float(num / den)

    slices = [psi0]
    norms = [psi0.norm]
    energies = [rayleigh(psi0.values)]

    v = psi0.values[1:-1].astype(complex)
    t = psi0.time
    for k in range(1, n_steps + 1):
        rhs = (1.0 - alpha * diag) * v
        rhs[1:] -= alpha * off * v[:-1]
        rhs[:-1] -= alpha * off * v[1:]
        v = lu.solve(rhs)
        if not np.all(np.isfinite(v)):
            raise RuntimeError(
                f"Crank-Nicolson solve produced non-finite values at step {k}"
            )
        t = psi0.time + k * dt
        if k % store_every == 0 or k == n_steps:
            full = np.zeros(grid.n_points, dtype=complex)
            full[1:-1] = v
            w = WaveFunction(full, grid, t)
            slices.append(w)
            norms.append(w.norm)
            energies.append(rayleigh(full))
    return EvolutionResult(
        tuple(slices), dt, store_every, np.asarray(norms), np.asarray(energies)
    )


class Observable(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"
    ENERGY = "energy"


def expectation(
    psi: WaveFunction,
    observable: Observable,
    constants: PhysicalConstants = PhysicalConstants(),
    potential_values: np.ndarray | None = None,
) -> float:
    """<psi| O |psi> by trapezoid quadrature; the O(1e-10) imaginary
    residue is asserted small and discarded.

    Momentum applies -i hbar d/dx with the central stencil; Energy needs
    potential_values and applies the assembled Hamiltonian.  Rejects
    unnormalized states (|norm - 1| > 1e-6).
    """
    norm = psi.norm
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(
            f"expectation needs a normalized state, got norm {norm!r}"
        )
    grid = psi.grid
    values = psi.values
    if observable is Observable.POSITION:
        integrand = np.conj(values) * grid.x * values
    elif observable is Observable.MOMENTUM:
        integrand = np.conj(values) * (
            -1j * constants.hbar * gradient(values, grid.dx)
        )
    elif observable is Observable.ENERGY:
        if potential_values is None:
            raise ValueError("Energy expectation needs potential_values")
        h = hamiltonian_from_values(potential_values, grid, constants)
        integrand = np.conj(values) * h.apply(values)
    else:  # pragma: no cover - enum is closed
        raise TypeError(f"unknown observable {observable!r}")
    raw = complex(np.trapezoid(integrand, dx=grid.dx))
    scale = max(1.0, abs(raw.real))
    if abs(raw.imag) > _IMAG_RESIDUE_TOL * scale:
        raise RuntimeError(
            f"expectation value has imaginary residue {raw.imag:.3e}"
        )
    return raw.real
