"""Crank-Nicolson time evolution and expectation values.

With A = i dt/(2 hbar) H, H being the tridiagonal matrix the eigensolver
uses, one step is psi^{k+1} = (I + A)^{-1} (I - A) psi^k.  Hard walls
(Dirichlet) enter as identity rows at both grid ends, decoupled from the
interior, so the walls hold zero.  I + A is factorized once per run by
LAPACK zgttrf (from `qclab.lapack`), and each step is one zgttrs solve
and one vector update in Cayley form, psi <- 2 (I + A)^{-1} psi - psi,
which equals the step above in exact arithmetic since I - A = 2I - (I + A).

I + A is normal with eigenvalues 1 + i dt lambda/(2 hbar), all of modulus
at least 1, so it is never singular and the step is exactly unitary in
the discrete inner product: the trapezoid norm of a wall-vanishing state
is conserved to roundoff.  Wherever V >= 0 no pivoting question arises
either: with a = dt/(2 hbar), |1 + i a (hbar^2/(m dx^2) + V)| exceeds
a hbar^2/(m dx^2), the off-diagonal row sum, so the matrix is strictly
diagonally dominant and zgttrf's partial pivoting never swaps a row.

dt guidance: stability is unconditional, but phase accuracy is second
order — keep dt at or below dx (natural units) and let the residual
checks flag anything coarser.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grids import PhysicalConstants, check_run_arguments
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
    check_run_arguments(dt, n_steps, store_every)
    grid = psi0.grid
    if potential_values.shape != (grid.n_points,):
        raise ValueError("potential_values must live on the state's grid")
    # loaded on the first solve, so runs that never solve load no scipy
    from .lapack import zgttrf, zgttrs

    hamiltonian = hamiltonian_from_values(potential_values, grid, constants)
    alpha = 1j * dt / (2.0 * constants.hbar)
    diag = 1.0 + alpha * hamiltonian.diagonal
    diag[[0, -1]] = 1.0
    off = np.full(grid.n_points - 1, alpha * hamiltonian.off_diagonal)
    off[[0, -1]] = 0.0
    *factors, info = zgttrf(off, diag, off)
    if info != 0:
        raise RuntimeError(f"Crank-Nicolson factorization failed (zgttrf info {info})")

    def rayleigh(values: np.ndarray) -> float:
        num = np.trapezoid(
            np.real(np.conj(values) * hamiltonian.apply(values)), dx=grid.dx
        )
        den = np.trapezoid(np.abs(values) ** 2, dx=grid.dx)
        return float(num / den)

    slices = [psi0]
    norms = [psi0.norm]
    energies = [rayleigh(psi0.values)]

    v = psi0.values.astype(complex)
    v[[0, -1]] = 0.0
    for k in range(1, n_steps + 1):
        v_next, _ = zgttrs(*factors, v)
        v_next *= 2.0
        v_next -= v
        v = v_next
        if k % store_every == 0 or k == n_steps:
            # the step is unitary, so a non-finite value can only come
            # in with the input; checking stored slices is enough
            if not np.all(np.isfinite(v)):
                raise RuntimeError(
                    f"Crank-Nicolson solve produced non-finite values by step {k}"
                )
            # v is never written in place, so the slice can share it
            w = WaveFunction(v, grid, psi0.time + k * dt)
            slices.append(w)
            norms.append(w.norm)
            energies.append(rayleigh(v))
    return EvolutionResult(
        tuple(slices), dt, store_every, np.asarray(norms), np.asarray(energies)
    )


class Observable(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


def expectation(
    psi: WaveFunction,
    observable: Observable,
    constants: PhysicalConstants = PhysicalConstants(),
) -> float:
    """<psi| O |psi> by trapezoid quadrature; the O(1e-10) imaginary
    residue is asserted small and discarded.

    Momentum applies -i hbar d/dx with the central stencil.  Rejects
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
    else:  # Observable.MOMENTUM
        integrand = np.conj(values) * (
            -1j * constants.hbar * gradient(values, grid.dx)
        )
    raw = complex(np.trapezoid(integrand, dx=grid.dx))
    scale = max(1.0, abs(raw.real))
    if abs(raw.imag) > _IMAG_RESIDUE_TOL * scale:
        raise RuntimeError(
            f"expectation value has imaginary residue {raw.imag:.3e}"
        )
    return raw.real
