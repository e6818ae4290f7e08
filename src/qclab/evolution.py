"""Crank-Nicolson time evolution and expectation values.

With A = i dt/(2 hbar) H, H being the tridiagonal matrix the eigensolver
uses, one step is psi^{k+1} = (I + A)^{-1} (I - A) psi^k.  Hard walls
(Dirichlet) enter as identity rows at both grid ends, decoupled from the
interior, so the walls hold zero.  (I + A)/2 is factorized once per run
by LAPACK zgttrf (`qclab.lapack.tridiagonal_solver`), and each step is
one zgttrs solve and one subtraction in Cayley form,
psi <- ((I + A)/2)^{-1} psi - psi, which equals the step above in exact
arithmetic since I - A = 2I - (I + A).  Halving the matrix is exact, so
the solve returns 2 (I + A)^{-1} psi bit for bit, with no doubling pass.
The solves run without the GIL, so evolutions on different threads
overlap.

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
from typing import Callable

import numpy as np

from .grids import PhysicalConstants, check_run_arguments
from .lapack import tridiagonal_solver
from .spectral import hamiltonian_from_values
from .states import WaveFunction
from .stencils import gradient

_IMAG_RESIDUE_TOL = 1e-10
NORM_TOLERANCE = 1e-6  # |norm - 1| expectation accepts


@dataclass(frozen=True)
class EvolutionResult:
    """Stored slices of one evolution (every `store_every`-th step).

    norm_history and energy_history are per stored slice, retained or
    not (see evolve's `keep`); energy is the Rayleigh quotient
    <psi, H psi>/<psi, psi>, so it is meaningful for unnormalized inputs
    too.
    """

    slices: tuple[WaveFunction, ...]
    norm_history: np.ndarray
    energy_history: np.ndarray


def evolve(
    psi0: WaveFunction,
    potential_values: np.ndarray,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants,
    store_every: int = 1,
    keep: Callable[[int, WaveFunction], bool] | None = None,
) -> EvolutionResult:
    """Advance psi0 by n_steps of size dt; store every store_every-th slice.

    The initial state is always stored (index 0); the final state is
    always stored; n_steps need not be a multiple of store_every.

    keep(index, slice) is called on each stored slice as it is produced,
    in order; a slice it returns False for is left out of `slices`, so a
    caller can drop slices it will not read, or reduce each one to what
    it reads before the next is produced.  Each stored slice is a copy of
    its own, so keep may hold it.  Every stored slice still enters
    norm_history and energy_history.  By default all are kept.
    """
    check_run_arguments(dt, n_steps, store_every)
    grid = psi0.grid
    if potential_values.shape != (grid.n_points,):
        raise ValueError("potential_values must live on the state's grid")
    hamiltonian = hamiltonian_from_values(potential_values, grid, constants)
    alpha = 1j * dt / (2.0 * constants.hbar)
    diag = 1.0 + alpha * hamiltonian.diagonal
    diag[[0, -1]] = 1.0
    off = np.full(grid.n_points - 1, alpha * hamiltonian.off_diagonal)
    off[[0, -1]] = 0.0
    diag *= 0.5
    off *= 0.5
    solve = tridiagonal_solver(off, diag, off)

    def rayleigh(values: np.ndarray) -> float:
        num = np.trapezoid(
            np.real(np.conj(values) * hamiltonian.apply(values)), dx=grid.dx
        )
        den = np.trapezoid(np.abs(values) ** 2, dx=grid.dx)
        return float(num / den)

    slices = [psi0] if keep is None or keep(0, psi0) else []
    norms = [psi0.norm]
    energies = [rayleigh(psi0.values)]

    # two buffers take turns: each step solves into the one that does
    # not hold the current state
    v = psi0.values.astype(complex)
    v[[0, -1]] = 0.0
    v_next = np.empty_like(v)
    for k in range(1, n_steps + 1):
        np.copyto(v_next, v)
        solve(v_next)
        v_next -= v
        v, v_next = v_next, v
        if k % store_every == 0 or k == n_steps:
            # the step is unitary, so a non-finite value can only come
            # in with the input; checking stored slices is enough
            if not np.all(np.isfinite(v)):
                raise RuntimeError(
                    f"Crank-Nicolson solve produced non-finite values by step {k}"
                )
            # the buffers are overwritten by the next steps, so a stored
            # slice is a copy
            w = WaveFunction(v.copy(), grid, psi0.time + k * dt)
            if keep is None or keep(len(norms), w):
                slices.append(w)
            norms.append(w.norm)
            energies.append(rayleigh(v))
    return EvolutionResult(tuple(slices), np.asarray(norms), np.asarray(energies))


class Observable(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


def expectation(
    psi: WaveFunction,
    observable: Observable,
    constants: PhysicalConstants,
) -> float:
    """<psi| O |psi> by trapezoid quadrature; the O(1e-10) imaginary
    residue is asserted small and discarded.

    Momentum applies -i hbar d/dx with the central stencil.  Rejects
    unnormalized states (|norm - 1| > 1e-6).
    """
    norm = psi.norm
    if abs(norm - 1.0) > NORM_TOLERANCE:
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
