"""Crank-Nicolson and split-operator time evolution, and expectation values.

With A = i dt/(2 hbar) H, H being the tridiagonal matrix the eigensolver
uses, one step is psi^{k+1} = (I + A)^{-1} (I - A) psi^k.  Hard walls
(Dirichlet) enter as identity rows at both grid ends, decoupled from the
interior, so the walls hold zero.  (I + A)/2 is factorized once per run
by LAPACK zgttrf (`qclab.lapack.tridiagonal_solver`), and each step is
one zgttrs solve, bound to its buffer before the first step, and one
subtraction in Cayley form,
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

split_operator_evolve is the Strang split-operator propagator on the same
grid, with the kinetic term exact on the grid's Fourier modes and the box
periodic; see its docstring.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .grids import PhysicalConstants, check_run_arguments
from .lapack import tridiagonal_solver
from .spectral import hamiltonian_from_values
from .states import WaveFunction
from .stencils import gradient

_IMAG_RESIDUE_TOL = 1e-10
NORM_TOLERANCE = 1e-6  # |norm - 1| expectation accepts
EDGE_TOLERANCE = 1e-8  # |psi| at either end over max |psi| split_operator_evolve accepts


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


def _record(
    psi0: WaveFunction,
    dt: float,
    stored: Iterator[tuple[int, np.ndarray]],
    rayleigh: Callable[[np.ndarray], float],
    keep: Callable[[int, WaveFunction], bool] | None,
    method: str,
) -> EvolutionResult:
    """The result of a run from psi0 whose stored steps after step 0
    `stored` yields as (step, values), each values an array of its own;
    keep and the histories are as evolve says."""
    slices = [psi0] if keep is None or keep(0, psi0) else []
    norms = [psi0.norm]
    energies = [rayleigh(psi0.values)]
    for k, values in stored:
        # the steps are unitary, so a non-finite value can only come in
        # with the input; checking stored slices is enough
        if not np.all(np.isfinite(values)):
            raise RuntimeError(f"{method} produced non-finite values by step {k}")
        w = WaveFunction(values, psi0.grid, psi0.time + k * dt)
        if keep is None or keep(len(norms), w):
            slices.append(w)
        norms.append(w.norm)
        energies.append(rayleigh(values))
    return EvolutionResult(tuple(slices), np.asarray(norms), np.asarray(energies))


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
    solver = tridiagonal_solver(off, diag, off)

    def rayleigh(values: np.ndarray) -> float:
        num = np.trapezoid(
            np.real(np.conj(values) * hamiltonian.apply(values)), dx=grid.dx
        )
        den = np.trapezoid(np.abs(values) ** 2, dx=grid.dx)
        return float(num / den)

    def stored() -> Iterator[tuple[int, np.ndarray]]:
        # two buffers take turns: each step solves into the one that does
        # not hold the current state, each by a solve bound to it once
        v = psi0.values.astype(complex)
        v[[0, -1]] = 0.0
        v_next = np.empty_like(v)
        solve_v, solve_next = solver(v), solver(v_next)
        for k in range(1, n_steps + 1):
            np.copyto(v_next, v)
            solve_next()
            v_next -= v
            v, v_next = v_next, v
            solve_v, solve_next = solve_next, solve_v
            if k % store_every == 0 or k == n_steps:
                # the next steps overwrite the buffers
                yield k, v.copy()

    return _record(psi0, dt, stored(), rayleigh, keep, "Crank-Nicolson solve")


def split_operator_evolve(
    psi0: WaveFunction,
    potential_values: np.ndarray,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants,
    store_every: int = 1,
    keep: Callable[[int, WaveFunction], bool] | None = None,
) -> EvolutionResult:
    """evolve's run, by the Strang split-operator propagator
    e^{-iV dt/2hbar} FFT^-1 e^{-i hbar k^2 dt/2m} FFT e^{-iV dt/2hbar}
    (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)).

    Arguments, stored slices, keep and the histories are evolve's; the
    energy is the Rayleigh quotient of the spectral Hamiltonian.  The
    half-kicks that end one step and begin the next are one kick, split
    only where a slice is stored.  The drift is exact on the grid's
    Fourier modes, so in a quadratic well the half-kick shifts <p> by
    -(dt/2) V'(<x>) and the drift moves <x> by dt <p>/m: <x> and <p>
    follow velocity Verlet to rounding, a discrete Ehrenfest theorem.

    The FFT makes the box periodic, its n_points repeating with period
    n_points dx, so what reaches one end comes back at the other: a state
    whose modulus at either end exceeds EDGE_TOLERANCE (1e-8) times its
    largest modulus is refused with ValueError, and keeping it off the
    ends for the whole run is the caller's part.
    """
    check_run_arguments(dt, n_steps, store_every)
    grid = psi0.grid
    if potential_values.shape != (grid.n_points,):
        raise ValueError("potential_values must live on the state's grid")
    modulus = np.abs(psi0.values)
    edge = max(modulus[0], modulus[-1])
    # fmax skips NaN: a non-finite value inside is caught at a stored slice
    if not edge <= EDGE_TOLERANCE * np.fmax.reduce(modulus):
        raise ValueError(
            f"the split-operator box is periodic: |psi| at an end is {edge:.3e}, "
            f"more than {EDGE_TOLERANCE:g} of its largest modulus"
        )
    wavenumbers = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, grid.dx)
    kinetic = (constants.hbar * wavenumbers) ** 2 / (2.0 * constants.mass)
    drift = np.exp(-1j * dt / constants.hbar * kinetic)
    half_kick = np.exp(-0.5j * dt / constants.hbar * potential_values)
    kick = half_kick * half_kick

    def rayleigh(values: np.ndarray) -> float:
        # Parseval: sum |fft(psi)|^2 is n_points times sum |psi|^2
        density = np.abs(values) ** 2
        spectrum = np.abs(np.fft.fft(values)) ** 2
        num = kinetic @ spectrum / grid.n_points + potential_values @ density
        return float(num / density.sum())

    def stored() -> Iterator[tuple[int, np.ndarray]]:
        v = psi0.values * half_kick
        for k in range(1, n_steps + 1):
            np.fft.fft(v, out=v)
            v *= drift
            np.fft.ifft(v, out=v)
            if k % store_every == 0 or k == n_steps:
                yield k, v * half_kick
            v *= kick

    return _record(psi0, dt, stored(), rayleigh, keep, "split-operator step")


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
