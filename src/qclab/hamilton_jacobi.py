"""Classical mechanics side: Hamilton equations, the principal function S.

The classical counterpart of the phase equation drops the quantum
potential:

    (grad S)^2 / 2m + V = -dS/dt.

Trajectories come from velocity Verlet (symplectic, time-reversible,
second order); S is built either from the free-motion closed form

    S(x, t) = -E t + x sqrt(2 m E)

or, for general potentials, by the method of characteristics: one
trajectory per grid point launched with p0 = dS0/dx, each carrying
S0(x0) plus its accumulated action, re-interpolated onto the grid at
every time slice.  The reconstruction is single-valued only until
characteristics cross (a caustic); slices from the first detected
crossing onward are masked.  caustic_step finds the first fully masked
slice from the orbits' positions alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .grids import Grid1D, PhysicalConstants, check_run_arguments
from .potentials import Potential
from .stencils import gradient

Scalar = Union[float, np.ndarray]


@dataclass(frozen=True)
class Trajectory:
    """Uniform-dt samples of one orbit.

    positions/momenta/actions have shape (n_steps+1,).  actions[0] = 0
    and actions[k] is the running integral of the Lagrangian p^2/2m - V
    by the trapezoidal rule on the sample points.
    """

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    actions: np.ndarray

    def __post_init__(self) -> None:
        if not (
            self.times.shape[0]
            == self.positions.shape[0]
            == self.momenta.shape[0]
            == self.actions.shape[0]
        ):
            raise ValueError("sample counts disagree across trajectory fields")


def verlet_step(
    potential: Potential,
    x: Scalar,
    p: Scalar,
    force: Scalar,
    dt: float,
    constants: PhysicalConstants,
) -> tuple[Scalar, Scalar, Scalar]:
    """One velocity-Verlet update; returns (x, p, force at new x).

    The only position/momentum update in qclab: integrate_hamilton and
    the characteristics sweep step with it through _verlet_with_action;
    caustic_step steps the sweep's orbits, and run_classical_ensemble its
    batch of orbits, with it directly.  Arrays advance element-wise; the
    tests hold each ensemble orbit to integrate_hamilton's scalar orbit
    bit for bit.
    """
    m = constants.mass
    p_half = p + 0.5 * dt * force
    x = x + dt * p_half / m
    force = potential.force(x, constants)
    p = p_half + 0.5 * dt * force
    return x, p, force


def _verlet_with_action(
    potential: Potential,
    x: Scalar,
    p: Scalar,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants,
) -> Iterator[tuple[Scalar, Scalar, Scalar]]:
    """Yield (x, p, action) at steps 0..n_steps of the Verlet orbit(s).

    The action starts at 0 and accumulates the Lagrangian p^2/2m - V by
    the trapezoidal rule.  Every yielded value is a fresh object, so a
    consumer may keep it.
    """
    m = constants.mass
    action: Scalar = 0.0
    yield x, p, action
    lagrangian = p * p / (2.0 * m) - potential.energy(x, constants)
    force = potential.force(x, constants)
    for _ in range(n_steps):
        x, p, force = verlet_step(potential, x, p, force, dt, constants)
        lagrangian_new = p * p / (2.0 * m) - potential.energy(x, constants)
        action = action + 0.5 * dt * (lagrangian + lagrangian_new)
        lagrangian = lagrangian_new
        yield x, p, action


def integrate_hamilton(
    potential: Potential,
    x0: float,
    p0: float,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants,
) -> Trajectory:
    """One velocity-Verlet orbit from (x0, p0), with running action."""
    check_run_arguments(dt, n_steps)
    positions = np.empty(n_steps + 1)
    momenta = np.empty(n_steps + 1)
    actions = np.empty(n_steps + 1)
    steps = _verlet_with_action(potential, float(x0), float(p0), dt, n_steps, constants)
    for k, (x, p, action) in enumerate(steps):
        positions[k], momenta[k], actions[k] = x, p, action
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times, positions, momenta, actions)


def free_principal_function(
    energy: float, constants: PhysicalConstants
) -> Callable[[Scalar, Scalar], Scalar]:
    """Closed-form S(x, t) = -E t + x sqrt(2mE) for inertial motion.

    The returned callable evaluates S; its constant momentum
    sqrt(2mE) is exposed as the attribute `momentum`.
    """
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    momentum = math.sqrt(2.0 * constants.mass * energy)

    def s(x: Scalar, t: Scalar) -> Scalar:
        return -energy * t + momentum * x

    s.momentum = momentum  # type: ignore[attr-defined]
    return s


def _check_sweep(
    s0: np.ndarray, grid: Grid1D, dt: float, n_steps: int, store_every: int = 1
) -> None:
    if s0.shape != (grid.n_points,):
        raise ValueError("s0 must be sampled on the grid")
    check_run_arguments(dt, n_steps, store_every)


def _fan(positions: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """The points of x inside the fan of characteristics at positions,
    or None once two of them have crossed (positions no longer strictly
    increasing), which masks this slice and every later one whole."""
    if np.any(np.diff(positions) <= 0.0):
        return None
    return (x >= positions[0]) & (x <= positions[-1])


def principal_function_slices(
    potential: Potential,
    s0: np.ndarray,
    grid: Grid1D,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants,
    store_every: int = 1,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """S(x, t) by launching one characteristic per grid point, one slice
    at a time: yields (step, S, valid) for every store_every-th step of
    0..n_steps as the sweep reaches it, each a fresh pair of arrays on the
    grid; the orbits are stepped every step, S is interpolated only on the
    steps yielded.

    Initial momenta are p0 = dS0/dx (central differences).  At each
    step the endpoints carry S0(x0) + action; they are deposited at
    their current positions and linearly re-interpolated to the grid.
    valid is False, and S NaN, outside the transported fan; the first
    step at which the endpoint ordering inverts (characteristics
    crossing — a caustic) and every later one are masked whole, and no
    orbit is stepped past it.  A reader that wants only the first fully
    masked step gets it from caustic_step, without the action or S.
    The arguments are checked on the call, before the first slice is
    asked for.
    """
    _check_sweep(s0, grid, dt, n_steps, store_every)

    def sweep() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        yield 0, np.array(s0, dtype=float), np.ones(grid.n_points, dtype=bool)
        # one step at a time: the characteristics are never stored
        p0 = gradient(s0, grid.dx)
        steps = _verlet_with_action(potential, grid.x.copy(), p0, dt, n_steps, constants)
        next(steps)
        crossing = n_steps + 1
        for k, (pos, _, action) in enumerate(steps, start=1):
            inside = _fan(pos, grid.x)
            if inside is None:
                crossing = k
                break
            if k % store_every == 0:
                yield k, np.where(inside, np.interp(grid.x, pos, s0 + action), np.nan), inside
        for k in range(crossing, n_steps + 1):
            if k % store_every == 0:
                yield k, np.full(grid.n_points, np.nan), np.zeros(grid.n_points, dtype=bool)

    return sweep()


def caustic_step(
    potential: Potential,
    s0: np.ndarray,
    grid: Grid1D,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants,
) -> int | None:
    """The first step whose slice principal_function_slices yields fully
    masked (characteristics have crossed, or no grid point is left inside
    the fan), or None if no step up to n_steps is.

    The orbits are the sweep's, stepped by verlet_step alone: no action
    is accumulated and no S interpolated.  The arguments are checked as
    the sweep checks them.
    """
    _check_sweep(s0, grid, dt, n_steps)
    x, p = grid.x.copy(), gradient(s0, grid.dx)
    force = potential.force(x, constants)
    for k in range(1, n_steps + 1):
        x, p, force = verlet_step(potential, x, p, force, dt, constants)
        inside = _fan(x, grid.x)
        if inside is None or not inside.any():
            return k
    return None


def free_characteristics_deviation(
    slices: Iterable[tuple[int, np.ndarray, np.ndarray]],
    grid: Grid1D,
    dt: float,
    s_fn: Callable[[Scalar, Scalar], Scalar],
) -> float:
    """Largest |S - s_fn(x, step * dt)| over the valid points of slices
    (step, S, valid) as principal_function_slices yields them, read one at
    a time so no field is built; ValueError if no slice has a valid point."""
    x = grid.x
    deviations = [
        np.max(np.abs(s[valid] - s_fn(x[valid], k * dt)))
        for k, s, valid in slices
        if valid.any()
    ]
    return float(np.max(deviations))
