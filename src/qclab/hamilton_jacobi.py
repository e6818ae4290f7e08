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
crossing onward are masked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

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


@dataclass(frozen=True)
class PrincipalFunctionField:
    """S on (time slices x grid), with a validity mask.

    validity_mask[k, i] is False where no single-valued S exists at that
    space-time point: outside the characteristic fan, or anywhere from
    the first caustic onward.  first_masked_step is the first sweep step
    whose slice is fully masked, stored or not (None if there is none).
    """

    s: np.ndarray
    validity_mask: np.ndarray
    times: np.ndarray
    grid: Grid1D
    first_masked_step: int | None = None

    def __post_init__(self) -> None:
        if self.s.shape != self.validity_mask.shape:
            raise ValueError("s and validity_mask shapes differ")
        if self.s.shape != (self.times.shape[0], self.grid.n_points):
            raise ValueError("s must be (n_slices, n_points)")


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
    the characteristics sweep step with it through _verlet_with_action,
    and run_classical_ensemble steps its batch of orbits with it
    directly.  Arrays advance element-wise; the tests hold each ensemble
    orbit to integrate_hamilton's scalar orbit bit for bit.
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
    constants: PhysicalConstants = PhysicalConstants(),
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
    energy: float, constants: PhysicalConstants = PhysicalConstants()
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


def principal_function_from_characteristics(
    potential: Potential,
    s0: np.ndarray,
    grid: Grid1D,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants = PhysicalConstants(),
    store_every: int = 1,
) -> PrincipalFunctionField:
    """S(x, t) by launching one characteristic per grid point.

    Initial momenta are p0 = dS0/dx (central differences).  At each
    slice the endpoints carry S0(x0) + action; they are deposited at
    their current positions and linearly re-interpolated to the grid.
    Points outside the transported fan are masked, and the first slice
    at which the endpoint ordering inverts (characteristics crossing —
    a caustic) masks itself and everything after it.  Only the slices of
    steps 0, store_every, 2 store_every, ... <= n_steps are stored.
    """
    if s0.shape != (grid.n_points,):
        raise ValueError("s0 must be sampled on the grid")
    check_run_arguments(dt, n_steps, store_every)
    p0 = gradient(s0, grid.dx)
    n_slices = n_steps // store_every + 1
    s = np.full((n_slices, grid.n_points), np.nan)
    mask = np.zeros((n_slices, grid.n_points), dtype=bool)
    s[0], mask[0] = s0, True
    first_masked = None
    # one step at a time: the characteristics are never stored, and the
    # sweep stops at the first crossing (every later slice is masked)
    steps = _verlet_with_action(potential, grid.x.copy(), p0, dt, n_steps, constants)
    next(steps)
    for k, (pos, _, action) in enumerate(steps, start=1):
        crossed = np.any(np.diff(pos) <= 0.0)
        inside = (grid.x >= pos[0]) & (grid.x <= pos[-1])
        if first_masked is None and (crossed or not inside.any()):
            first_masked = k
        if crossed:
            break
        if k % store_every == 0:
            s[k // store_every] = np.where(inside, np.interp(grid.x, pos, s0 + action), np.nan)
            mask[k // store_every] = inside
    times = dt * (store_every * np.arange(n_slices))
    return PrincipalFunctionField(s, mask, times, grid, first_masked)
