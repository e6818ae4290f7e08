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
from typing import Callable, Union

import numpy as np

from .grids import Grid1D, PhysicalConstants
from .potentials import Potential
from .stencils import gradient

Scalar = Union[float, np.ndarray]


@dataclass(frozen=True)
class ClassicalState:
    x: float
    p: float
    t: float

    def __post_init__(self) -> None:
        for name in ("x", "p", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Uniform-dt samples of one orbit (or a batch: trailing sample axis).

    positions/momenta/actions have shape (n_steps+1,) for a scalar launch
    or (n_steps+1, n_samples) for an array launch. actions[0] = 0 and
    actions[k] is the running integral of the Lagrangian p^2/2m - V by
    the trapezoidal rule on the sample points.
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

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def state(self, k: int) -> ClassicalState:
        if self.positions.ndim != 1:
            raise ValueError("state() is for scalar trajectories; index the batch first")
        return ClassicalState(
            float(self.positions[k]), float(self.momenta[k]), float(self.times[k])
        )


@dataclass(frozen=True)
class PrincipalFunctionField:
    """S on (time slices x grid), with a validity mask.

    validity_mask[k, i] is False where no single-valued S exists at that
    space-time point: outside the characteristic fan, or anywhere from
    the first caustic onward.
    """

    s: np.ndarray
    validity_mask: np.ndarray
    times: np.ndarray
    grid: Grid1D

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

    The kernel of integrate_hamilton, for one orbit or a batch.  The
    streaming ensemble runner repeats these operations in place, in the
    same order, and the tests compare it against this kernel bit for bit.
    """
    m = constants.mass
    p_half = p + 0.5 * dt * force
    x = x + dt * p_half / m
    force = potential.force(x, constants)
    p = p_half + 0.5 * dt * force
    return x, p, force


def integrate_hamilton(
    potential: Potential,
    x0: Scalar,
    p0: Scalar,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants = PhysicalConstants(),
) -> Trajectory:
    """Velocity-Verlet orbit(s) with running action.

    x0/p0 may be floats (one orbit) or equal-shape arrays (a batch
    advanced in lockstep — used by the characteristics sweep).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    m = constants.mass
    batch = isinstance(x0, np.ndarray)
    x = np.array(x0, dtype=float, copy=True) if batch else float(x0)
    p = np.array(p0, dtype=float, copy=True) if batch else float(p0)
    shape = (n_steps + 1,) + (x.shape if batch else ())
    positions = np.empty(shape)
    momenta = np.empty(shape)
    actions = np.empty(shape)
    positions[0], momenta[0], actions[0] = x, p, 0.0
    lagrangian = p * p / (2.0 * m) - potential.energy(x, constants)
    force = potential.force(x, constants)
    for k in range(n_steps):
        x, p, force = verlet_step(potential, x, p, force, dt, constants)
        lagrangian_new = p * p / (2.0 * m) - potential.energy(x, constants)
        positions[k + 1] = x
        momenta[k + 1] = p
        actions[k + 1] = actions[k] + 0.5 * dt * (lagrangian + lagrangian_new)
        lagrangian = lagrangian_new
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
) -> PrincipalFunctionField:
    """S(x, t) by launching one characteristic per grid point.

    Initial momenta are p0 = dS0/dx (central differences).  At each
    slice the endpoints carry S0(x0) + action; they are deposited at
    their current positions and linearly re-interpolated to the grid.
    Points outside the transported fan are masked, and the first slice
    at which the endpoint ordering inverts (characteristics crossing —
    a caustic) masks itself and everything after it.
    """
    if s0.shape != (grid.n_points,):
        raise ValueError("s0 must be sampled on the grid")
    p0 = gradient(s0, grid.dx)
    traj = integrate_hamilton(potential, grid.x.copy(), p0, dt, n_steps, constants)
    n_slices = n_steps + 1
    s = np.full((n_slices, grid.n_points), np.nan)
    mask = np.zeros((n_slices, grid.n_points), dtype=bool)
    s[0] = s0
    mask[0] = True
    caustic_hit = False
    for k in range(1, n_slices):
        pos = traj.positions[k]
        if np.any(np.diff(pos) <= 0.0):
            caustic_hit = True
        if caustic_hit:
            continue  # masked from the first crossing onward
        values = s0 + traj.actions[k]
        s[k] = np.interp(grid.x, pos, values, left=np.nan, right=np.nan)
        inside = (grid.x >= pos[0]) & (grid.x <= pos[-1])
        s[k, ~inside] = np.nan
        mask[k] = inside
    return PrincipalFunctionField(s, mask, traj.times, grid)


def hj_residual(
    field: PrincipalFunctionField,
    potential_values: np.ndarray,
    constants: PhysicalConstants = PhysicalConstants(),
) -> np.ndarray:
    """Central-difference residual of (grad S)^2/2m + V + dS/dt.

    Shape (n_slices - 2, n_points); row k corresponds to slice k+1.
    NaN wherever the space or time stencil touches a masked point.
    """
    if field.s.shape[0] < 3:
        raise ValueError("need at least 3 time slices for central differences")
    dts = np.diff(field.times)
    dt = float(dts[0])
    if dt <= 0 or not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ValueError("time slices must be uniformly spaced and increasing")
    m = constants.mass
    rows = []
    for k in range(1, field.s.shape[0] - 1):
        grad_s = gradient(field.s[k], field.grid.dx)
        ds_dt = (field.s[k + 1] - field.s[k - 1]) / (2.0 * dt)
        rows.append(grad_s**2 / (2.0 * m) + potential_values + ds_dt)
    return np.stack(rows)
