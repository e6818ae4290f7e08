"""Static potential catalog: evaluation on grids and classical forces.

Kinds
-----
Free            V = 0 everywhere.
Harmonic        V = (m*omega^2/2) x^2.
InfiniteWell    V = 0 inside; the walls are the grid ends themselves
                (eigen/evolution pin psi to zero there).
SmoothBarrier   Gaussian bump V = height*exp(-(x-center)^2/(2 width^2)).
Tabulated       values read off a two-column CSV whose abscissae must
                match the target grid exactly.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .grids import Grid1D, PhysicalConstants


@dataclass(frozen=True)
class FreePotential:
    pass


@dataclass(frozen=True)
class HarmonicPotential:
    omega: float

    def __post_init__(self) -> None:
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")


@dataclass(frozen=True)
class InfiniteWellPotential:
    pass


@dataclass(frozen=True)
class SmoothBarrierPotential:
    height: float
    width: float
    center: float

    def __post_init__(self) -> None:
        if not (self.height > 0.0):
            raise ValueError(f"barrier height must be positive, got {self.height}")
        if not (self.width > 0.0):
            raise ValueError(f"width must be positive, got {self.width}")


@dataclass(frozen=True)
class TabulatedPotential:
    """Potential sampled on explicit abscissae (one value per grid point)."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise ValueError("tabulated x and values must be equal-length 1D arrays")
        if x.size < 3:
            raise ValueError("tabulated potential needs at least 3 samples")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)


Potential = Union[
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    SmoothBarrierPotential,
    TabulatedPotential,
]


def eval_potential(
    potential: Potential, grid: Grid1D, constants: PhysicalConstants
) -> np.ndarray:
    """Potential energy sampled on the grid points.

    Pure in (potential, grid, constants): same inputs give bitwise
    identical output.
    """
    x = grid.x
    if isinstance(potential, (FreePotential, InfiniteWellPotential)):
        return np.zeros(grid.n_points)
    if isinstance(potential, HarmonicPotential):
        return 0.5 * constants.mass * potential.omega**2 * x**2
    if isinstance(potential, SmoothBarrierPotential):
        u = x - potential.center
        return potential.height * np.exp(-(u**2) / (2.0 * potential.width**2))
    if isinstance(potential, TabulatedPotential):
        if potential.x.shape != x.shape or not np.array_equal(potential.x, x):
            raise ValueError(
                "tabulated abscissae do not match the grid exactly; "
                "regenerate the table from this grid's points"
            )
        return potential.values.copy()
    raise TypeError(f"unknown potential kind: {type(potential).__name__}")


def potential_energy(
    potential: Potential, x, constants: PhysicalConstants
):
    """V at arbitrary position(s) x (not tied to a grid).

    Needed along classical trajectories, whose sample points fall
    between grid nodes. Tabulated interpolates linearly and rejects
    positions outside its abscissae; InfiniteWell is zero like Free
    (see potential_force for the wall convention).
    """
    if isinstance(potential, (FreePotential, InfiniteWellPotential)):
        return np.zeros_like(x) if isinstance(x, np.ndarray) else 0.0
    if isinstance(potential, HarmonicPotential):
        return 0.5 * constants.mass * potential.omega**2 * np.square(x)
    if isinstance(potential, SmoothBarrierPotential):
        u = x - potential.center
        return potential.height * np.exp(-np.square(u) / (2.0 * potential.width**2))
    if isinstance(potential, TabulatedPotential):
        xt, vt = potential.x, potential.values
        if (np.min(x) < xt[0]) or (np.max(x) > xt[-1]):
            raise ValueError(
                f"position outside the tabulated domain [{xt[0]}, {xt[-1]}]"
            )
        return np.interp(x, xt, vt)
    raise TypeError(f"unknown potential kind: {type(potential).__name__}")


def potential_force(
    potential: Potential, x, constants: PhysicalConstants
):
    """Classical force -dV/dx at position(s) x.

    Analytic for the catalog kinds; Tabulated uses a central-difference
    derivative table and linear interpolation, and rejects positions
    outside its abscissae. InfiniteWell is treated as free motion (no
    wall reflections): no scenario integrates a classical box orbit.
    """
    if isinstance(potential, (FreePotential, InfiniteWellPotential)):
        return np.zeros_like(x) if isinstance(x, np.ndarray) else 0.0
    if isinstance(potential, HarmonicPotential):
        return -constants.mass * potential.omega**2 * x
    if isinstance(potential, SmoothBarrierPotential):
        u = x - potential.center
        w2 = potential.width**2
        return potential.height * (u / w2) * np.exp(-(u**2) / (2.0 * w2))
    if isinstance(potential, TabulatedPotential):
        xt, vt = potential.x, potential.values
        lo, hi = xt[0], xt[-1]
        out_of_domain = (np.min(x) < lo) or (np.max(x) > hi)
        if out_of_domain:
            raise ValueError(
                "trajectory left the tabulated domain "
                f"[{lo}, {hi}]"
            )
        dv = np.gradient(vt, xt)
        return -np.interp(x, xt, dv)
    raise TypeError(f"unknown potential kind: {type(potential).__name__}")


def load_tabulated_csv(path: Union[str, Path]) -> TabulatedPotential:
    """Read a two-column CSV (x, V); a non-numeric first row is a header.

    Errors name the file and the 1-based row: a malformed row after the
    data has started, or a non-finite x or V cell.
    """
    xs: list[float] = []
    vs: list[float] = []
    header_seen = False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                x, v = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if not xs and not header_seen:
                    header_seen = True
                    continue
                raise ValueError(
                    f"{path}: row {reader.line_num}: malformed potential row: {row!r}"
                ) from None
            if not (math.isfinite(x) and math.isfinite(v)):
                raise ValueError(
                    f"{path}: row {reader.line_num}: non-finite x or V: {row!r}"
                )
            xs.append(x)
            vs.append(v)
    return TabulatedPotential(np.asarray(xs), np.asarray(vs))
