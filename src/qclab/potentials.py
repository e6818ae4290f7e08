"""Static potential catalog: each kind carries its own energy V(x),
force -dV/dx and samples on a grid, so one V drives both the quantum
Hamiltonian and the classical orbits.

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
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .grids import Grid1D, PhysicalConstants


class Potential(ABC):
    """A static potential V(x): its energy and force at arbitrary
    positions (classical trajectories fall between grid nodes) and its
    samples on a grid.

    Pure in (potential, x or grid, constants): same inputs give bitwise
    identical output.
    """

    @abstractmethod
    def energy(self, x, constants: PhysicalConstants):
        """V at position(s) x."""

    @abstractmethod
    def force(self, x, constants: PhysicalConstants):
        """Classical force -dV/dx at position(s) x."""

    def on_grid(self, grid: Grid1D, constants: PhysicalConstants) -> np.ndarray:
        """V sampled on the grid points."""
        return self.energy(grid.x, constants)


@dataclass(frozen=True)
class FreePotential(Potential):
    def energy(self, x, constants: PhysicalConstants):
        return np.zeros_like(x) if isinstance(x, np.ndarray) else 0.0

    force = energy  # both vanish identically


@dataclass(frozen=True)
class InfiniteWellPotential(FreePotential):
    """Classically free motion, without wall reflections: no scenario
    integrates a classical box orbit."""


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    omega: float

    def __post_init__(self) -> None:
        if not (0.0 < self.omega < math.inf):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        # energy and force use omega**2, which raises OverflowError on a float
        if not math.isfinite(self.omega * self.omega):
            raise ValueError(f"omega^2 must be finite, got omega = {self.omega}")

    def energy(self, x, constants: PhysicalConstants):
        return 0.5 * constants.mass * self.omega**2 * np.square(x)

    def force(self, x, constants: PhysicalConstants):
        return -constants.mass * self.omega**2 * x


@dataclass(frozen=True)
class SmoothBarrierPotential(Potential):
    height: float
    width: float
    center: float

    def __post_init__(self) -> None:
        if not (0.0 < self.height < math.inf):
            raise ValueError(
                f"barrier height must be positive and finite, got {self.height}"
            )
        if not (0.0 < self.width < math.inf):
            raise ValueError(f"width must be positive and finite, got {self.width}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")

    def energy(self, x, constants: PhysicalConstants):
        u = x - self.center
        return self.height * np.exp(-np.square(u) / (2.0 * self.width**2))

    def force(self, x, constants: PhysicalConstants):
        u = x - self.center
        w2 = self.width**2
        return self.height * (u / w2) * np.exp(-(u**2) / (2.0 * w2))


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """Potential sampled on explicit abscissae (one value per grid point).

    Between samples V is interpolated linearly and the force is the
    interpolated central-difference derivative; positions outside the
    abscissae are rejected.
    """

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise ValueError("tabulated x and values must be equal-length 1D arrays")
        if x.size < 3:
            raise ValueError("tabulated potential needs at least 3 samples")
        finite = np.isfinite(x) & np.isfinite(v)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(
                f"tabulated sample {bad} is not finite: x = {x[bad]}, V = {v[bad]}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @cached_property
    def _slope(self) -> np.ndarray:
        # lazy: hard-wall tables (V ~ 1e308) overflow here, and only
        # classical runs need the derivative
        return np.gradient(self.values, self.x)

    def _interpolate(self, x, table: np.ndarray):
        lo, hi = self.x[0], self.x[-1]
        if (np.min(x) < lo) or (np.max(x) > hi):
            raise ValueError(f"position outside the tabulated domain [{lo}, {hi}]")
        return np.interp(x, self.x, table)

    def energy(self, x, constants: PhysicalConstants):
        return self._interpolate(x, self.values)

    def force(self, x, constants: PhysicalConstants):
        return -self._interpolate(x, self._slope)

    def on_grid(self, grid: Grid1D, constants: PhysicalConstants) -> np.ndarray:
        if self.x.shape != grid.x.shape or not np.array_equal(self.x, grid.x):
            raise ValueError(
                "tabulated abscissae do not match the grid exactly; "
                "regenerate the table from this grid's points"
            )
        return self.values.copy()


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
