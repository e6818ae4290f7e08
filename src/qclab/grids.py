"""Uniform 1D grids and the physical constants they share.

Everything downstream (Hamiltonians, polar decompositions, classical
trajectories) lives on a uniform grid x_i = x_min + i*dx with
dx = (x_max - x_min)/(n_points - 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PhysicalConstants:
    """Reduced Planck constant and particle mass, both positive and finite.

    Defaults give the natural units used throughout: hbar = mass = 1.
    """

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.hbar < math.inf):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (0.0 < self.mass < math.inf):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with n_points >= 3.

    `x` holds the grid points; for exactly symmetric bounds
    (x_min == -x_max) the points are built as (i - (n-1)/2)*dx so that
    x[n-1-i] == -x[i] bitwise, which keeps even potentials exactly even.
    """

    x_min: float
    x_max: float
    n_points: int
    dx: float = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_points < 3:
            raise ValueError(
                f"need at least 3 grid points, got {self.n_points}"
            )
        if not (self.x_max > self.x_min):
            raise ValueError(
                f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]"
            )
        dx = (self.x_max - self.x_min) / (self.n_points - 1)
        idx = np.arange(self.n_points, dtype=float)
        if self.x_min == -self.x_max:
            x = (idx - (self.n_points - 1) / 2.0) * dx
        else:
            x = self.x_min + idx * dx
        x.setflags(write=False)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", x)

    @property
    def interior(self) -> slice:
        """Slice selecting the interior points (everything but the ends)."""
        return slice(1, self.n_points - 1)


def build_grid(x_min: float, x_max: float, n_points: int) -> Grid1D:
    """Construct a uniform grid; rejects degenerate bounds and n_points < 3."""
    return Grid1D(float(x_min), float(x_max), int(n_points))
