"""Complex wavefunctions on a grid plus a few ready-made initial states."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, PhysicalConstants
from .stencils import gradient


@dataclass(frozen=True)
class WaveFunction:
    """A complex field sampled on a grid at one instant."""

    values: np.ndarray
    grid: Grid1D
    time: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        """sqrt of the trapezoidal integral of |psi|^2."""
        return float(
            np.sqrt(np.trapezoid(np.abs(self.values) ** 2, dx=self.grid.dx))
        )

    def inner(self, other: "WaveFunction") -> complex:
        """Trapezoidal <self, other> = integral of conj(self)*other."""
        return complex(
            np.trapezoid(np.conj(self.values) * other.values, dx=self.grid.dx)
        )

    def normalized(self) -> "WaveFunction":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero wavefunction")
        return WaveFunction(self.values / n, self.grid, self.time)


def plane_wave(
    grid: Grid1D, energy: float, constants: PhysicalConstants, time: float = 0.0
) -> WaveFunction:
    """Free stationary state exp(i(k x - E t)/hbar·...) with hbar*k = sqrt(2mE).

    Not normalizable on the line; |psi| == 1 by construction.
    """
    if not (energy > 0.0):
        raise ValueError(f"plane wave needs energy > 0, got {energy}")
    k = np.sqrt(2.0 * constants.mass * energy) / constants.hbar
    phase = k * grid.x - energy * time / constants.hbar
    return WaveFunction(np.exp(1j * phase), grid, time)


def gaussian_packet(
    grid: Grid1D,
    center: float,
    momentum: float,
    width: float,
    constants: PhysicalConstants,
) -> WaveFunction:
    """Normalized Gaussian packet exp(-(x-center)^2/(4 width^2) + i p x/hbar).

    `width` is the position-space standard deviation of |psi|^2.
    """
    if not (width > 0.0):
        raise ValueError(f"width must be positive, got {width}")
    x = grid.x
    envelope = np.exp(-((x - center) ** 2) / (4.0 * width**2))
    values = envelope * np.exp(1j * momentum * x / constants.hbar)
    psi = WaveFunction(values, grid)
    return psi.normalized()


def harmonic_eigenfunction(
    n: int,
    grid: Grid1D,
    omega: float,
    constants: PhysicalConstants,
    time: float = 0.0,
) -> WaveFunction:
    """Analytic n-th oscillator eigenstate, continuum-normalized.

    phi_n(x) = (m w / pi hbar)^(1/4) / sqrt(2^n n!) * H_n(xi) e^{-xi^2/2},
    xi = x sqrt(m w / hbar), with physicists' Hermite polynomials by the
    three-term recurrence (stable for the small n used here).  time only
    stamps the slice; the stationary phase factor is the caller's choice.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    m, hbar = constants.mass, constants.hbar
    xi = grid.x * np.sqrt(m * omega / hbar)
    h_prev = np.ones_like(xi)
    h = 2.0 * xi if n >= 1 else h_prev
    for k in range(2, n + 1):
        h, h_prev = 2.0 * xi * h - 2.0 * (k - 1) * h_prev, h
    norm = (m * omega / (np.pi * hbar)) ** 0.25 / math.sqrt(
        2.0**n * math.factorial(n)
    )
    values = norm * h * np.exp(-0.5 * xi**2)
    return WaveFunction(values.astype(complex), grid, time)


def probability_current(
    psi: WaveFunction, constants: PhysicalConstants
) -> np.ndarray:
    """j = (hbar/m) Im(conj(psi) * dpsi/dx), straight from the complex field.

    Used as the independent cross-check for phase-gradient based
    diagnostics; deliberately does not touch the polar decomposition.
    """
    dpsi = gradient(psi.values, psi.grid.dx)
    return (constants.hbar / constants.mass) * np.imag(
        np.conj(psi.values) * dpsi
    )
