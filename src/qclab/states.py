"""Wavefunctions and eigenpairs on a grid, and ready-made initial states.

A bound eigenstate is real: its values stay float64, and complex
arithmetic starts where a phase enters (evolution, superposition, plane
waves and packets).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, PhysicalConstants
from .stencils import gradient


@dataclass(frozen=True)
class WaveFunction:
    """A field sampled on a grid at one instant.

    float64 values stay float64, as a real stationary state needs no
    imaginary part; any other input is converted to complex128.  numpy
    promotes a real state that meets a complex one to x + 0j, the same
    bits as its complex copy.
    """

    values: np.ndarray
    grid: Grid1D
    time: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.dtype != np.float64:
            v = np.asarray(v, dtype=complex)
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
        """Trapezoidal <self, other> = integral of conj(self)*other.

        Two real states are summed by numpy's real pairwise summation,
        which can differ from their complex copies' in the last bit.
        """
        return complex(
            np.trapezoid(np.conj(self.values) * other.values, dx=self.grid.dx)
        )

    def normalized(self) -> "WaveFunction":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero wavefunction")
        return WaveFunction(self.values / n, self.grid, self.time)


@dataclass(frozen=True)
class EigenPair:
    energy: float
    state: WaveFunction
    index: int


def plane_wave(
    grid: Grid1D, energy: float, constants: PhysicalConstants
) -> WaveFunction:
    """Free stationary state exp(i k x) at t = 0, with hbar*k = sqrt(2mE).

    Not normalizable on the line; |psi| == 1 by construction.
    """
    if not (energy > 0.0):
        raise ValueError(f"plane wave needs energy > 0, got {energy}")
    k = np.sqrt(2.0 * constants.mass * energy) / constants.hbar
    return WaveFunction(np.exp(1j * (k * grid.x)), grid)


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
) -> WaveFunction:
    """Analytic n-th oscillator eigenstate at t = 0, continuum-normalized
    and real (float64 values).

    phi_n(x) = (m w / pi hbar)^(1/4) / sqrt(2^n n!) * H_n(xi) e^{-xi^2/2},
    xi = x sqrt(m w / hbar), with physicists' Hermite polynomials by the
    three-term recurrence (stable for the small n used here).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    m, hbar = constants.mass, constants.hbar
    try:
        # n! stops fitting a float at n = 171; 2^n n! already at n = 151,
        # where the product rounds to inf without raising
        weight = 2.0**n * math.factorial(n)
    except OverflowError:
        weight = math.inf
    if weight == math.inf:
        raise ValueError(
            f"harmonic eigenfunction n = {n}: the normalization 2^n n! "
            "overflows a float"
        )
    norm = (m * omega / (np.pi * hbar)) ** 0.25 / math.sqrt(weight)
    xi = grid.x * np.sqrt(m * omega / hbar)
    h_prev = np.ones_like(xi)
    h = 2.0 * xi if n >= 1 else h_prev
    for k in range(2, n + 1):
        h, h_prev = 2.0 * xi * h - 2.0 * (k - 1) * h_prev, h
    values = norm * h * np.exp(-0.5 * xi**2)
    return WaveFunction(values, grid)


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
