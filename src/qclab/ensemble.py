"""Superpositions of bound states and classical statistical ensembles.

A general bound solution is a weighted sum over basic (stationary)
solutions,

    psi_0(x) = sum_n c_n psi_n(x),     sum_n |c_n|^2 = 1,

whose energy statistics {(E_n, |c_n|^2)} are frozen by unitarity.  The
classical counterpart of such a state is not one trajectory but a
statistical ensemble of them: a hidden parameter distributes total
energy over the samples, each of which then follows Hamilton's equations
exactly.  This module builds both sides and measures the distance
between their energy statistics.

Sampling uses a counter-based generator (see RNG_ALGORITHM) so a fixed
seed reproduces histograms bitwise on any platform.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Grid1D, PhysicalConstants, check_run_arguments
from .hamilton_jacobi import verlet_step
from .potentials import Potential
from .states import EigenPair, WaveFunction

RNG_ALGORITHM = "philox4x64(numpy.random.Philox)"

_WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class WeightingFunction:
    """Complex weights c_n over a fixed eigenstate list.

    Construction is permissive (projections of out-of-subspace states
    carry total weight < 1); build_superposition enforces unit weight.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1D array")
        object.__setattr__(self, "coefficients", c)

    @property
    def total_weight(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def normalized(self) -> "WeightingFunction":
        w = np.sqrt(self.total_weight)
        if w == 0.0:
            raise ValueError("cannot normalize an all-zero weighting")
        return WeightingFunction(self.coefficients / w)


def gaussian_weights(
    energies: np.ndarray, mean: float, sigma: float
) -> WeightingFunction:
    """Real weights with |c_n|^2 proportional to exp(-(E_n - mean)^2 / 2 sigma^2).

    sigma is the width of the probabilities |c_n|^2, as for `qclab
    ensemble`.  verify-all's superposition keeps its own weights, Gaussian
    in the amplitudes c_n and so sqrt(2) narrower in |c_n|^2: routing them
    through here would move its report.  Raises ValueError when no level's
    weight is positive: each underflows to zero, or sigma**2 does.
    """
    with np.errstate(all="ignore"):  # an overflow in the exponent is a zero weight
        raw = np.exp(-((energies - mean) ** 2) / (2.0 * np.float64(sigma) ** 2))
    total = raw.sum()
    if not total > 0.0:
        span = f"[{float(np.min(energies))!r}, {float(np.max(energies))!r}]"
        raise ValueError(f"the Gaussian weight of every level (E_n in {span}) is zero")
    return WeightingFunction(np.sqrt(raw / total).astype(complex))


def build_superposition(
    basis: Sequence[EigenPair], weights: WeightingFunction
) -> WaveFunction:
    """psi_0 = sum_n c_n psi_n over an orthonormal basis.

    No renormalization is applied: with unit total weight and an
    orthonormal basis the result is normalized already, and keeping the
    sum exact preserves linearity checks downstream.
    """
    if len(basis) != weights.coefficients.size:
        raise ValueError(
            f"basis size {len(basis)} != coefficient count "
            f"{weights.coefficients.size}"
        )
    if abs(weights.total_weight - 1.0) > _WEIGHT_TOL:
        raise ValueError(
            f"weights must carry unit total weight, got {weights.total_weight!r}"
        )
    grid = basis[0].state.grid
    values = np.zeros(grid.n_points, dtype=complex)
    for c, pair in zip(weights.coefficients, basis):
        values += c * pair.state.values
    return WaveFunction(values, grid, basis[0].state.time)


def project(
    psi: WaveFunction, basis: Sequence[EigenPair]
) -> WeightingFunction:
    """c_n = <psi_n, psi> by trapezoid quadrature (basis orthonormal)."""
    coeffs = np.array([pair.state.inner(psi) for pair in basis])
    return WeightingFunction(coeffs)


def energy_distribution(
    weights: WeightingFunction, basis: Sequence[EigenPair]
) -> list[tuple[float, float]]:
    """[(E_n, |c_n|^2)] pairs in basis order."""
    if len(basis) != weights.coefficients.size:
        raise ValueError("basis and weights disagree in length")
    return [
        (pair.energy, float(abs(c) ** 2))
        for c, pair in zip(weights.coefficients, basis)
    ]


@dataclass(frozen=True)
class EnsembleSpec:
    """Discrete energy distribution plus sampling controls.

    energies/probabilities realize the hidden-parameter statistics; the
    seed makes every draw reproducible.
    """

    energies: np.ndarray
    probabilities: np.ndarray
    n_samples: int
    rng_seed: int

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if e.ndim != 1 or e.shape != p.shape or e.size == 0:
            raise ValueError("energies and probabilities must be equal-length 1D")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(p))):
            raise ValueError("energies and probabilities must be finite")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "probabilities", p)


def _draw_levels(rng: np.random.Generator, spec: EnsembleSpec) -> np.ndarray:
    """The drawn level index of every sample."""
    return rng.choice(spec.energies.size, size=spec.n_samples, p=spec.probabilities)


def draw_sample_energies(spec: EnsembleSpec) -> np.ndarray:
    """The energies a run with this spec draws (same stream position as
    run_classical_ensemble's first draw)."""
    rng = np.random.Generator(np.random.Philox(spec.rng_seed))
    return spec.energies[_draw_levels(rng, spec)]


@dataclass(frozen=True)
class EnsembleResult:
    """Streaming summary of a classical ensemble run.

    histograms[k] counts sample positions in the grid's bins (edges =
    grid points) at histogram_times[k].  Per-sample columns: the drawn
    energy and the relative energy drift observed at stored slices.
    """

    histogram_times: np.ndarray
    histograms: np.ndarray
    bin_edges: np.ndarray
    sample_energies: np.ndarray
    energy_drift: np.ndarray


def run_classical_ensemble(
    spec: EnsembleSpec,
    potential: Potential,
    grid: Grid1D,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants,
    store_every: int = 100,
) -> EnsembleResult:
    """Integrate n_samples classical orbits drawn from the energy spec.

    Every sample launches at x = 0.  Draw order (fixed, for
    reproducibility): energy indices, then momentum signs (+/-
    equiprobable).  The momentum magnitude is set by energy
    conservation, p0 = sqrt(2m (E - V(0))), so each sample's Hamiltonian
    equals its drawn energy exactly at launch; a drawn energy below V(0)
    is an error.

    Verlet is deterministic, so samples that share a launch state share
    their whole orbit.  A launch is a (drawn level, sign) pair: launches
    are counted with np.bincount and each one drawn is integrated once,
    so a k-level spec has at most 2k orbits however many samples it
    draws.  Histograms weight each orbit by its sample count, and the
    drift column is scattered back, so every output equals that of
    integrating all n_samples rows.

    The orbits advance in lockstep through hamilton_jacobi.verlet_step
    without storing trajectories: histograms and energy drift are
    accumulated at every store_every-th step (plus the final one).
    """
    check_run_arguments(dt, n_steps, store_every)
    rng = np.random.Generator(np.random.Philox(spec.rng_seed))
    n_levels = spec.energies.size
    launch = _draw_levels(rng, spec)
    energies = spec.energies[launch]
    v0 = potential.energy(np.zeros(n_levels), constants)
    kinetic = spec.energies - v0  # per level
    if np.any(kinetic[launch] < 0.0):
        bad = int(np.argmin(kinetic[launch]))
        raise ValueError(
            f"sample {bad}: drawn energy {energies[bad]} lies below the "
            f"potential {v0[launch[bad]]} at its launch point"
        )
    m = constants.mass
    # each sample's launch key, 2 * level + (1 if its momentum is
    # positive), written over its drawn level
    launch *= 2
    launch += rng.random(spec.n_samples) >= 0.5
    counts = np.bincount(launch, minlength=2 * n_levels)
    keys = np.flatnonzero(counts)
    counts = counts[keys]
    signs = np.where(keys % 2 == 1, 1.0, -1.0)
    p = signs * np.sqrt(2.0 * m * kinetic[keys // 2])
    x = np.zeros(keys.size)

    def hamiltonian(xv: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return pv * pv / (2.0 * m) + potential.energy(xv, constants)

    def histogram(xv: np.ndarray) -> np.ndarray:
        return np.histogram(xv, bins=grid.x, weights=counts)[0]

    # step k goes to row ceil(k / store_every), a final step off the stride too
    hist_times = np.zeros(1 - (-n_steps // store_every))
    histograms = np.empty((hist_times.size, grid.x.size - 1), dtype=np.int64)
    histograms[0] = histogram(x)

    h0 = hamiltonian(x, p)
    drift = np.zeros(x.size)
    force = potential.force(x, constants)
    for k in range(1, n_steps + 1):
        x, p, force = verlet_step(potential, x, p, force, dt, constants)
        if k % store_every == 0 or k == n_steps:
            np.maximum(drift, np.abs(hamiltonian(x, p) - h0) / np.abs(h0), out=drift)
            row = -(-k // store_every)
            hist_times[row] = k * dt
            histograms[row] = histogram(x)

    drift_by_key = np.zeros(2 * n_levels)
    drift_by_key[keys] = drift
    return EnsembleResult(
        histogram_times=hist_times,
        histograms=histograms,
        bin_edges=grid.x.copy(),
        sample_energies=energies,
        energy_drift=drift_by_key[launch],
    )


def nearest_level_counts(levels: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """How many energies fall nearest to each of the ascending levels."""
    midpoints = 0.5 * (levels[1:] + levels[:-1])
    return np.bincount(np.searchsorted(midpoints, energies), minlength=levels.size)


def compare_energy_statistics(
    quantum: Sequence[tuple[float, float]], classical_energies: np.ndarray
) -> float:
    """Total-variation distance between |c_n|^2 and the sampled energies.

    Each classical sample is assigned to the nearest quantum level E_n;
    TV = (1/2) sum_n |p_n - phat_n|, in [0, 1].
    """
    classical_energies = np.asarray(classical_energies, dtype=float)
    if classical_energies.size == 0:
        raise ValueError("empty classical ensemble")
    levels = np.array([e for e, _ in quantum])
    probs = np.array([p for _, p in quantum])
    order = np.argsort(levels)
    levels, probs = levels[order], probs[order]
    empirical = nearest_level_counts(levels, classical_energies) / classical_energies.size
    return float(0.5 * np.sum(np.abs(probs - empirical)))
