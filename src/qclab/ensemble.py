"""Superpositions of bound states and classical statistical ensembles.

A general bound solution is a weighted sum over basic (stationary)
solutions,

    psi_0(x) = sum_n c_n psi_n(x),     sum_n |c_n|^2 = 1,

whose energy statistics {(E_n, |c_n|^2)} are frozen by unitarity.  The
classical counterpart of such a state is not one trajectory but a
statistical ensemble of them: a hidden parameter (the 1D stand-in for an
impact parameter is the launch offset) distributes total energy over the
samples, each of which then follows Hamilton's equations exactly.  This
module builds both sides and measures the distance between their energy
statistics.

Sampling uses a counter-based generator (see RNG_ALGORITHM) so a fixed
seed reproduces histograms bitwise on any platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grids import Grid1D, PhysicalConstants
from .potentials import Potential
from .spectral import EigenPair
from .states import WaveFunction

RNG_ALGORITHM = "philox4x64(numpy.random.Philox)"

_WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class WeightingFunction:
    """Complex weights c_n over a fixed eigenstate list.

    Construction is permissive (projections of out-of-subspace states
    legitimately carry total weight < 1, reported as leakage);
    build_superposition enforces unit weight.
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

    @property
    def leakage(self) -> float:
        """Weight missing from the spanned subspace, 1 - sum |c_n|^2."""
        return 1.0 - self.total_weight

    def normalized(self) -> "WeightingFunction":
        w = np.sqrt(self.total_weight)
        if w == 0.0:
            raise ValueError("cannot normalize an all-zero weighting")
        return WeightingFunction(self.coefficients / w)


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


def ensemble_from_impact_parameters(
    b_values: np.ndarray,
    probabilities: np.ndarray,
    b_to_energy: Callable[[float], float],
    n_samples: int,
    rng_seed: int,
) -> EnsembleSpec:
    """EnsembleSpec induced by a distribution over a hidden parameter b.

    In 1D the impact parameter has no literal geometry; what survives is
    its effect — a map b -> E(b) (shaped by the interaction potential)
    pushing the b-distribution forward onto total energy.
    """
    energies = np.array([float(b_to_energy(float(b))) for b in b_values])
    return EnsembleSpec(energies, np.asarray(probabilities, float), n_samples, rng_seed)


def _draw(rng: np.random.Generator, spec: EnsembleSpec) -> np.ndarray:
    idx = rng.choice(spec.energies.size, size=spec.n_samples, p=spec.probabilities)
    return spec.energies[idx]


def draw_sample_energies(spec: EnsembleSpec) -> np.ndarray:
    """The energies a run with this spec draws (same stream position as
    run_classical_ensemble's first draw)."""
    rng = np.random.Generator(np.random.Philox(spec.rng_seed))
    return _draw(rng, spec)


@dataclass(frozen=True)
class EnsembleResult:
    """Streaming summary of a classical ensemble run.

    histograms[k] counts sample positions in the grid's bins (edges =
    grid points) at histogram_times[k].  Per-sample columns: the drawn
    energy, the relative energy drift observed at stored slices, the
    largest |x| visited (stored slices), and the final phase-space
    point.
    """

    histogram_times: np.ndarray
    histograms: np.ndarray
    bin_edges: np.ndarray
    sample_energies: np.ndarray
    energy_drift: np.ndarray
    max_abs_position: np.ndarray
    final_positions: np.ndarray
    final_momenta: np.ndarray
    metadata: dict = field(repr=False)


def check_run_arguments(
    dt: float, n_steps: int, store_every: int, n_samples: int = 1
) -> None:
    """The argument checks of run_classical_ensemble and EnsembleSpec,
    for callers that want them before building the spec."""
    if not 0.0 < dt < math.inf or n_steps < 1 or store_every < 1:
        raise ValueError("dt must be finite and > 0, and step counts >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")


def run_classical_ensemble(
    spec: EnsembleSpec,
    potential: Potential,
    grid: Grid1D,
    dt: float,
    n_steps: int,
    constants: PhysicalConstants = PhysicalConstants(),
    x0_rule: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None,
    store_every: int = 100,
) -> EnsembleResult:
    """Integrate n_samples classical orbits drawn from the energy spec.

    Draw order (fixed, for reproducibility): energy indices, then launch
    positions via x0_rule(energies, rng) (default: all samples start at
    x = 0), then momentum signs (+/- equiprobable).  The momentum
    magnitude is set by energy conservation, p0 = sqrt(2m (E - V(x0))),
    so each sample's Hamiltonian equals its drawn energy exactly at
    launch; a drawn energy below V(x0), or a non-finite launch position,
    is an error.

    Verlet is deterministic, so samples that share a launch state share
    their whole orbit.  The launch rows (x0, p0) are deduplicated by their
    bit patterns (so -0.0 and +0.0 stay apart), and each distinct row is
    integrated once: with the default x0_rule a k-level spec has at most
    2k orbits however many samples it draws; a continuous x0_rule gets
    one orbit per sample.  Histograms weight each orbit by its sample
    count, and the per-sample columns are scattered back, so every output
    equals that of integrating all n_samples rows.

    The orbits advance in lockstep without storing trajectories:
    histograms, energy drift, and |x| maxima are accumulated at every
    store_every-th step (plus the final one).  Positions and momenta are
    updated in place through one scratch buffer, in the operation order
    of hamilton_jacobi.verlet_step, so the final phase-space points are
    bit-identical to integrate_hamilton's from the same launch state.
    """
    check_run_arguments(dt, n_steps, store_every)
    rng = np.random.Generator(np.random.Philox(spec.rng_seed))
    n = spec.n_samples
    energies = _draw(rng, spec)
    if x0_rule is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(x0_rule(energies, rng), dtype=float)
        if x0.shape != (n,):
            raise ValueError("x0_rule must return one position per sample")
        if not np.all(np.isfinite(x0)):
            bad = int(np.argmin(np.isfinite(x0)))
            raise ValueError(
                f"sample {bad}: x0_rule returned the non-finite launch "
                f"position {x0[bad]}"
            )
    v0 = potential.energy(x0, constants)
    kinetic = energies - v0
    if np.any(kinetic < 0.0):
        bad = int(np.argmin(kinetic))
        raise ValueError(
            f"sample {bad}: drawn energy {energies[bad]} lies below the "
            f"potential {v0[bad]} at its launch point"
        )
    m = constants.mass
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    launch = np.column_stack((x0, signs * np.sqrt(2.0 * m * kinetic)))
    _, first, inverse, counts = np.unique(
        launch.view(np.dtype((np.void, launch.itemsize * 2))).ravel(),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    # owning copies of the distinct launch states: the loop updates them
    x = launch[first, 0]
    p = launch[first, 1]

    def hamiltonian(xv: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return pv * pv / (2.0 * m) + potential.energy(xv, constants)

    def histogram(xv: np.ndarray) -> np.ndarray:
        return np.histogram(xv, bins=grid.x, weights=counts)[0].astype(np.int64)

    h0 = hamiltonian(x, p)
    drift = np.zeros(x.size)
    max_abs_x = np.abs(x)
    hist_times = [0.0]
    histograms = [histogram(x)]

    half_dt = 0.5 * dt
    scratch = np.empty(x.size)
    force = potential.force(x, constants)
    for k in range(1, n_steps + 1):
        np.multiply(force, half_dt, out=scratch)
        p += scratch
        np.multiply(p, dt, out=scratch)
        scratch /= m
        x += scratch
        force = potential.force(x, constants)
        np.multiply(force, half_dt, out=scratch)
        p += scratch
        if k % store_every == 0 or k == n_steps:
            np.maximum(drift, np.abs(hamiltonian(x, p) - h0) / np.abs(h0), out=drift)
            np.maximum(max_abs_x, np.abs(x), out=max_abs_x)
            hist_times.append(k * dt)
            histograms.append(histogram(x))

    metadata = {
        "rng_algorithm": RNG_ALGORITHM,
        "rng_seed": spec.rng_seed,
        "n_samples": n,
        "dt": dt,
        "n_steps": n_steps,
        "store_every": store_every,
    }
    return EnsembleResult(
        histogram_times=np.asarray(hist_times),
        histograms=np.asarray(histograms),
        bin_edges=grid.x.copy(),
        sample_energies=energies,
        energy_drift=drift[inverse],
        max_abs_position=max_abs_x[inverse],
        final_positions=x[inverse],
        final_momenta=p[inverse],
        metadata=metadata,
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
