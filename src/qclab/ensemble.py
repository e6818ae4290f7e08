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
seed reproduces histograms bitwise on any platform.  The generator is
written here in numpy: the stream is numpy.random.Philox's, bit for bit,
without loading numpy.random.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Grid1D, PhysicalConstants, check_run_arguments
from .hamilton_jacobi import verlet_step
from .potentials import Potential
from .states import EigenPair, WaveFunction

# Reports carry this name (verify-all's metadata).  It names the stream, not
# the code that draws it: _Philox below reproduces numpy.random.Philox's
# words exactly, so the name and every seeded draw stay as they were.
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
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {seed!r}")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "rng_seed", int(seed))


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC'11) as numpy.random.Philox runs it.  All seeding
# arithmetic is mod 2**32, all block arithmetic mod 2**64.
_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_PHILOX_M = (0xD2E7_470E_E14C_6C93, 0xCA5A_8263_9512_1157)
_PHILOX_W = (0x9E37_79B9_7F4A_7C15, 0xBB67_AE85_84CA_A73B)  # key step per round
_CHUNK_BLOCKS = 4096  # blocks generated at a time, four words each


def _hashmix(const: int, mult: int):
    """numpy SeedSequence's hashmix: each call hashes one 32-bit word and
    steps the shared hash constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_key(seed: int) -> tuple[int, int]:
    """The Philox key numpy derives from seed: SeedSequence(seed)'s
    4-word pool, then generate_state(2, np.uint64)."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0_D7E5, 0x931E_8875)

    def mix(x: int, y: int) -> int:
        value = (0xCA01_F9DD * x - 0x4973_F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = list(map(_hashmix(0x8B51_F9DD, 0x58F3_8DED), pool))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of m * b, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    b_lo, b_hi = b & _MASK32, b >> 32
    t = m_lo * b_lo
    u = m_hi * b_lo + (t >> 32)
    v = m_lo * b_hi + (u & _MASK32)
    return m_hi * b_hi + (u >> 32) + (v >> 32), np.uint64(m) * b


def _philox_blocks(key: tuple[int, int], first: int, count: int) -> np.ndarray:
    """The words of blocks first .. first + count - 1 in stream order: block
    b is ten rounds on the counter (b, 0, 0, 0), the key bumped between.
    (numpy carries into the counter's second word after 2**64 blocks, far
    beyond any run.)"""
    c0 = np.arange(first, first + count, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(count, dtype=np.uint64)
    k0, k1 = key
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    return np.stack((c0, c1, c2, c3), axis=1).ravel()


class _Philox:
    """numpy.random.Generator(numpy.random.Philox(seed))'s random(n) and
    choice(k, n, p=p), bit for bit.

    numpy steps the counter before each block, so the first block is 1;
    words of a block a draw leaves unused open the next draw.
    """

    def __init__(self, seed: int) -> None:
        self._key = _seed_key(seed)
        self._blocks = 0  # blocks generated so far
        self._spare = np.empty(0, dtype=np.uint64)

    def _fill(self, out: np.ndarray, convert) -> np.ndarray:
        """Fill out with convert(u) of its next out.size uniforms
        u = (word >> 11) * 2**-53 in [0, 1), a bounded chunk at a time."""
        done = 0
        while done < out.size:
            if self._spare.size == 0:
                count = min(_CHUNK_BLOCKS, -(-(out.size - done) // 4))
                self._spare = _philox_blocks(self._key, self._blocks + 1, count)
                self._blocks += count
            words = self._spare[: out.size - done]
            self._spare = self._spare[words.size :]
            out[done : done + words.size] = convert((words >> 11) * 2.0**-53)
            done += words.size
        return out

    def random(self, n: int) -> np.ndarray:
        return self._fill(np.empty(n), lambda u: u)

    def choice(self, p: np.ndarray, n: int) -> np.ndarray:
        """n indices drawn with probabilities p, by inverting their CDF."""
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return self._fill(
            np.empty(n, dtype=np.int64), lambda u: cdf.searchsorted(u, side="right")
        )


def _draw_levels(rng: _Philox, spec: EnsembleSpec) -> np.ndarray:
    """The drawn level index of every sample."""
    return rng.choice(spec.probabilities, spec.n_samples)


def draw_sample_energies(spec: EnsembleSpec) -> np.ndarray:
    """The energies a run with this spec draws (same stream position as
    run_classical_ensemble's first draw)."""
    return spec.energies[_draw_levels(_Philox(spec.rng_seed), spec)]


@dataclass(frozen=True)
class EnsembleResult:
    """Streaming summary of a classical ensemble run.

    histograms[k] counts sample positions in the grid's bins (edges =
    grid points) at histogram_times[k].  sample_energies holds each
    sample's drawn energy.  energy_drift holds one value per integrated
    orbit, in launch order (level ascending, negative momentum first): the
    largest relative energy drift observed at stored slices.  Each sample
    follows its launch's orbit, so the largest entry is the largest drift
    of any sample.
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
    draws.  Histograms weight each orbit by its sample count, so they
    equal those of integrating all n_samples rows; the drift is kept per
    orbit.

    The orbits advance in lockstep through hamilton_jacobi.verlet_step
    without storing trajectories: histograms and energy drift are
    accumulated at every store_every-th step (plus the final one).
    """
    check_run_arguments(dt, n_steps, store_every)
    rng = _Philox(spec.rng_seed)
    n_levels = spec.energies.size
    launch = _draw_levels(rng, spec)
    energies = spec.energies[launch]
    v0 = potential.energy(np.zeros(n_levels), constants)
    kinetic = spec.energies - v0  # per level
    drawn = np.bincount(launch, minlength=n_levels) > 0  # per level
    if np.any(kinetic[drawn] < 0.0):
        bad = int(np.argmin(kinetic[launch]))
        raise ValueError(
            f"sample {bad}: drawn energy {energies[bad]} lies below the "
            f"potential {v0[launch[bad]]} at its launch point"
        )
    m = constants.mass
    # each sample's launch key, 2 * level + (1 if its momentum is
    # positive), written over its drawn level
    launch *= 2
    launch += rng._fill(np.empty(spec.n_samples, dtype=bool), lambda u: u >= 0.5)
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

    return EnsembleResult(
        histogram_times=hist_times,
        histograms=histograms,
        bin_edges=grid.x.copy(),
        sample_energies=energies,
        energy_drift=drift,
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
