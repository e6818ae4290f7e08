"""Superposition weights, classical ensembles, and their energy statistics."""
import tracemalloc

import numpy as np
import pytest

from qclab import (
    EnsembleSpec,
    HarmonicPotential,
    SmoothBarrierPotential,
    TabulatedPotential,
    WeightingFunction,
    build_grid,
    build_superposition,
    compare_energy_statistics,
    draw_sample_energies,
    energy_distribution,
    gaussian_weights,
    integrate_hamilton,
    project,
    run_classical_ensemble,
)
from qclab.ensemble import _CHUNK_BLOCKS, _Philox


# --- weights and superpositions -------------------------------------------


def test_weighting_normalization_and_leakage():
    w = WeightingFunction(np.array([3.0, 4.0j]))
    assert w.total_weight == pytest.approx(25.0)
    n = w.normalized()
    assert n.total_weight == pytest.approx(1.0)
    assert abs(1.0 - n.total_weight) < 1e-15
    with pytest.raises(ValueError, match="all-zero"):
        WeightingFunction(np.zeros(2, dtype=complex)).normalized()
    with pytest.raises(ValueError, match="1D"):
        WeightingFunction(np.zeros((2, 2), dtype=complex))


def test_gaussian_weights_put_the_width_on_the_probabilities():
    energies = np.arange(8) + 0.5
    weights = gaussian_weights(energies, 4.0, 1.5)
    raw = np.exp(-((energies - 4.0) ** 2) / (2.0 * 1.5**2))
    assert weights.coefficients.tobytes() == np.sqrt(raw / raw.sum()).astype(complex).tobytes()
    assert np.abs(weights.coefficients) ** 2 == pytest.approx(raw / raw.sum(), rel=1e-15)
    # a vanishing total is refused, not turned into NaN weights
    for mean, sigma in [(100.0, 0.1), (1e308, 1.5), (4.5, 1e-200)]:
        with pytest.raises(ValueError, match="weight of every level"):
            gaussian_weights(energies, mean, sigma)


def test_superposition_roundtrips_through_projection(harmonic_pairs):
    c = WeightingFunction(
        np.array([0.5, 0.5j, -0.5, 0.0, 0.5, 0.0, 0.0, 0.0], dtype=complex)
    )
    psi = build_superposition(harmonic_pairs, c)
    assert abs(psi.norm - 1.0) < 1e-10
    back = project(psi, harmonic_pairs)
    assert np.max(np.abs(back.coefficients - c.coefficients)) < 1e-10
    assert abs(1.0 - back.total_weight) < 1e-10


def test_superposition_requires_unit_weight(harmonic_pairs):
    lopsided = WeightingFunction(np.full(8, 0.5, dtype=complex))
    with pytest.raises(ValueError, match="unit total weight"):
        build_superposition(harmonic_pairs, lopsided)
    short = WeightingFunction(np.array([1.0 + 0.0j]))
    with pytest.raises(ValueError, match="basis size"):
        build_superposition(harmonic_pairs, short)


def test_projection_of_outside_state_reports_leakage(harmonic_pairs, constants):
    # a packet displaced far out has weight beyond the first 8 levels
    from qclab import gaussian_packet

    grid = harmonic_pairs[0].state.grid
    psi = gaussian_packet(grid, 4.0, 0.0, 2.0**-0.5, constants)
    w = project(psi, harmonic_pairs)
    assert 0.0 < w.total_weight < 1.0


def test_energy_distribution_matches_pairs(harmonic_pairs):
    c = WeightingFunction(
        np.array([0.6, 0.8j] + [0.0] * 6, dtype=complex)
    )
    dist = energy_distribution(c, harmonic_pairs)
    assert len(dist) == 8
    assert dist[0][0] == pytest.approx(0.5, abs=1e-4)
    assert dist[0][1] == pytest.approx(0.36)
    assert dist[1][1] == pytest.approx(0.64)
    assert sum(p for _, p in dist) == pytest.approx(1.0)


# --- ensemble specification and sampling ----------------------------------


def test_spec_validation():
    e = np.array([0.5, 1.5])
    with pytest.raises(ValueError, match="sum to 1"):
        EnsembleSpec(e, np.array([0.6, 0.6]), 10, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        EnsembleSpec(e, np.array([1.5, -0.5]), 10, 0)
    with pytest.raises(ValueError, match="equal-length"):
        EnsembleSpec(e, np.array([1.0]), 10, 0)
    with pytest.raises(ValueError, match="n_samples"):
        EnsembleSpec(e, np.array([0.5, 0.5]), 0, 0)
    for bad_e, bad_p in [([0.5, np.nan], [0.5, 0.5]), ([0.5, np.inf], [0.5, 0.5]),
                         ([0.5, 1.5], [np.nan, 1.0])]:
        with pytest.raises(ValueError, match="must be finite"):
            EnsembleSpec(np.array(bad_e), np.array(bad_p), 10, 0)
    # a negative seed has no SeedSequence words; a float or bool is no seed
    for bad_seed in (-1, -(2**70), 1.5, 3.0, "3", True, None):
        with pytest.raises(ValueError, match="rng_seed must be a nonnegative integer"):
            EnsembleSpec(e, np.array([0.5, 0.5]), 10, bad_seed)
    seed = EnsembleSpec(e, np.array([0.5, 0.5]), 10, np.uint32(7)).rng_seed
    assert type(seed) is int and seed == 7


@pytest.mark.parametrize("seed", [0, 3, 20260814, 2**32 + 5, 2**70 + 123, 2**160 + 7])
def test_the_draws_are_numpy_random_philoxs_bit_for_bit(seed):
    # numpy.random is the reference here, as scipy is for qclab.lapack.  The
    # pairs follow the ensemble's draw order, levels then signs; counts that
    # are not a multiple of 4 carry a block's spare words into the next draw,
    # and 4 * _CHUNK_BLOCKS + 3 words span two chunks
    p = np.array([0.1, 0.25, 0.05, 0.6])
    reference = np.random.Generator(np.random.Philox(seed))
    ours = _Philox(seed)
    for n in (1, 7, 3, 4 * _CHUNK_BLOCKS + 3, 1, 6):
        expected, drawn = reference.choice(p.size, size=n, p=p), ours.choice(p, n)
        assert drawn.dtype == expected.dtype == np.int64
        assert np.array_equal(drawn, expected)
        expected, drawn = reference.random(n), ours.random(n)
        assert drawn.dtype == expected.dtype and drawn.tobytes() == expected.tobytes()


def test_sampling_is_deterministic_per_seed():
    spec = EnsembleSpec(
        np.arange(8) + 0.5, np.full(8, 0.125), 50_000, rng_seed=31
    )
    a = draw_sample_energies(spec)
    b = draw_sample_energies(spec)
    assert np.array_equal(a, b)
    other = EnsembleSpec(
        np.arange(8) + 0.5, np.full(8, 0.125), 50_000, rng_seed=32
    )
    assert not np.array_equal(a, draw_sample_energies(other))


def test_run_consumes_the_same_energy_draw(constants):
    # the runner's first stream draw is the energy sample: the standalone
    # draw must reproduce it exactly
    spec = EnsembleSpec(np.array([0.5, 2.5]), np.array([0.5, 0.5]), 2000, 7)
    grid = build_grid(-12.0, 12.0, 241)
    result = run_classical_ensemble(
        spec, HarmonicPotential(1.0), grid, 1e-2, 50, constants
    )
    assert np.array_equal(result.sample_energies, draw_sample_energies(spec))


# --- running ensembles -----------------------------------------------------


def test_launch_conserves_each_sample_energy(constants):
    spec = EnsembleSpec(
        np.arange(4) + 0.5, np.full(4, 0.25), 5000, rng_seed=11
    )
    grid = build_grid(-12.0, 12.0, 241)
    result = run_classical_ensemble(
        spec, HarmonicPotential(1.0), grid, 1e-3, 6283, constants,
        store_every=50,
    )
    assert np.max(result.energy_drift) < 1e-5


def test_energy_below_potential_at_launch_is_an_error(constants):
    # every sample launches at x = 0, the top of this barrier
    spec = EnsembleSpec(np.array([0.5]), np.array([1.0]), 10, 0)
    grid = build_grid(-12.0, 12.0, 241)
    with pytest.raises(ValueError, match="below the potential 1.0 at its launch"):
        run_classical_ensemble(
            spec, SmoothBarrierPotential(1.0, 0.5, 0.0), grid, 1e-3, 10, constants
        )


def test_the_error_names_the_first_sample_drawn_below_the_potential(constants):
    # only the first level lies below V(0) = 1.0; the error names the first
    # sample that drew it
    spec = EnsembleSpec(np.array([3.0, 0.5]), np.array([0.9, 0.1]), 1000, 4)
    bad = int(np.argmax(draw_sample_energies(spec) == 0.5))
    assert bad > 0
    grid = build_grid(-12.0, 12.0, 241)
    with pytest.raises(
        ValueError,
        match=rf"^sample {bad}: drawn energy 0.5 lies below the potential 1.0 at",
    ):
        run_classical_ensemble(
            spec, SmoothBarrierPotential(1.0, 0.5, 0.0), grid, 1e-3, 10, constants
        )


def test_a_large_ensemble_holds_its_outputs_and_the_draw(constants):
    n = 100_000
    spec = EnsembleSpec(np.arange(8) + 0.5, np.full(8, 0.125), n, 3)
    grid = build_grid(-12.0, 12.0, 241)
    args = (HarmonicPotential(1.0), grid, 1e-3, 10, constants)
    # a first run settles the process's one-off allocations (a few kB: the
    # draw is numpy code and loads no numpy.random)
    run_classical_ensemble(EnsembleSpec(spec.energies, spec.probabilities, 10, 3), *args)
    tracemalloc.start()
    try:
        result = run_classical_ensemble(spec, *args, store_every=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.sample_energies.size == n
    assert result.energy_drift.size == 16  # one per orbit: 8 levels, 2 signs
    # the returned energy column, each sample's launch key and its sign
    # booleans, 2.125 x n x 8 B, plus the generator's working set, a
    # bounded chunk of blocks (~0.63 MB) whatever n is
    assert peak < 2.125 * n * 8 + 7e5


def test_stored_histograms_are_held_once(constants):
    spec = EnsembleSpec(np.array([0.5, 1.5]), np.array([0.5, 0.5]), 4, 3)
    grid = build_grid(-12.0, 12.0, 2401)
    args = (HarmonicPotential(1.0), grid, 1e-2, 640, constants)
    # a first run settles the process's one-off allocations
    run_classical_ensemble(spec, *args, store_every=10)
    tracemalloc.start()
    try:
        result = run_classical_ensemble(spec, *args, store_every=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.histograms.shape == (65, 2400)
    # the 65 x 2400 int64 histograms (1.25 MB), filled in place, plus
    # per-step temporaries of a few grid lengths
    assert peak < 1.5 * result.histograms.nbytes


_TABLE_X = build_grid(-6.0, 6.0, 241).x


@pytest.mark.parametrize(
    "potential",
    [
        HarmonicPotential(1.0),
        # off-centre barrier: right-movers at E = 1 reflect, at E = 2, 3 cross
        SmoothBarrierPotential(1.5, 0.5, 1.0),
        TabulatedPotential(_TABLE_X, 0.5 * _TABLE_X**2 + 0.3 * np.sin(2.0 * _TABLE_X)),
    ],
    ids=["harmonic", "smooth-barrier", "tabulated"],
)
def test_repeated_launches_equal_one_integrate_hamilton_per_state(potential, constants):
    # every sample starts at x = 0, so the 2000 samples share at most 6
    # launch states; each state's scalar orbit is the reference for every
    # sample that starts there
    spec = EnsembleSpec(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.3, 0.5]), 2000, 23)
    grid = build_grid(-6.0, 6.0, 241)
    dt, n_steps, store_every = 1e-2, 300, 50
    result = run_classical_ensemble(
        spec, potential, grid, dt, n_steps, constants, store_every=store_every
    )
    # the documented draw order: energies, then signs
    rng = np.random.Generator(np.random.Philox(spec.rng_seed))
    levels = rng.choice(3, size=spec.n_samples, p=spec.probabilities)
    drawn = spec.energies[levels]
    positive = rng.random(spec.n_samples) >= 0.5
    signs = np.where(positive, 1.0, -1.0)
    v0 = potential.energy(0.0, constants)
    p0 = signs * np.sqrt(2.0 * constants.mass * (drawn - v0))

    stored = [0] + [
        k for k in range(1, n_steps + 1) if k % store_every == 0 or k == n_steps
    ]
    orbits = {}
    for p in p0.tolist():
        if p not in orbits:
            orbits[p] = integrate_hamilton(potential, 0.0, p, dt, n_steps, constants)
    assert len(orbits) == 6
    positions = np.array([orbits[p].positions for p in p0.tolist()]).T

    # one drift per orbit, in launch order: level ascending, negative
    # momentum first
    launches = dict(zip(zip(levels.tolist(), positive.tolist()), p0.tolist()))
    launch_p = [launches[key] for key in sorted(launches)]
    x_o = np.array([orbits[p].positions for p in launch_p]).T[stored]
    p_o = np.array([orbits[p].momenta for p in launch_p]).T[stored]
    h = p_o * p_o / (2.0 * constants.mass) + potential.energy(x_o, constants)
    assert np.array_equal(result.energy_drift, np.max(np.abs(h - h[0]) / np.abs(h[0]), axis=0))
    assert result.histograms.dtype == np.int64
    assert len(result.histograms) == len(stored)
    for hist, x in zip(result.histograms, positions[stored]):
        assert np.array_equal(hist, np.histogram(x, bins=grid.x)[0])


def test_histograms_count_every_sample(constants):
    spec = EnsembleSpec(np.array([1.5]), np.array([1.0]), 3000, 5)
    grid = build_grid(-12.0, 12.0, 241)
    result = run_classical_ensemble(
        spec, HarmonicPotential(1.0), grid, 1e-2, 40, constants,
        store_every=10,
    )
    assert result.histograms.shape == (5, grid.n_points - 1)
    assert np.all(result.histograms.sum(axis=1) == 3000)
    assert result.histogram_times[0] == 0.0
    assert result.histogram_times[-1] == pytest.approx(0.4)


# --- comparing the two sides ----------------------------------------------


def test_tv_distance_vanishes_for_a_faithful_construction():
    # samples laid out *exactly* at the target frequencies: TV = 0
    levels = [(0.5, 0.25), (1.5, 0.5), (2.5, 0.25)]
    energies = np.concatenate(
        [np.full(25, 0.5), np.full(50, 1.5), np.full(25, 2.5)]
    )
    assert compare_energy_statistics(levels, energies) == 0.0


def test_tv_distance_is_one_for_disjoint_statistics():
    levels = [(0.5, 1.0), (10.5, 0.0)]
    energies = np.full(40, 10.5)
    assert compare_energy_statistics(levels, energies) == 1.0


def test_tv_distance_for_matched_sampling_scales_as_root_n():
    levels = [(e + 0.5, 0.125) for e in range(8)]
    spec = EnsembleSpec(
        np.arange(8) + 0.5, np.full(8, 0.125), 100_000, rng_seed=20260814
    )
    tv = compare_energy_statistics(levels, draw_sample_energies(spec))
    assert tv < 0.01  # sampling noise ~ sqrt(k/n) ~ 3e-3


def test_tv_distance_rejects_empty_ensembles():
    with pytest.raises(ValueError, match="empty"):
        compare_energy_statistics([(0.5, 1.0)], np.array([]))


def test_nearest_level_assignment_is_by_midpoint():
    levels = [(0.0, 0.5), (1.0, 0.5)]
    # 0.49 goes to level 0; 0.51 to level 1
    tv = compare_energy_statistics(levels, np.array([0.49, 0.51]))
    assert tv == 0.0
