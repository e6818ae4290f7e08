"""Superposition weights, classical ensembles, and their energy statistics."""
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
    ensemble_from_impact_parameters,
    integrate_hamilton,
    project,
    run_classical_ensemble,
)


# --- weights and superpositions -------------------------------------------


def test_weighting_normalization_and_leakage():
    w = WeightingFunction(np.array([3.0, 4.0j]))
    assert w.total_weight == pytest.approx(25.0)
    n = w.normalized()
    assert n.total_weight == pytest.approx(1.0)
    assert abs(n.leakage) < 1e-15
    with pytest.raises(ValueError, match="all-zero"):
        WeightingFunction(np.zeros(2, dtype=complex)).normalized()
    with pytest.raises(ValueError, match="1D"):
        WeightingFunction(np.zeros((2, 2), dtype=complex))


def test_superposition_roundtrips_through_projection(harmonic_pairs):
    c = WeightingFunction(
        np.array([0.5, 0.5j, -0.5, 0.0, 0.5, 0.0, 0.0, 0.0], dtype=complex)
    )
    psi = build_superposition(harmonic_pairs, c)
    assert abs(psi.norm - 1.0) < 1e-10
    back = project(psi, harmonic_pairs)
    assert np.max(np.abs(back.coefficients - c.coefficients)) < 1e-10
    assert abs(back.leakage) < 1e-10


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
    assert 0.0 < w.leakage < 1.0
    assert w.total_weight < 1.0


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


def test_impact_parameter_pushforward():
    b = np.array([0.0, 1.0, 2.0])
    p = np.array([0.2, 0.3, 0.5])
    spec = ensemble_from_impact_parameters(
        b, p, lambda bb: 0.5 + bb**2, 100, 3
    )
    assert np.allclose(spec.energies, [0.5, 1.5, 4.5])
    assert np.allclose(spec.probabilities, p)


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
    # oscillator turning points: max |x| = sqrt(2E) per sample; the
    # stored slices sample the phase every 0.05 rad, so the observed
    # maximum undershoots by at most (1 - cos(0.025)) A ~ 1e-3
    expected = np.sqrt(2.0 * result.sample_energies)
    deficit = expected - result.max_abs_position
    assert np.all(deficit > -1e-9)  # never overshoot
    assert np.max(deficit) < 2e-3


def test_energy_below_potential_at_launch_is_an_error(constants):
    spec = EnsembleSpec(np.array([0.5]), np.array([1.0]), 10, 0)
    grid = build_grid(-12.0, 12.0, 241)
    with pytest.raises(ValueError, match="below the potential"):
        run_classical_ensemble(
            spec, HarmonicPotential(1.0), grid, 1e-3, 10, constants,
            x0_rule=lambda e, rng: np.full(e.size, 3.0),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_launch_position_is_an_error(bad, constants):
    spec = EnsembleSpec(np.array([1.5]), np.array([1.0]), 10, 0)
    grid = build_grid(-12.0, 12.0, 241)

    def x0_rule(e, rng):
        x0 = np.zeros(e.size)
        x0[3] = bad
        return x0

    with pytest.raises(ValueError, match="sample 3: .*non-finite launch position"):
        run_classical_ensemble(
            spec, HarmonicPotential(1.0), grid, 1e-3, 10, constants,
            x0_rule=x0_rule,
        )


def test_launch_positions_of_the_caller_are_not_modified(constants):
    spec = EnsembleSpec(np.array([1.5]), np.array([1.0]), 200, 4)
    grid = build_grid(-12.0, 12.0, 241)
    launch = np.linspace(-1.0, 1.0, 200)
    expected = launch.copy()
    result = run_classical_ensemble(
        spec, HarmonicPotential(1.0), grid, 1e-2, 30, constants,
        x0_rule=lambda e, rng: launch,
    )
    assert np.array_equal(launch, expected)
    assert not np.array_equal(result.final_positions, expected)


_TABLE_X = build_grid(-6.0, 6.0, 241).x


@pytest.mark.parametrize(
    "potential, energies, x0_range",
    [
        (HarmonicPotential(1.0), [1.5, 2.5, 3.5], (-1.0, 1.0)),
        # launched right of the barrier: some samples cross it, some reflect
        (SmoothBarrierPotential(1.0, 0.5, 0.0), [0.5, 1.2, 2.0], (2.0, 3.0)),
        (
            TabulatedPotential(_TABLE_X, 0.5 * _TABLE_X**2 + 0.3 * np.sin(2.0 * _TABLE_X)),
            [1.0, 2.0, 3.0],
            (-0.5, 0.5),
        ),
    ],
    ids=["harmonic", "smooth-barrier", "tabulated"],
)
def test_ensemble_orbits_equal_integrate_hamilton_bitwise(
    potential, energies, x0_range, constants
):
    # the ensemble's in-place Verlet loop must reproduce verlet_step,
    # the kernel of integrate_hamilton, bit for bit
    spec = EnsembleSpec(np.array(energies), np.full(3, 1.0 / 3.0), 64, 19)
    grid = build_grid(-8.0, 8.0, 161)
    dt, n_steps = 1e-2, 300

    def x0_rule(e, rng):
        return rng.uniform(*x0_range, size=e.size)

    result = run_classical_ensemble(
        spec, potential, grid, dt, n_steps, constants, x0_rule=x0_rule,
        store_every=50,
    )
    # the documented draw order: energies, then x0_rule, then signs
    rng = np.random.Generator(np.random.Philox(spec.rng_seed))
    drawn = spec.energies[rng.choice(3, size=spec.n_samples, p=spec.probabilities)]
    x0 = x0_rule(drawn, rng)
    signs = np.where(rng.random(spec.n_samples) < 0.5, -1.0, 1.0)
    kinetic = drawn - potential.energy(x0, constants)
    p0 = signs * np.sqrt(2.0 * constants.mass * kinetic)

    traj = integrate_hamilton(potential, x0, p0, dt, n_steps, constants)
    assert np.array_equal(result.sample_energies, drawn)
    assert np.array_equal(result.final_positions, traj.positions[-1])
    assert np.array_equal(result.final_momenta, traj.momenta[-1])


@pytest.mark.parametrize(
    "potential",
    [
        HarmonicPotential(1.0),
        TabulatedPotential(_TABLE_X, 0.5 * _TABLE_X**2 + 0.3 * np.sin(2.0 * _TABLE_X)),
    ],
    ids=["harmonic", "tabulated"],
)
def test_repeated_launches_equal_one_integrate_hamilton_per_state(potential, constants):
    # default x0_rule: every sample starts at x = 0, so the 2000 samples
    # share at most 6 launch states; each state's scalar orbit is the
    # reference for every sample that starts there
    spec = EnsembleSpec(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.3, 0.5]), 2000, 23)
    grid = build_grid(-6.0, 6.0, 241)
    dt, n_steps, store_every = 1e-2, 300, 50
    result = run_classical_ensemble(
        spec, potential, grid, dt, n_steps, constants, store_every=store_every
    )
    # the documented draw order without an x0_rule: energies, then signs
    rng = np.random.Generator(np.random.Philox(spec.rng_seed))
    drawn = spec.energies[rng.choice(3, size=spec.n_samples, p=spec.probabilities)]
    signs = np.where(rng.random(spec.n_samples) < 0.5, -1.0, 1.0)
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
    momenta = np.array([orbits[p].momenta for p in p0.tolist()]).T

    assert np.array_equal(result.final_positions, positions[-1])
    assert np.array_equal(result.final_momenta, momenta[-1])
    x_s, p_s = positions[stored], momenta[stored]
    h = p_s * p_s / (2.0 * constants.mass) + potential.energy(x_s, constants)
    assert np.array_equal(result.energy_drift, np.max(np.abs(h - h[0]) / np.abs(h[0]), axis=0))
    assert np.array_equal(result.max_abs_position, np.max(np.abs(x_s), axis=0))
    assert result.histograms.dtype == np.int64
    assert len(result.histograms) == len(stored)
    for hist, x in zip(result.histograms, x_s):
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
