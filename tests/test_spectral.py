"""Eigensolver behavior: the tridiagonal contract and physical Hamiltonians.

The contract of `tridiagonal.lowest_eigenpairs` is checked against a
dense `np.linalg.eigh`, which shares no code path with LAPACK's
tridiagonal bisection.  The box spectrum is the sharpest oracle on the
physical side: for V = 0 with walls at the grid ends, the discrete
eigenvalues are known in closed form (eigenvalues of the Dirichlet
second-difference matrix), so the solver must reproduce them essentially
to rounding, not just to O(dx^2).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import (
    EigensolverError,
    HarmonicPotential,
    InfiniteWellPotential,
    SmoothBarrierPotential,
    TabulatedPotential,
    assemble_hamiltonian,
    build_grid,
    hamiltonian_from_values,
    plane_wave,
    solve_lowest_eigenpairs,
    stationary_scattering_state,
)
from qclab.states import harmonic_eigenfunction
from qclab.tridiagonal import lowest_eigenpairs

EPS = np.finfo(float).eps


def _max_residual(diag, off, values, vectors):
    """max |T v_j - lambda_j v_j| over the returned pairs."""
    t_v = diag[:, None] * vectors
    t_v[1:] += off * vectors[:-1]
    t_v[:-1] += off * vectors[1:]
    return np.max(np.abs(t_v - values * vectors))


# --- tridiagonal.lowest_eigenpairs contract ----------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(8, 40),
    off=st.floats(-3.0, 3.0).filter(lambda e: abs(e) > 1e-3),
    seed=st.integers(0, 2**31),
)
def test_lowest_eigenpairs_match_dense_eigh(n, off, seed):
    diag = np.random.default_rng(seed).uniform(-5.0, 5.0, n)
    k = min(4, n)
    result = lowest_eigenpairs(diag, off, k)
    dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    ref_vals, ref_vecs = np.linalg.eigh(dense)
    scale = np.max(np.abs(diag)) + 2.0 * abs(off)
    assert np.allclose(result.eigenvalues, ref_vals[:k], rtol=0.0, atol=1e-9 * scale)
    for j in range(k):
        # sign-free comparison; degenerate clusters would rotate, but a
        # random diagonal keeps the spectrum simple
        overlap = abs(result.eigenvectors[:, j] @ ref_vecs[:, j])
        assert overlap >= 1.0 - 1e-8


def test_eigenvectors_are_orthonormal_and_low_residual():
    rng = np.random.default_rng(3)
    diag = rng.uniform(0.0, 8.0, 120)
    off = -2.25
    k = 6
    result = lowest_eigenpairs(diag, off, k)
    gram = result.eigenvectors.T @ result.eigenvectors
    assert np.max(np.abs(gram - np.eye(k))) < 1e-10
    scale = np.max(np.abs(diag)) + 2.0 * abs(off)
    residual = _max_residual(diag, off, result.eigenvalues, result.eigenvectors)
    assert residual <= 20 * EPS * scale


def test_residual_reaches_the_roundoff_floor():
    # a few eps |T| at sizes up to a fine physical grid; the Rayleigh
    # quotient sharpens eigenvalues that bisection leaves eps |T| wide
    for seed, n, off, k in [(0, 400, 1.3, 5), (11, 2399, -5000.0, 8)]:
        diag = np.random.default_rng(seed).uniform(-4.0, 4.0, n)
        result = lowest_eigenpairs(diag, off, k)
        scale = np.max(np.abs(diag)) + 2.0 * abs(off)
        residual = _max_residual(diag, off, result.eigenvalues, result.eigenvectors)
        assert residual <= 20 * EPS * scale
        gram = result.eigenvectors.T @ result.eigenvectors
        assert np.max(np.abs(gram - np.eye(k))) < 1e-10


def test_low_eigenvalues_are_relatively_accurate():
    # bisection alone resolves eigenvalues to eps |T| absolute, ~1e-10 of
    # the lowest Dirichlet level at n = 2001; the Rayleigh quotient of the
    # eigenvector is accurate to the square of its error and gets them to
    # a few 1e-14 relative.  Closed form: 4 sin^2(j pi / (2 (n + 1))).
    n = 2001
    result = lowest_eigenpairs(np.full(n, 2.0), -1.0, 5)
    exact = 4.0 * np.sin(np.arange(1, 6) * np.pi / (2 * (n + 1))) ** 2
    assert np.max(np.abs(result.eigenvalues / exact - 1.0)) < 1e-12


def test_eigenvalues_ascend_through_degenerate_doublets():
    # a deep double well splits its doublets far below eps |T|, so the
    # two Rayleigh quotients of a doublet can come out in either order
    dx = 0.01
    x = np.linspace(-4.0, 4.0, 801)[1:-1]
    diag = 1.0 / dx**2 + 150.0 * ((x / 2.0) ** 2 - 1.0) ** 2
    result = lowest_eigenpairs(diag, -0.5 / dx**2, 6)
    assert np.all(np.diff(result.eigenvalues) >= 0.0)
    gram = result.eigenvectors.T @ result.eigenvectors
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_lapack_failure_raises_eigensolver_error(monkeypatch):
    import qclab.lapack

    real_dstein = qclab.lapack.dstein

    def failing_dstein(*args):
        vectors, _ = real_dstein(*args)
        return vectors, 1

    # the solver looks dstein up on qclab.lapack on each call
    monkeypatch.setattr(qclab.lapack, "dstein", failing_dstein)
    with pytest.raises(EigensolverError, match="1 eigenvectors failed"):
        lowest_eigenpairs(np.arange(5.0), 1.0, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected_before_lapack(bad):
    # dstebz itself would return no eigenvalues and info 4, not an error
    diag = np.arange(5.0)
    diag[2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        lowest_eigenpairs(diag, 1.0, 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        lowest_eigenpairs(np.arange(5.0), bad, 2)


def test_single_interior_point_is_its_own_eigenpair(constants):
    # a 1x1 matrix reaches LAPACK with an empty off-diagonal
    grid = build_grid(-1.0, 1.0, 3)
    h = assemble_hamiltonian(HarmonicPotential(1.0), grid, constants)
    (pair,) = solve_lowest_eigenpairs(h, 1)
    assert pair.energy == h.diagonal[1] == 1.0
    assert np.array_equal(pair.state.values, [0.0, 1.0, 0.0])


def test_requesting_too_many_pairs_fails_loudly():
    with pytest.raises(ValueError):
        lowest_eigenpairs(np.arange(5.0), 1.0, 6)
    with pytest.raises(ValueError):
        lowest_eigenpairs(np.arange(5.0), 1.0, 0)


# --- physical Hamiltonians ----------------------------------------------------


def test_box_levels_match_the_discrete_closed_form(constants):
    grid = build_grid(0.0, 10.0, 251)
    h = assemble_hamiltonian(InfiniteWellPotential(), grid, constants)
    pairs = solve_lowest_eigenpairs(h, 6)
    n_int = grid.n_points - 2
    scale = constants.hbar**2 / (constants.mass * grid.dx**2)
    for j, pair in enumerate(pairs):
        exact = scale * (1.0 - np.cos((j + 1) * np.pi / (n_int + 1)))
        assert abs(pair.energy - exact) <= 1e-12 * scale


def test_box_states_match_discrete_sines(constants):
    grid = build_grid(0.0, 10.0, 151)
    h = assemble_hamiltonian(InfiniteWellPotential(), grid, constants)
    pairs = solve_lowest_eigenpairs(h, 3)
    n_int = grid.n_points - 2
    i = np.arange(1, grid.n_points - 1)
    for j, pair in enumerate(pairs):
        mode = np.zeros(grid.n_points)
        mode[1:-1] = np.sin((j + 1) * np.pi * i / (n_int + 1))
        mode /= np.sqrt(np.trapezoid(mode**2, dx=grid.dx))
        overlap = abs(np.trapezoid(pair.state.values.real * mode, dx=grid.dx))
        assert overlap >= 1.0 - 1e-12


def test_harmonic_levels_carry_the_known_stencil_defect(harmonic_pairs):
    # second-order perturbation of the contracted Laplacian:
    # H_dx = p^2/2 - (dx^2/24) p^4 + O(dx^4)  (hbar = m = omega = 1)
    # <n|p^4|n> = 3(2n^2+2n+1)/4  =>  E_n(dx) - (n+1/2) ~ -dx^2 (2n^2+2n+1)/32
    dx = 0.01
    for n, pair in enumerate(harmonic_pairs[:5]):
        predicted = -(dx**2) * (2 * n * n + 2 * n + 1) / 32.0
        assert pair.energy - (n + 0.5) == pytest.approx(predicted, abs=1e-7)


def test_eigenbasis_is_orthonormal_under_trapezoid(harmonic_pairs):
    k = len(harmonic_pairs)
    gram = np.array(
        [
            [harmonic_pairs[i].state.inner(harmonic_pairs[j].state) for j in range(k)]
            for i in range(k)
        ]
    )
    assert np.max(np.abs(gram - np.eye(k))) < 1e-12


def test_solver_states_match_analytic_oscillator_states(
    harmonic_pairs, harmonic_grid, constants
):
    for n in (0, 1, 4, 7):
        exact = harmonic_eigenfunction(n, harmonic_grid, 1.0, constants)
        overlap = abs(harmonic_pairs[n].state.inner(exact))
        assert overlap >= 1.0 - 1e-7


def test_double_well_doublet_stays_orthogonal(constants):
    # deep quartic double well: the lowest two levels are split only by
    # tunnelling, which exercises the clustered-eigenvalue path.  The
    # doublet is degenerate to solver precision, so individual vectors
    # may be any rotation within the 2D eigenspace — what must hold is
    # orthonormality and that the span is closed under reflection.
    grid = build_grid(-4.0, 4.0, 1601)
    v = 30.0 * ((grid.x / 2.0) ** 2 - 1.0) ** 2
    h = assemble_hamiltonian(TabulatedPotential(grid.x, v), grid, constants)
    with pytest.warns(UserWarning, match="not decayed at the grid edges"):
        pairs = solve_lowest_eigenpairs(h, 2)
    assert abs(pairs[1].energy - pairs[0].energy) < 1e-3
    assert abs(pairs[0].state.inner(pairs[1].state)) < 1e-10
    v0 = pairs[0].state.values.real
    v1 = pairs[1].state.values.real
    dx = grid.dx
    mirrored = v0[::-1]
    outside = mirrored - (
        np.trapezoid(v0 * mirrored, dx=dx) * v0
        + np.trapezoid(v1 * mirrored, dx=dx) * v1
    )
    assert np.max(np.abs(outside)) < 1e-6 * np.max(np.abs(v0))


def test_eigen_energy_rayleigh_consistency(harmonic_pairs, harmonic_grid, constants):
    h = assemble_hamiltonian(HarmonicPotential(1.0), harmonic_grid, constants)
    pair = harmonic_pairs[2]
    psi = pair.state.values.real
    num = np.trapezoid(psi * h.apply(psi), dx=harmonic_grid.dx)
    den = np.trapezoid(psi * psi, dx=harmonic_grid.dx)
    assert num / den == pytest.approx(pair.energy, rel=1e-12)


def test_requesting_more_pairs_than_interior_points_errors(constants):
    grid = build_grid(-1.0, 1.0, 6)
    h = assemble_hamiltonian(HarmonicPotential(1.0), grid, constants)
    with pytest.raises(ValueError):
        solve_lowest_eigenpairs(h, 5)


def test_scattering_state_reduces_to_plane_wave_without_a_barrier(constants):
    # Numerov with V = 0 must track exp(ikx) to its O(dx^4) accuracy
    grid = build_grid(-20.0, 20.0, 4001)
    psi = stationary_scattering_state(
        SmoothBarrierPotential(1e-12, 1.0, 0.0), grid, 0.5, constants
    )
    ref = plane_wave(grid, 0.5, constants)
    # global phase alignment at the seeded end
    rel = psi.values * np.conj(ref.values)
    assert np.max(np.abs(np.abs(psi.values) - 1.0)) < 1e-6
    assert np.max(np.abs(np.angle(rel * np.conj(rel[0])))) < 1e-4


def test_scattering_requires_energy_above_the_barrier(constants):
    grid = build_grid(-10.0, 10.0, 801)
    with pytest.raises(ValueError, match="energy"):
        stationary_scattering_state(
            SmoothBarrierPotential(2.0, 1.0, 0.0), grid, 1.0, constants
        )


def test_hamiltonian_apply_matches_dense_matvec(constants):
    grid = build_grid(-5.0, 5.0, 101)
    h = assemble_hamiltonian(HarmonicPotential(1.3), grid, constants)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(grid.n_points)
    dense = (
        np.diag(h.diagonal)
        + np.diag(np.full(grid.n_points - 1, h.off_diagonal), 1)
        + np.diag(np.full(grid.n_points - 1, h.off_diagonal), -1)
    )
    assert np.allclose(h.apply(v), dense @ v, atol=1e-12)
    v_vals = HarmonicPotential(1.3).on_grid(grid, constants)
    kinetic_scale = constants.hbar**2 / (constants.mass * grid.dx**2)
    assert np.allclose(h.diagonal, kinetic_scale + v_vals)
    assert h.off_diagonal == pytest.approx(-kinetic_scale / 2.0)


def test_pointwise_residual_meets_headline_budget(constants):
    # max |(H psi)_i - E psi_i| < 1e-8 max |psi_i| on interior rows, for
    # every returned pair, on grids fine enough to stress the solver but
    # coarse enough that the bound is above the eps |H| ||psi||_2 floor
    cases = []
    g = build_grid(-12.0, 12.0, 4801)
    cases.append((assemble_hamiltonian(HarmonicPotential(1.0), g, constants), g, 8))
    g = build_grid(-8.0, 8.0, 3201)
    v = 0.25 * (g.x**2 - 4.0) ** 2
    cases.append((hamiltonian_from_values(v, g, constants), g, 6))
    for h, grid, k in cases:
        for pair in solve_lowest_eigenpairs(h, k):
            u = pair.state.values.real
            resid = np.abs(h.apply(u) - pair.energy * u)[1:-1]
            assert np.max(resid) < 1e-8 * np.max(np.abs(u))


def test_box_residual_sits_on_the_roundoff_floor(constants):
    # A unit box on 2001 points puts |H| near 8e6, so eps |H| ||u||_2
    # alone is ~3.6e-8 ||u||_inf: no solver can reach 1e-8 max|psi| here.
    # Pin the achievable contract instead: inside the documented floor,
    # and within a small factor of what an independent dense solver
    # (np.linalg.eigh on the full interior matrix, not the solver's own
    # LAPACK tridiagonal routines) leaves on the same matrix.  At this
    # size the solver's worst residual is ~5x the dense one, so 10x
    # keeps a margin while still catching a solver that loses digits.
    grid = build_grid(0.0, 1.0, 2001)
    h = hamiltonian_from_values(np.zeros(grid.n_points), grid, constants)
    pairs = solve_lowest_eigenpairs(h, 3)
    h_scale = np.max(np.abs(h.diagonal)) + 2.0 * abs(h.off_diagonal)
    floor = 500.0 * np.finfo(float).eps * h_scale / np.sqrt(grid.dx)

    d = h.diagonal[1:-1]
    dense = np.diag(d) + h.off_diagonal * (np.eye(d.size, k=1) + np.eye(d.size, k=-1))
    ref_vals, ref_vecs = np.linalg.eigh(dense)
    worst_dense = 0.0
    for j in range(3):
        w = ref_vecs[:, j] / np.sqrt(grid.dx)  # match trapezoid scaling
        t_w = d * w
        t_w[1:] += h.off_diagonal * w[:-1]
        t_w[:-1] += h.off_diagonal * w[1:]
        worst_dense = max(worst_dense, np.max(np.abs(t_w - ref_vals[j] * w)))

    for pair in pairs:
        u = pair.state.values.real
        resid = np.max(np.abs(h.apply(u) - pair.energy * u)[1:-1])
        assert resid < floor
        assert resid < 10.0 * worst_dense
