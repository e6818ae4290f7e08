"""Cross-checks of the in-package tridiagonal solver against scipy.

scipy is the independent oracle here; production code must go through
`lowest_eigenpairs` so that the solve itself stays self-contained.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, solve_banded

from qclab.tridiagonal import lowest_eigenpairs, solve_shifted, sturm_count


def _reference_spectrum(diag, off):
    return eigh_tridiagonal(np.asarray(diag, float), np.full(len(diag) - 1, off))


def test_sturm_count_agrees_with_reference_spectrum():
    rng = np.random.default_rng(7)
    diag = rng.uniform(-3.0, 3.0, 40)
    off = 0.8
    evals = _reference_spectrum(diag, off)[0]
    for sigma in rng.uniform(-6.0, 6.0, 25):
        assert sturm_count(diag, off, sigma) == int(np.sum(evals < sigma))


def test_sturm_count_brackets_are_monotone():
    rng = np.random.default_rng(11)
    diag = rng.uniform(0.0, 10.0, 25)
    sigmas = np.linspace(-1.0, 12.0, 40)
    counts = [sturm_count(diag, -1.1, s) for s in sigmas]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == 25


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(8, 40),
    off=st.floats(-3.0, 3.0).filter(lambda e: abs(e) > 1e-3),
    seed=st.integers(0, 2**31),
)
# a near-singular shift drives the iterate's sum of squares past the
# float range; the solver must rescale instead of overflowing
@example(n=17, off=2.5889870457510002, seed=409348093)
def test_lowest_eigenvalues_match_scipy(n, off, seed):
    diag = np.random.default_rng(seed).uniform(-5.0, 5.0, n)
    k = min(4, n)
    result = lowest_eigenpairs(diag, off, k)
    ref_vals, ref_vecs = _reference_spectrum(diag, off)
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
    vecs = result.eigenvectors
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(k))) < 1e-10
    scale = np.max(np.abs(diag)) + 2.0 * abs(off)
    eps = np.finfo(float).eps
    for j in range(k):
        v = vecs[:, j]
        t_v = diag * v
        t_v[1:] += off * v[:-1]
        t_v[:-1] += off * v[1:]
        assert np.max(np.abs(t_v - result.eigenvalues[j] * v)) <= 20 * eps * scale


def test_rayleigh_polish_reaches_the_roundoff_floor():
    # inverse iteration at the fixed bisection shift plateaus near
    # 10^2 eps |T|; the closing Rayleigh-shift solves must land within a
    # few eps |T| (measured 0.2-3 eps across these sizes)
    eps = np.finfo(float).eps
    for seed, n, off, k in [(0, 400, 1.3, 5), (11, 2399, -5000.0, 8)]:
        diag = np.random.default_rng(seed).uniform(-4.0, 4.0, n)
        result = lowest_eigenpairs(diag, off, k)
        scale = np.max(np.abs(diag)) + 2.0 * abs(off)
        for j in range(k):
            v = result.eigenvectors[:, j]
            t_v = diag * v
            t_v[1:] += off * v[:-1]
            t_v[:-1] += off * v[1:]
            residual = np.max(np.abs(t_v - result.eigenvalues[j] * v))
            assert residual <= 20 * eps * scale
        gram = result.eigenvectors.T @ result.eigenvectors
        assert np.max(np.abs(gram - np.eye(k))) < 1e-10


def test_solve_shifted_matches_banded_oracle():
    rng = np.random.default_rng(19)
    n, off = 50, 1.7
    diag = rng.uniform(-4.0, 4.0, n)
    rhs = rng.standard_normal(n)
    sigma = 0.3
    x = solve_shifted(diag, off, sigma, rhs)
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1] = diag - sigma
    ab[2, :-1] = off
    ref = solve_banded((1, 1), ab, rhs)
    assert np.allclose(x, ref, rtol=0.0, atol=1e-10 * np.max(np.abs(ref)))


def test_solve_shifted_survives_near_singular_shift():
    # shift right on top of an eigenvalue: the solve must not produce
    # NaN/inf — inverse iteration relies on the amplified solution
    diag = np.full(30, 2.0)
    off = -1.0
    evals = _reference_spectrum(diag, off)[0]
    rhs = np.ones(30)
    x = solve_shifted(diag, off, float(evals[0]), rhs)
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(x)) > 1e6  # nearly singular: strong amplification


def test_requesting_too_many_pairs_fails_loudly():
    with pytest.raises(ValueError):
        lowest_eigenpairs(np.arange(5.0), 1.0, 6)
    with pytest.raises(ValueError):
        lowest_eigenpairs(np.arange(5.0), 1.0, 0)
