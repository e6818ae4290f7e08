"""Crank-Nicolson unitarity, exact eigenstate rotation, expectation values.

The Cayley transform (I + i dt H / 2hbar)^{-1} (I - i dt H / 2hbar)
shares eigenvectors with the discrete H, so a solver eigenstate must
rotate by exactly theta = -2 atan(E dt / 2hbar) per step.  That gives a
closed-form oracle for the evolved state with no discretization slack
beyond the linear solves.
"""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qclab
from qclab import (
    HarmonicPotential,
    Observable,
    build_grid,
    evolve,
    expectation,
    gaussian_packet,
    hamiltonian_from_values,
    solve_lowest_eigenpairs,
)
from qclab.states import WaveFunction


@pytest.fixture(scope="module")
def harmonic_setup(harmonic_grid, constants):
    v = HarmonicPotential(1.0).on_grid(harmonic_grid, constants)
    h = hamiltonian_from_values(v, harmonic_grid, constants)
    return v, solve_lowest_eigenpairs(h, 2)


@pytest.mark.parametrize("n_points", [3, 4, 41])
@pytest.mark.parametrize("shift", [0.0, -25.0])
def test_steps_match_a_dense_crank_nicolson_reference(constants, n_points, shift):
    # shift = -25 cancels the kinetic diagonal near x = 0, so I + A loses
    # diagonal dominance there and zgttrf swaps rows
    grid = build_grid(-4.0, 4.0, n_points)
    v = HarmonicPotential(1.0).on_grid(grid, constants) + shift
    rng = np.random.default_rng(3)
    values = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    dt = 0.5
    # the walls of the input are not zero; evolve must drop them
    result = evolve(WaveFunction(values, grid), v, dt, 5, constants)

    h = hamiltonian_from_values(v, grid, constants)
    m = n_points - 2
    eye = np.eye(m)
    a = (1j * dt / (2.0 * constants.hbar)) * (
        np.diag(h.diagonal[1:-1])
        + h.off_diagonal * (np.eye(m, k=1) + np.eye(m, k=-1))
    )
    ref = values[1:-1]
    for w in result.slices[1:]:
        ref = np.linalg.solve(eye + a, (eye - a) @ ref)
        assert w.values[0] == w.values[-1] == 0.0
        assert np.max(np.abs(w.values[1:-1] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _probe(code: str) -> str:
    """Last stdout line of `code` run in a fresh interpreter at the repo root,
    followed by whether any scipy module got loaded."""
    src = Path(qclab.__file__).resolve().parent.parent
    scipy_loaded = "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); {code}; {scipy_loaded}"],
        capture_output=True, text=True, check=True, cwd=src.parent,
    ).stdout
    return out.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    # qclab.lapack is imported by the functions that call LAPACK, on first
    # use, and concurrent.futures by verify-all's thread pool
    code = "import qclab.cli; print('concurrent.futures' in sys.modules, end=' ')"
    assert _probe(code) == "False False"


@pytest.mark.parametrize(
    "name, subcommand",
    [("free-hj", "hj"), ("harmonic-caustic-hj", "hj"), ("plane-wave-madelung", "madelung")],
)
def test_lapack_free_configs_never_load_scipy(tmp_path, name, subcommand):
    argv = [subcommand, "--config", f"configs/{name}.config", "--out", str(tmp_path)]
    code = f"from qclab.cli import main; print(main({argv!r}), end=' ')"
    assert _probe(code) == "0 False"


# whether the bindings and the scipy.linalg package are loaded
_LOADED = "print('qclab.lapack' in sys.modules, 'scipy.linalg' in sys.modules, end=' ')"


@pytest.mark.parametrize(
    "name, subcommand",
    [
        ("harmonic-eigen", "eigen"),
        ("gaussian-evolve", "evolve"),
        ("superpose", "superpose"),
        ("ensemble", "ensemble"),
    ],
)
def test_solving_configs_load_lapack_but_not_scipy_linalg(tmp_path, name, subcommand):
    argv = [subcommand, "--config", f"configs/{name}.config", "--out", str(tmp_path)]
    code = f"from qclab.cli import main; print(main({argv!r}), end=' '); {_LOADED}"
    assert _probe(code) == "0 True False True"


def test_verify_all_loads_lapack_but_not_scipy_linalg():
    code = f"from qclab.verification import run_verify_all; run_verify_all(); {_LOADED}"
    assert _probe(code) == "True False True"


@pytest.mark.parametrize("first", ["scipy.linalg", "qclab.lapack"])
def test_scipy_linalg_and_the_bindings_solve_alike_in_either_load_order(first):
    code = f"""import importlib; importlib.import_module({first!r})
import numpy as np
import scipy.linalg.lapack as scipy_lapack
import qclab.lapack
rng = np.random.default_rng(5)
dl, d, du, b = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (40, 41, 40, 41))
d += 4.0
x, y = (m.zgttrs(*m.zgttrf(dl, d, du)[:-1], b)[0] for m in (scipy_lapack, qclab.lapack))
print(x.tobytes() == y.tobytes(), end=' ')"""
    assert _probe(code) == "True True"


def test_missing_bindings_raise_import_error_naming_the_directory(tmp_path):
    code = f"""import scipy; scipy.__path__ = [{str(tmp_path)!r}]
try:
    import qclab.lapack
except ImportError as exc:
    print(str(exc).endswith({str(tmp_path / 'linalg')!r}), end=' ')"""
    assert _probe(code) == "True True"


def test_eigenstate_rotates_at_the_cayley_angle(harmonic_setup, constants):
    v, pairs = harmonic_setup
    energy, psi0 = pairs[0].energy, pairs[0].state
    dt, n = 1e-3, 37
    result = evolve(psi0, v, dt, n, constants, store_every=n)
    theta = -2.0 * np.arctan(energy * dt / (2.0 * constants.hbar))
    predicted = psi0.values * np.exp(1j * n * theta)
    # slack covers the solver's eigenvector residual, nothing else
    assert np.max(np.abs(result.slices[-1].values - predicted)) < 1e-10


def test_energy_is_conserved_exactly_for_eigenstates(harmonic_setup, constants):
    v, pairs = harmonic_setup
    result = evolve(pairs[1].state, v, 1e-3, 200, constants, store_every=50)
    drift = np.abs(result.energy_history - pairs[1].energy)
    assert np.max(drift) < 1e-10


def test_norm_is_conserved_to_roundoff(harmonic_setup, constants):
    v, _ = harmonic_setup
    psi0 = gaussian_packet(
        build_grid(-12.0, 12.0, 2401), 1.0, 1.5, 0.8, constants
    )
    result = evolve(psi0, v, 1e-3, 500, constants, store_every=100)
    assert np.max(np.abs(result.norm_history - 1.0)) < 1e-12


def test_evolution_is_linear(harmonic_setup, constants):
    v, pairs = harmonic_setup
    a, b = pairs[0].state, pairs[1].state
    combo = WaveFunction(
        0.6 * a.values + 0.8j * b.values, a.grid
    )
    dt, n = 1e-3, 25
    ra = evolve(a, v, dt, n, constants, store_every=n)
    rb = evolve(b, v, dt, n, constants, store_every=n)
    rc = evolve(combo, v, dt, n, constants, store_every=n)
    synth = 0.6 * ra.slices[-1].values + 0.8j * rb.slices[-1].values
    assert np.max(np.abs(rc.slices[-1].values - synth)) < 1e-12


def test_store_every_keeps_first_and_last(harmonic_setup, constants):
    v, pairs = harmonic_setup
    result = evolve(pairs[0].state, v, 1e-3, 103, constants, store_every=25)
    times = [w.time for w in result.slices]
    # k = 0, 25, 50, 75, 100 and the final 103
    assert times == pytest.approx([0.0, 0.025, 0.05, 0.075, 0.1, 0.103])
    assert len(result.norm_history) == len(result.slices)
    assert len(result.energy_history) == len(result.slices)


def test_evolve_validates_arguments(harmonic_setup, constants):
    v, pairs = harmonic_setup
    psi = pairs[0].state
    # dt, n_steps and store_every are checked for every runner in test_grids.py
    with pytest.raises(ValueError, match="grid"):
        evolve(psi, v[:-1], 1e-3, 5, constants)


def test_non_finite_input_is_caught_at_a_stored_slice(harmonic_setup, constants):
    v, pairs = harmonic_setup
    values = pairs[0].state.values.copy()
    values[1200] = np.nan
    psi = WaveFunction(values, pairs[0].state.grid, 0.0)
    with pytest.raises(RuntimeError, match="non-finite values by step 3"):
        evolve(psi, v, 1e-3, 7, constants, store_every=3)


def test_position_and_momentum_of_a_packet(constants):
    grid = build_grid(-12.0, 12.0, 2401)
    psi = gaussian_packet(grid, 0.7, 1.9, 0.9, constants)
    assert expectation(psi, Observable.POSITION, constants) == pytest.approx(
        0.7, abs=1e-9
    )
    assert expectation(psi, Observable.MOMENTUM, constants) == pytest.approx(
        1.9, abs=5e-4  # central-stencil gradient is second order in dx
    )


def test_expectation_rejects_unnormalized_states(constants):
    grid = build_grid(-12.0, 12.0, 2401)
    psi = gaussian_packet(grid, 0.0, 0.0, 1.0, constants)
    doubled = WaveFunction(2.0 * psi.values, grid)
    with pytest.raises(ValueError, match="normalized"):
        expectation(doubled, Observable.POSITION, constants)


def test_coherent_packet_oscillates_classically(constants):
    # <x>(t) = x0 cos(t) for omega = 1 release from rest: Ehrenfest is
    # exact for quadratic potentials, so the discrepancy is pure stencil
    grid = build_grid(-12.0, 12.0, 2401)
    x0 = 2.0
    psi0 = gaussian_packet(grid, x0, 0.0, 2.0**-0.5, constants)
    v = HarmonicPotential(1.0).on_grid(grid, constants)
    result = evolve(psi0, v, 1e-3, 1571, constants, store_every=1571)
    # quarter period: the packet should sit near the origin
    x_final = expectation(result.slices[-1], Observable.POSITION, constants)
    assert abs(x_final - x0 * np.cos(1.571)) < 1e-3
