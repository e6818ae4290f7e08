"""Crank-Nicolson unitarity, exact eigenstate rotation, expectation values,
and the split-operator propagator.

The Cayley transform (I + i dt H / 2hbar)^{-1} (I - i dt H / 2hbar)
shares eigenvectors with the discrete H, so a solver eigenstate must
rotate by exactly theta = -2 atan(E dt / 2hbar) per step.  That gives a
closed-form oracle for the evolved state with no discretization slack
beyond the linear solves.  The split-operator propagator's oracle is the
velocity-Verlet orbit, which its <x> follows to rounding in a quadratic
well.
"""
import subprocess
import sys
import threading
import tracemalloc
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
    integrate_hamilton,
    solve_lowest_eigenpairs,
    split_operator_evolve,
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
    followed by whether any module whose name starts with scipy got loaded,
    then whether numpy.random or the secrets and hashlib modules it imports
    (OpenSSL's libcrypto), or numpy.ma (np.median's NaN check), did."""
    src = Path(qclab.__file__).resolve().parent.parent
    loaded = (
        "print(any(m.startswith('scipy') for m in sys.modules), "
        "any(m in sys.modules for m in ('numpy.random', 'secrets', 'hashlib', 'numpy.ma')))"
    )
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); {code}; {loaded}"],
        capture_output=True, text=True, check=True, cwd=src.parent,
    ).stdout
    return out.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    # no qclab module imports concurrent.futures: verify-all forks its evolutions
    code = "import qclab.cli; print('concurrent.futures' in sys.modules, end=' ')"
    assert _probe(code) == "False False False"


# the qclab submodules loaded, in name order
_SUBMODULES = "print(*sorted(m for m in sys.modules if m.startswith('qclab.')), end=' ')"


def test_importing_qclab_loads_no_submodule():
    assert _probe(f"import qclab; print(end='-'); {_SUBMODULES}") == "- False False"


def test_importing_the_cli_loads_only_what_every_subcommand_uses():
    # each subcommand imports its own layers when it runs
    loaded = "qclab.cli qclab.config qclab.grids qclab.potentials qclab.report"
    assert _probe(f"import qclab.cli; {_SUBMODULES}") == f"{loaded} False False"


def test_the_lazy_namespace_resolves_every_exported_name():
    code = """import qclab
namespace = {}
exec("from qclab import *", namespace)
same = [namespace["evolve"] is qclab.evolution.evolve, namespace["grids"] is qclab.grids,
        namespace["CHECKS"] is qclab.report.CHECKS, namespace["EigenPair"] is qclab.spectral.EigenPair]
try:
    qclab.no_such_name
except AttributeError as exc:
    same.append(str(exc) == "module 'qclab' has no attribute 'no_such_name'")
print(set(qclab.__all__) <= set(namespace), all(same), end=' ')"""
    assert _probe(code) == "True True False False"


# the qclab modules a run loads: what `import qclab.cli` loads, plus the
# layers of each shipped config (verify.config is verify-all: every module)
_CLI = "cli config grids potentials report"
_LAYERS = {
    "free-hj": "hamilton_jacobi stencils",
    "harmonic-caustic-hj": "hamilton_jacobi stencils",
    "plane-wave-madelung": "madelung states stencils",
    "harmonic-eigen": "lapack spectral states stencils tridiagonal",
    "gaussian-evolve": "evolution lapack spectral states stencils tridiagonal",
    "superpose": "ensemble hamilton_jacobi lapack spectral states stencils tridiagonal",
    "ensemble": "ensemble hamilton_jacobi lapack spectral states stencils tridiagonal",
    "verify": "ensemble evolution hamilton_jacobi lapack madelung spectral states "
    "stencils tridiagonal verification",
}


def _loaded(layers: str) -> str:
    return " ".join(sorted(f"qclab.{m}" for m in f"{_CLI} {layers}".split()))


def _run(argv) -> str:
    return _probe(f"from qclab.cli import main; print(main({argv!r}), end=' '); {_SUBMODULES}")


@pytest.mark.parametrize(
    "name, subcommand",
    [("free-hj", "hj"), ("harmonic-caustic-hj", "hj"), ("plane-wave-madelung", "madelung")],
)
def test_lapack_free_configs_never_load_scipy(tmp_path, name, subcommand):
    # nor the LAPACK bindings, nor the verification layer
    argv = [subcommand, "--config", f"configs/{name}.config", "--out", str(tmp_path)]
    assert _run(argv) == f"0 {_loaded(_LAYERS[name])} False False"


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
    # LAPACK comes from numpy's own OpenBLAS: no scipy module at all; the
    # ensemble draws numpy's Philox stream itself: no numpy.random; and only
    # verify-all loads the verification layer
    argv = [subcommand, "--config", f"configs/{name}.config", "--out", str(tmp_path)]
    assert _run(argv) == f"0 {_loaded(_LAYERS[name])} False False"


def test_verify_all_loads_lapack_but_not_scipy_linalg(tmp_path):
    # exit 1: the harmonic-spectrum gate is red by design
    argv = ["verify-all", "--config", "configs/verify.config", "--out", str(tmp_path)]
    assert _run(argv) == f"1 {_loaded(_LAYERS['verify'])} False False"


@pytest.mark.parametrize(
    "scenario, keys, layers",
    [
        ("free", "", "hamilton_jacobi madelung states stencils"),
        (
            "harmonic-ground",
            "potential.kind = harmonic\ngrid.n_points = 601\n",
            "evolution lapack madelung spectral states stencils tridiagonal",
        ),
    ],
    ids=["free", "harmonic-ground"],
)
def test_hj_compare_loads_its_scenarios_layers_and_no_verification(
    tmp_path, scenario, keys, layers
):
    # the checks it shares with verify-all live in qclab.madelung
    config = tmp_path / "compare.config"
    config.write_text(f"compare.scenario = {scenario}\n{keys}")
    argv = ["hj-compare", "--config", str(config), "--out", str(tmp_path / "out")]
    assert _run(argv) == f"0 {_loaded(layers)} False False"


@pytest.mark.parametrize("first", ["scipy.linalg", "qclab.lapack"])
def test_scipy_linalg_and_the_bindings_solve_alike_in_either_load_order(first):
    # scipy's f2py wrappers around its own OpenBLAS are the reference; the
    # LP64 and ILP64 builds run the same LAPACK code, so results agree bit
    # for bit, whichever library the process maps first
    pytest.importorskip("scipy")  # the reference is a test dependency
    code = f"""import importlib; importlib.import_module({first!r})
import numpy as np
import scipy.linalg.lapack as ref
import qclab.lapack as ours
rng = np.random.default_rng(5)
same = []
for n in (3, 41, 2401):
    d, e = 3.0 * rng.standard_normal(n), rng.standard_normal(n - 1)
    k = min(n, 8)
    a = ref.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    b = ours.dstebz(d, e, "I", 0.0, 1.0, 1, k, 0.0, "B")
    same.append(a[0] == b[0] and a[4] == b[4] == 0 and a[1].tobytes() == b[1].tobytes())
    same.append(np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3]))
    za, ia = ref.dstein(d, e, a[1][:a[0]], a[2], a[3])
    zb, ib = ours.dstein(d, e, b[1][:b[0]], b[2], b[3])
    same.append(ia == ib == 0 and za.shape == zb.shape and za.tobytes() == zb.tobytes())
    dl, dd, du, rhs = (rng.standard_normal(size) + 1j * rng.standard_normal(size)
                       for size in (n - 1, n, n - 1, n))
    x = ref.zgttrs(*ref.zgttrf(dl, dd, du)[:-1], rhs)[0]
    y = rhs.copy()
    ours.tridiagonal_solver(dl, dd, du)(y)()
    same.append(x.tobytes() == y.tobytes())
print(all(same), end=' ')"""
    assert _probe(code) == "True True True"


def test_a_missing_symbol_raises_one_import_error_naming_it():
    code = """import ctypes
from numpy.linalg import _umath_linalg

class WithoutZgttrs(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "scipy_zgttrs_64_":
            raise AttributeError(name)
        return super().__getattr__(name)

ctypes.CDLL = WithoutZgttrs
try:
    import qclab.lapack
except ImportError as exc:
    expected = f"LAPACK symbol scipy_zgttrs_64_ not found in {_umath_linalg.__file__}"
    print(str(exc) == expected, end=' ')"""
    assert _probe(code) == "True False False"


def test_a_solver_refuses_arrays_lapack_would_misread():
    from qclab.lapack import tridiagonal_solver

    with pytest.raises(ValueError, match="dl must have shape"):
        tridiagonal_solver(np.ones(3), np.full(3, 4.0), np.ones(2))
    solver = tridiagonal_solver(np.ones(2), np.full(3, 4.0), np.ones(2))
    read_only = np.ones(3, dtype=complex)
    read_only.flags.writeable = False
    misfits = {
        "real": np.ones(3),
        "wrong shape": np.ones(4, dtype=complex),
        "strided": np.ones(6, dtype=complex)[::2],
        "read-only": read_only,
    }
    refusal = r"^b must be a writeable contiguous complex \(3,\) array$"
    for name, b in misfits.items():
        with pytest.raises(ValueError, match=refusal):
            solver(b)  # refused when bound: a bound call checks nothing
            pytest.fail(f"a {name} b was bound")


def test_a_bound_solve_overwrites_its_buffer_on_each_call():
    from qclab.lapack import tridiagonal_solver

    b = np.array([5.0, 6.0, 5.0], dtype=complex)
    solve = tridiagonal_solver(np.ones(2), np.full(3, 4.0), np.ones(2))(b)
    assert solve() is None and np.allclose(b, 1.0)
    # the bound call solves whatever b holds when it runs
    b[:] = [10.0, 12.0, 10.0]
    solve()
    assert np.allclose(b, 2.0)


def test_evolve_steps_as_a_plain_scipy_loop():
    # 50 steps on the 2401-point grid against copy -> scipy zgttrs ->
    # subtract, on the factors of the matrix evolve hands the solver:
    # the bound ping-pong buffers change no bit of any stored slice
    pytest.importorskip("scipy")  # the reference is a test dependency
    code = """import numpy as np
import scipy.linalg.lapack as ref
import qclab.evolution as ev
from qclab import HarmonicPotential, PhysicalConstants, build_grid, gaussian_packet
grid, unit = build_grid(-12.0, 12.0, 2401), PhysicalConstants()
matrix = []
bind = ev.tridiagonal_solver
ev.tridiagonal_solver = lambda *tridiag: matrix.append(tridiag) or bind(*tridiag)
psi0 = gaussian_packet(grid, -1.0, 2.0, 0.5, unit)
v = HarmonicPotential(1.0).on_grid(grid, unit)
run = ev.evolve(psi0, v, 1e-3, 50, unit)
factors = ref.zgttrf(*matrix[0])[:-1]
psi = psi0.values.astype(complex)
psi[[0, -1]] = 0.0
same = [len(matrix) == 1, len(run.slices) == 51]
for k in range(1, 51):
    nxt, info = ref.zgttrs(*factors, psi.copy())
    nxt -= psi
    psi = nxt
    same.append(info == 0 and run.slices[k].values.tobytes() == psi.tobytes())
print(all(same), end=' ')"""
    assert _probe(code) == "True True True"


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


def test_evolutions_on_two_threads_match_serial_runs(
    harmonic_setup, harmonic_grid, constants
):
    # the solves release the GIL, so the two runs step at the same time;
    # each must keep its own factors, arguments and info slot
    v, pairs = harmonic_setup
    packet = gaussian_packet(harmonic_grid, 2.0, 0.0, 2.0**-0.5, constants)
    runs = [(packet, 400), (pairs[0].state, 300)]

    def run(psi0, n_steps):
        return evolve(psi0, v, 1e-3, n_steps, constants, store_every=50)

    serial = [run(*r) for r in runs]
    threaded = [None, None]
    start = threading.Barrier(2, timeout=10.0)

    def worker(i):
        start.wait()
        threaded[i] = run(*runs[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for a, b in zip(serial, threaded):
        assert len(a.slices) == len(b.slices) == len(a.norm_history)
        assert all(
            x.values.tobytes() == y.values.tobytes() for x, y in zip(a.slices, b.slices)
        )
        assert a.norm_history.tobytes() == b.norm_history.tobytes()
        assert a.energy_history.tobytes() == b.energy_history.tobytes()


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


def test_keep_sees_every_stored_slice_and_retains_what_it_accepts(
    harmonic_setup, constants
):
    v, pairs = harmonic_setup
    full = evolve(pairs[1].state, v, 1e-3, 103, constants, store_every=25)
    seen = []

    def keep(index, w):
        seen.append((index, w.time))
        return index in (0, 2, 5)

    result = evolve(pairs[1].state, v, 1e-3, 103, constants, store_every=25, keep=keep)
    assert seen == [(k, w.time) for k, w in enumerate(full.slices)]
    for w, ref in zip(result.slices, [full.slices[k] for k in (0, 2, 5)], strict=True):
        assert w.time == ref.time and np.array_equal(w.values, ref.values)
    # the histories cover every stored slice, retained or not
    assert np.array_equal(result.norm_history, full.norm_history)
    assert np.array_equal(result.energy_history, full.energy_history)


def test_keep_retains_only_the_kept_slices(harmonic_setup, constants):
    # 201 stored slices of 2401 complex points are 7.7 MB; keeping three
    # must hold three, and the peak adds the factors and step temporaries
    # (about ten slices' worth) to those
    v, pairs = harmonic_setup
    psi0 = pairs[0].state
    one_slice = psi0.grid.n_points * 16
    tracemalloc.start()
    try:
        result = evolve(
            psi0, v, 1e-3, 200, constants, keep=lambda index, _: index < 3
        )
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.slices) == 3 and len(result.norm_history) == 201
    assert held < 4 * one_slice
    assert peak < 20 * one_slice


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


# --- the split-operator propagator ---------------------------------------------


def test_split_operator_position_follows_verlet_in_a_quadratic_well(harmonic_grid, constants):
    # a discrete Ehrenfest theorem: <x> is the velocity-Verlet orbit of
    # <x>, <p> to rounding, not to the dx^2 of a stencil
    potential = HarmonicPotential(1.0)
    v = potential.on_grid(harmonic_grid, constants)
    psi0 = gaussian_packet(harmonic_grid, -1.0, 2.0, 0.5, constants)
    positions = []

    def record(_, w):
        positions.append(expectation(w, Observable.POSITION, constants))
        return False

    result = split_operator_evolve(psi0, v, 1e-3, 400, constants, store_every=20, keep=record)
    orbit = integrate_hamilton(potential, -1.0, 2.0, 1e-3, 400, constants)
    assert len(positions) == 21 and result.slices == ()
    assert np.max(np.abs(np.array(positions) - orbit.positions[::20])) <= 1e-10
    # the spectral Rayleigh quotient: (<p>^2 + var p)/2 + (<x>^2 + var x)/2
    # with var p = (hbar / 2 width)^2 = 1
    assert result.energy_history[0] == pytest.approx((4.0 + 1.0 + 1.0 + 0.25) / 2.0, abs=1e-9)


def test_split_operator_conserves_the_norm(harmonic_setup, constants):
    v, pairs = harmonic_setup
    psi0 = WaveFunction(
        (pairs[0].state.values + 1j * pairs[1].state.values) / np.sqrt(2.0), pairs[0].state.grid
    )
    result = split_operator_evolve(psi0, v, 1e-3, 500, constants, store_every=50)
    assert np.max(np.abs(result.norm_history - result.norm_history[0])) <= 1e-12


def test_split_operator_keep_sees_what_evolves_keep_sees(harmonic_setup, constants):
    v, pairs = harmonic_setup
    seen = {}
    results = {}
    for propagate in (evolve, split_operator_evolve):
        calls = seen.setdefault(propagate, [])

        def keep(index, w, calls=calls):
            calls.append((index, w.time))
            return index in (0, 2, 5)

        results[propagate] = propagate(
            pairs[1].state, v, 1e-3, 103, constants, store_every=25, keep=keep
        )
    # k = 0, 25, 50, 75, 100 and the final 103, each seen once, in order
    assert seen[split_operator_evolve] == seen[evolve]
    assert [t for _, t in seen[evolve]] == pytest.approx([0.0, 0.025, 0.05, 0.075, 0.1, 0.103])
    full = split_operator_evolve(pairs[1].state, v, 1e-3, 103, constants, store_every=25)
    kept = results[split_operator_evolve]
    for w, ref in zip(kept.slices, [full.slices[k] for k in (0, 2, 5)], strict=True):
        assert w.time == ref.time and np.array_equal(w.values, ref.values)
    assert np.array_equal(kept.norm_history, full.norm_history)
    assert np.array_equal(kept.energy_history, full.energy_history)
    assert len(full.slices) == len(full.norm_history) == len(full.energy_history) == 6


def test_split_operator_refuses_a_state_at_the_ends_of_its_periodic_box(constants):
    grid = build_grid(-12.0, 12.0, 2401)
    v = HarmonicPotential(1.0).on_grid(grid, constants)
    psi = gaussian_packet(grid, 11.0, 0.0, 0.5, constants)
    with pytest.raises(ValueError, match="periodic") as refused:
        split_operator_evolve(psi, v, 1e-3, 5, constants)
    assert "\n" not in str(refused.value)
    with pytest.raises(ValueError, match="grid"):
        split_operator_evolve(gaussian_packet(grid, 0.0, 0.0, 0.5, constants), v[:-1], 1e-3, 5, constants)


def test_split_operator_catches_non_finite_input_at_a_stored_slice(harmonic_setup, constants):
    v, pairs = harmonic_setup
    values = pairs[0].state.values.copy()
    values[1200] = np.nan
    psi = WaveFunction(values, pairs[0].state.grid, 0.0)
    with pytest.raises(RuntimeError, match="non-finite values by step 3"):
        split_operator_evolve(psi, v, 1e-3, 7, constants, store_every=3)
