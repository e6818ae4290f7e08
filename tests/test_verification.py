"""The verification context: tolerance table, overrides, scale semantics,
and the once-only intermediates, of which verify-all's two-worker pool
computes only the three evolutions."""
import math
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import qclab
from qclab import (
    ConfigError,
    FreePotential,
    build_grid,
    evolve,
    free_principal_function,
    make_context,
    verification,
)
from qclab.cli import main
from qclab.config import RunConfig
from qclab.hamilton_jacobi import free_characteristics_deviation, principal_function_slices
from qclab.madelung import madelung_residuals, phase_action_gap
from qclab.report import CHECKS
from qclab.verification import CRITERIA, VerifyContext, run_verify_all

DEFAULTS = {name: tolerance for name, (tolerance, _, _) in CHECKS.items()}


def test_default_context_carries_the_full_table():
    ctx = make_context()
    assert ctx.tolerances == DEFAULTS
    assert ctx.seed == 20260814


def test_check_requires_a_registered_name():
    ctx = make_context()
    with pytest.raises(KeyError, match="no tolerance registered"):
        ctx.check("made_up_check", 0.0)


def test_check_picks_the_comparator_from_the_name():
    ctx = make_context()
    upper = ctx.check("norm_drift", 0.0)
    assert upper.comparator == "<=" and upper.passed
    assert upper.identity == "Crank-Nicolson conserves the discrete norm"
    lower = ctx.check("stationary_overlap", 0.9, "detail text")
    assert lower.comparator == ">=" and not lower.passed
    assert lower.detail == "detail text"


def test_overrides_replace_single_entries():
    config = RunConfig({"tolerance.norm_drift": 3e-7})
    ctx = make_context(config)
    assert ctx.tolerances["norm_drift"] == 3e-7
    assert ctx.tolerances["energy_drift"] == DEFAULTS["energy_drift"]


def test_overrides_must_name_known_checks():
    with pytest.raises(ConfigError, match="unknown tolerance override"):
        make_context(RunConfig({"tolerance.stray_name": 1.0}))


def test_overrides_must_be_positive_except_the_exact_zero_gate():
    with pytest.raises(ConfigError, match="must be positive"):
        make_context(RunConfig({"tolerance.norm_drift": 0.0}))
    # bitwise-reproducibility legitimately demands exactly zero
    ctx = make_context(RunConfig({"tolerance.rerun_sampling_mismatch": 0.0}))
    assert ctx.tolerances["rerun_sampling_mismatch"] == 0.0


def test_scale_multiplies_upper_bounds_only():
    ctx = make_context(tolerance_scale=10.0)
    for name, (default, comparator, _) in CHECKS.items():
        if comparator == ">=":
            assert ctx.tolerances[name] == default
        else:
            assert ctx.tolerances[name] == pytest.approx(10.0 * default)


def test_scale_must_be_positive():
    with pytest.raises(ConfigError, match="scale must be positive"):
        make_context(tolerance_scale=0.0)


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_scale_must_be_finite(scale):
    with pytest.raises(ConfigError, match="scale must be positive and finite"):
        make_context(tolerance_scale=scale)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_overrides_must_be_finite(value):
    # a RunConfig built in code skips the parse-time finiteness check
    with pytest.raises(ConfigError, match="'norm_drift' must be finite"):
        make_context(RunConfig({"tolerance.norm_drift": value}))


def test_scale_applies_after_overrides():
    config = RunConfig({"tolerance.norm_drift": 2e-9})
    ctx = make_context(config, tolerance_scale=3.0)
    assert ctx.tolerances["norm_drift"] == pytest.approx(6e-9)


@pytest.fixture(scope="module")
def threaded_run():
    """One verify-all run with every evolve call counted."""
    calls = []
    real_evolve = verification.evolve

    def counting_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
        calls.append(n_steps)
        return real_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "evolve", counting_evolve)
        report = run_verify_all()
    return report, calls


def test_threaded_run_matches_serial_builders(threaded_run):
    report, _ = threaded_run
    ctx = make_context()
    serial = [check for _, builder in CRITERIA for check in builder(ctx)]
    assert report.checks == serial
    assert list(report.timing) == [scenario for scenario, _ in CRITERIA]


def test_threaded_run_evolves_each_state_once(threaded_run):
    _, calls = threaded_run
    assert sorted(calls) == [1000, 6283, 10004]
    assert sum(calls) == 17_287


def test_pool_has_two_workers_and_starts_after_lapack_loads():
    # a fresh interpreter, so no scipy is loaded by earlier tests; the
    # LAPACK bindings load with qclab.verification, and import no scipy;
    # the first submit records the pool size and what is loaded, then
    # stops the run
    src = Path(qclab.__file__).resolve().parent.parent
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
from concurrent.futures import ThreadPoolExecutor
from qclab.verification import run_verify_all

def loaded():
    scipy = any(name.startswith("scipy") for name in sys.modules)
    return "qclab.lapack" in sys.modules, scipy

class Stop(Exception):
    pass

def submit(self, fn, *args, **kwargs):
    print(self._max_workers, *loaded())
    raise Stop

ThreadPoolExecutor.submit = submit
print(*loaded())
try:
    run_verify_all()
except Stop:
    pass
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["True False", "2 True False"]


def test_worker_error_exits_2_with_one_line_and_no_thread_left(
    monkeypatch, tmp_path, capsys
):
    real_evolve = verification.evolve

    def failing_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
        if n_steps == 10004:
            raise RuntimeError("injected ground-evolution failure")
        return real_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs)

    monkeypatch.setattr(verification, "evolve", failing_evolve)
    threads = threading.active_count()
    assert main(["verify-all", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "qclab: injected ground-evolution failure"
    ]
    assert threading.active_count() == threads


_EVOLUTIONS = {"ground_evolution", "packet_positions", "superposition_evolution"}


def test_only_the_evolutions_are_computed_off_the_calling_thread(monkeypatch):
    # every intermediate's compute and every evolve call, with its thread
    threads = {}
    for name, prop in list(vars(VerifyContext).items()):
        if isinstance(prop, cached_property):

            def recorded(ctx, compute=prop.func, name=name):
                threads.setdefault(name, set()).add(threading.get_ident())
                return compute(ctx)

            wrapped = cached_property(recorded)
            wrapped.__set_name__(VerifyContext, name)
            monkeypatch.setattr(VerifyContext, name, wrapped)
    evolve_threads = []
    real_evolve = verification.evolve

    def recorded_evolve(*args, **kwargs):
        evolve_threads.append(threading.get_ident())
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(verification, "evolve", recorded_evolve)
    run_verify_all()
    caller = threading.get_ident()
    assert len(threads) == 10
    off_thread = {name for name, idents in threads.items() if idents != {caller}}
    assert off_thread <= _EVOLUTIONS
    assert len(evolve_threads) == 3 and caller not in evolve_threads


@pytest.mark.parametrize("fails", [False, True], ids=["value", "error"])
def test_an_intermediate_is_computed_once_for_concurrent_readers(monkeypatch, fails):
    calls = []

    def slow_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
        calls.append(n_steps)
        time.sleep(0.05)
        if fails:
            raise RuntimeError("evolution failed")
        return object()

    monkeypatch.setattr(verification, "evolve", slow_evolve)
    ctx = make_context()
    outcomes = []

    def read():
        try:
            outcomes.append(ctx.ground_evolution)
        except RuntimeError as exc:
            outcomes.append(exc)

    # readers arrive while the prefetched evolution runs: more readers
    # than cores, switching threads as often as possible
    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=2) as pool:
        ctx.prefetch(pool)
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            read()
            for reader in readers:
                reader.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert sorted(calls) == [1000, 6283, 10004]
    assert len(outcomes) == 4 and all(o is outcomes[0] for o in outcomes)
    assert isinstance(outcomes[0], RuntimeError) == fails


def test_a_packet_off_the_orbit_steps_fails_the_ehrenfest_check(monkeypatch):
    # the packet alone takes dt x (1 + 1e-3); its slices then sit at
    # other times than the orbit's steps, which the check must catch
    # rather than index the orbit past its end
    real_evolve = verification.evolve

    def stretched_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
        if n_steps == 6283:
            dt *= 1.0 + 1e-3
        return real_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs)

    monkeypatch.setattr(verification, "evolve", stretched_evolve)
    (check,) = verification.criterion_ehrenfest(make_context())
    assert check.name == "ehrenfest_position_deviation"
    assert not check.passed and check.measured > 1e-3


# --- memory: each scenario holds only what its checks read --------------------


@pytest.fixture(scope="module")
def warm_context():
    """A context with the grids, eigenpairs and ground evolution in place."""
    ctx = make_context()
    ctx.wide_grid, ctx.harmonic_potential_values, ctx.ground_evolution
    return ctx


def _traced(compute):
    """(bytes still held, peak bytes) allocated while compute() runs."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_the_characteristics_scenario_keeps_the_caustic_sweep_small(warm_context):
    # both sweeps are read slice by slice: below one 101 x 4001 free
    # field, which the stored sweep held along with its mask
    free_field = 101 * 4001 * 8
    _, peak = _traced(lambda: verification.criterion_characteristics(warm_context))
    assert peak < free_field  # 3.23 MB


def test_the_free_characteristics_check_builds_no_field(warm_context):
    grid = warm_context.wide_grid
    s_fn = free_principal_function(0.5, warm_context.constants)
    slices = list(principal_function_slices(
        FreePotential(), s_fn(grid.x, 0.0), grid, 1e-3, 100, warm_context.constants
    ))
    _, peak = _traced(lambda: free_characteristics_deviation(slices, grid, 1e-3, s_fn))
    # the closed form, the difference or a masked copy over the whole
    # field would each take 101 x 4001 x 8 B = 3.2 MB
    assert peak < 101 * grid.n_points * 8


def test_the_free_characteristics_check_reads_only_valid_points(warm_context):
    grid = build_grid(-1.0, 1.0, 5)
    s_fn = free_principal_function(0.5, warm_context.constants)
    dt = 0.1
    exact = [s_fn(grid.x, k * dt) for k in range(2)]
    valid = [np.ones(5, dtype=bool), np.array([False, True, True, False, False])]
    s = [np.where(v, e, np.nan) for v, e in zip(valid, exact)]
    s[1][2] += 3e-7
    deviation = free_characteristics_deviation(zip(range(2), s, valid), grid, dt, s_fn)
    check = warm_context.check("characteristics_free_error", deviation)
    assert check.measured == pytest.approx(3e-7, rel=1e-6) and check.passed
    nowhere_valid = zip(range(2), s, [np.zeros(5, dtype=bool)] * 2)
    with pytest.raises(ValueError):
        free_characteristics_deviation(nowhere_valid, grid, dt, s_fn)


def test_the_ground_evolution_keeps_one_period_and_one_stride():
    ctx = make_context()
    ctx.harmonic_pairs, ctx.harmonic_potential_values
    held, _ = _traced(lambda: ctx.ground_evolution)
    run = ctx.ground_evolution.run
    # stored every 61 steps: 165 slices in all; slices 0..104 feed the
    # residual rows within one period, and slices 0 and 103 are kept
    assert len(run.norm_history) == len(run.energy_history) == 165
    assert [w.time for w in run.slices] == pytest.approx([0.0, 103 * 61 * 1e-3])
    # two slices and the histories, not the 105 slices (4 MB) the rows read
    assert held < 3 * 2401 * 16


def test_the_streamed_ground_reduction_equals_the_batch_residuals(warm_context):
    ctx, v = warm_context, warm_context.harmonic_potential_values
    ground = ctx.ground_evolution
    slices = evolve(
        ctx.harmonic_pairs[0].state, v, 1e-3, 104 * 61, ctx.constants, store_every=61
    ).slices
    r_phase, r_cont = madelung_residuals(slices, v, ctx.constants)
    assert r_phase.shape == (103, 2401)
    assert ground.phase_peak == float(np.nanmax(np.abs(r_phase)))
    assert ground.continuity_peak == float(np.nanmax(np.abs(r_cont)))
    assert ground.phase_action_gap == phase_action_gap(slices, v, ctx.constants)
    for w, k in zip(ground.run.slices, (0, 103), strict=True):
        assert w.time == slices[k].time and np.array_equal(w.values, slices[k].values)


def test_the_madelung_scenario_holds_a_window_not_the_series(warm_context):
    # the ground rows are reduced as the evolution runs, so what remains is
    # the two-state order measurement on 601 and 1201 points: less than
    # one residual array over the 103 rows within a period
    rows = 103 * 2401 * 8
    _, peak = _traced(lambda: verification.criterion_madelung_residuals(warm_context))
    assert peak < rows


def test_the_packet_intermediate_is_its_positions():
    ctx = make_context()
    ctx.harmonic_potential_values
    # the 316 stored slices take 316 x 2401 x 16 B = 12.1 MB while evolving
    held, _ = _traced(lambda: ctx.packet_positions)
    assert held < 1e6
    assert ctx.packet_positions.shape == (316,)


# --- the phase-action gap on nodal eigenstates ---------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_phase_action_gap_on_a_nodal_eigenstate_is_the_cn_phase_error(n):
    # an eigenstate's lobes sit at phases 0 and pi and cross the branch cut
    # at different times; what remains of the gap after V_q is added back
    # is Crank-Nicolson's phase error E^3 dt^2 / 12
    ctx = make_context()
    pair, dt = ctx.harmonic_pairs[n], 1e-3
    slices = evolve(
        pair.state, ctx.harmonic_potential_values, dt, 2, ctx.constants
    ).slices
    gap = phase_action_gap(slices, ctx.harmonic_potential_values, ctx.constants)
    assert math.isfinite(gap)
    assert gap == pytest.approx(pair.energy**3 * dt**2 / 12.0, rel=1e-3)
