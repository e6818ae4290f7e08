"""The verification context: tolerance table, overrides, scale semantics,
and the once-only intermediates, of which verify-all's two forked
children compute only the three evolutions: the ground state and the
superposition by Crank-Nicolson, the Ehrenfest packet by the
split-operator propagator."""
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import qclab
from qclab import (
    ConfigError,
    FreePotential,
    HarmonicPotential,
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


def _log(path, *fields) -> None:
    """Append one line to path: this process's pid, then fields; the
    forked children write to it too."""
    with open(path, "a") as fh:
        fh.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")


def _logged(path) -> list[tuple[int, str]]:
    lines = path.read_text().splitlines()
    return [(int(pid), rest) for pid, rest in (line.split(" ", 1) for line in lines)]


def _patch_propagators(mp, wrap) -> None:
    """Replace each propagator verification calls, evolve and
    split_operator_evolve, by wrap(name, propagator)."""
    for name in ("evolve", "split_operator_evolve"):
        mp.setattr(verification, name, wrap(name, getattr(verification, name)))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(scope="module")
def threaded_run(tmp_path_factory):
    """One verify-all run with every scenario, every propagator call and
    every intermediate's compute logged with its process, and whether any
    child was left."""
    log = tmp_path_factory.mktemp("run") / "log"

    def counting(name, propagate):
        def counted(psi0, potential_values, dt, n_steps, *args, **kwargs):
            _log(log, "propagate", name, n_steps)
            return propagate(psi0, potential_values, dt, n_steps, *args, **kwargs)

        return counted

    def scenario(scenario_id, builder):
        def logged(ctx):
            _log(log, "scenario", scenario_id)
            return builder(ctx)

        return logged

    with pytest.MonkeyPatch.context() as mp:
        _patch_propagators(mp, counting)
        mp.setattr(verification, "CRITERIA", [(s, scenario(s, b)) for s, b in CRITERIA])
        for name, prop in list(vars(VerifyContext).items()):
            if isinstance(prop, cached_property):

                def recorded(ctx, compute=prop.func, name=name):
                    _log(log, name)
                    return compute(ctx)

                wrapped = cached_property(recorded)
                wrapped.__set_name__(VerifyContext, name)
                mp.setattr(VerifyContext, name, wrapped)
        report = run_verify_all()
        no_child_left = _no_child_left()
    return report, _logged(log), no_child_left


def _evolve_calls(logged) -> list[tuple[int, str]]:
    """(pid, "<propagator> <n_steps>") of each logged propagator call."""
    return [(pid, what.split(" ", 1)[1]) for pid, what in logged if what.startswith("propagate ")]


def test_threaded_run_matches_serial_builders(threaded_run):
    report, _, _ = threaded_run
    ctx = make_context()
    serial = [check for _, builder in CRITERIA for check in builder(ctx)]
    assert report.checks == serial
    assert list(report.timing) == [scenario for scenario, _ in CRITERIA]


def test_threaded_run_evolves_each_state_once(threaded_run):
    # the ground state and the superposition by Crank-Nicolson, the packet
    # by the split-operator propagator
    _, logged, no_child_left = threaded_run
    calls = sorted(call for _, call in _evolve_calls(logged))
    assert calls == ["evolve 1000", "evolve 10004", "split_operator_evolve 6283"]
    assert no_child_left


def test_scenarios_run_unread_evolutions_first_then_the_packets_then_the_grounds(
    threaded_run,
):
    # both children step while the calling thread runs the scenarios that
    # wait for neither
    _, logged, _ = threaded_run
    order = [what.split()[1] for _, what in logged if what.startswith("scenario ")]
    packet = ["ehrenfest-correspondence", "superposition-statistics"]
    ground = ["quantum-potential-gap", "madelung-residuals", "unitarity-stationarity"]
    rest = [scenario for scenario, _ in CRITERIA if scenario not in packet + ground]
    assert order == rest + packet + ground


def test_verify_all_forks_twice_after_lapack_loads():
    # a fresh interpreter, so no scipy is loaded by earlier tests; the
    # LAPACK bindings load with qclab.verification, and import no scipy;
    # each fork records what is loaded and how many threads run
    src = Path(qclab.__file__).resolve().parent.parent
    code = f"""
import os, sys, threading
sys.path.insert(0, {str(src)!r})
from qclab.verification import run_verify_all

def loaded():
    scipy = any(name.startswith("scipy") for name in sys.modules)
    futures = "concurrent.futures" in sys.modules
    return "qclab.lapack" in sys.modules, scipy, futures, threading.active_count()

real_fork = os.fork

def fork():
    print(*loaded(), flush=True)
    return real_fork()

os.fork = fork
print(*loaded(), flush=True)
run_verify_all()
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["True False False 1"] * 3


def _exits_2_with_one_line(argv, capsys, line) -> None:
    threads = threading.active_count()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"qclab: {line}"]
    assert threading.active_count() == threads
    assert _no_child_left()


def _failing_evolve(monkeypatch, failing_steps, fail):
    # 10004 steps is the ground evolution, 6283 the packet's
    def failing(name, propagate):
        def failing_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
            if n_steps == failing_steps:
                fail()
            return propagate(psi0, potential_values, dt, n_steps, *args, **kwargs)

        return failing_evolve

    _patch_propagators(monkeypatch, failing)


def _raise(message):
    def fail():
        raise RuntimeError(message)

    return fail


def test_worker_error_exits_2_with_one_line_and_no_thread_left(
    monkeypatch, tmp_path, capsys
):
    _failing_evolve(monkeypatch, 10004, _raise("injected ground-evolution failure"))
    _exits_2_with_one_line(
        ["verify-all", "--out", str(tmp_path)], capsys, "injected ground-evolution failure"
    )


@pytest.mark.parametrize(
    "steps, fail, line",
    [
        (6283, _raise("injected packet-evolution failure"), "injected packet-evolution failure"),
        (
            10004,
            lambda: os.kill(os.getpid(), signal.SIGKILL),
            f"the ground evolution's process was killed by signal {int(signal.SIGKILL)} "
            "without a result",
        ),
    ],
    ids=["packet-raises", "ground-killed"],
)
def test_a_child_failure_exits_2_with_one_line_and_no_child_left(
    monkeypatch, tmp_path, capsys, steps, fail, line
):
    _failing_evolve(monkeypatch, steps, fail)
    _exits_2_with_one_line(["verify-all", "--out", str(tmp_path)], capsys, line)


def _first_scenario_raises(monkeypatch, exc, log):
    # the first scenario to run reads no evolution, so both children
    # still step when it raises; they log when they have evolved
    def logged(name, propagate):
        def logged_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
            result = propagate(psi0, potential_values, dt, n_steps, *args, **kwargs)
            _log(log, n_steps)
            return result

        return logged_evolve

    def scenario(ctx):
        raise exc

    _patch_propagators(monkeypatch, logged)
    (first, _), *rest = CRITERIA
    monkeypatch.setattr(verification, "CRITERIA", [(first, scenario), *rest])


def test_a_scenario_error_kills_both_children_and_exits_2(monkeypatch, tmp_path, capsys):
    log = tmp_path / "log"
    _first_scenario_raises(monkeypatch, RuntimeError("injected scenario failure"), log)
    _exits_2_with_one_line(
        ["verify-all", "--out", str(tmp_path / "out")], capsys, "injected scenario failure"
    )
    assert not log.exists()


def test_an_interrupted_run_leaves_no_child(monkeypatch, tmp_path):
    log = tmp_path / "log"
    _first_scenario_raises(monkeypatch, KeyboardInterrupt(), log)
    with pytest.raises(KeyboardInterrupt):
        run_verify_all()
    assert _no_child_left()
    assert not log.exists()


_EVOLUTIONS = ("ground_evolution", "packet_positions", "superposition_evolution")


def test_only_the_evolutions_are_computed_off_the_calling_thread(threaded_run):
    # every intermediate is computed once, in the calling process, and
    # the three propagator calls in two forked children
    _, logged, _ = threaded_run
    caller = os.getpid()
    # an intermediate's line is its name alone
    computed = [(pid, name) for pid, name in logged if " " not in name]
    intermediates = [
        name for name, prop in vars(VerifyContext).items() if isinstance(prop, cached_property)
    ]
    assert len(intermediates) == 10
    assert sorted(name for _, name in computed) == sorted(intermediates)
    assert {pid for pid, _ in computed} == {caller}
    evolve_pids = {pid for pid, _ in _evolve_calls(logged)}
    assert len(evolve_pids) == 2 and caller not in evolve_pids


@pytest.mark.parametrize("fails", [False, True], ids=["value", "error"])
def test_an_intermediate_is_computed_once_for_concurrent_readers(
    monkeypatch, tmp_path, fails
):
    log = tmp_path / "log"

    def slow(name, _):
        def slow_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
            _log(log, name, n_steps)
            time.sleep(0.05)
            if fails:
                raise RuntimeError("evolution failed")
            return object()

        return slow_evolve

    _patch_propagators(monkeypatch, slow)
    ctx = make_context()
    outcomes = {name: [] for name in _EVOLUTIONS}

    def read():
        for name in _EVOLUTIONS:
            try:
                outcomes[name].append(getattr(ctx, name))
            except RuntimeError as exc:
                outcomes[name].append(exc)

    # readers arrive while the forked evolutions run: more readers than
    # cores, switching threads as often as possible; the children are
    # forked before any reader thread starts
    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    try:
        ctx.prefetch()
        sys.setswitchinterval(1e-6)
        for reader in readers:
            reader.start()
        read()
        for reader in readers:
            reader.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
        ctx.close()
    assert not any(reader.is_alive() for reader in readers)
    calls = _logged(log)
    assert sorted(call for _, call in calls) == [
        "evolve 1000", "evolve 10004", "split_operator_evolve 6283"
    ]
    assert os.getpid() not in {pid for pid, _ in calls}
    for read_outcomes in outcomes.values():
        assert len(read_outcomes) == 4
        assert all(o is read_outcomes[0] for o in read_outcomes)
        assert isinstance(read_outcomes[0], RuntimeError) == fails


def test_a_packet_off_the_orbit_steps_fails_the_ehrenfest_check(monkeypatch):
    # the packet alone takes dt x (1 + 1e-3); its slices then sit at
    # other times than the orbit's steps, which the check must catch
    # rather than index the orbit past its end
    real_evolve = verification.split_operator_evolve

    def stretched_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs):
        assert n_steps == 6283
        dt *= 1.0 + 1e-3
        return real_evolve(psi0, potential_values, dt, n_steps, *args, **kwargs)

    monkeypatch.setattr(verification, "split_operator_evolve", stretched_evolve)
    (check,) = verification.criterion_ehrenfest(make_context())
    assert check.name == "ehrenfest_position_deviation"
    assert not check.passed and check.measured > 1e-3


def test_a_force_error_of_1e_4_fails_the_ehrenfest_check(monkeypatch):
    # the Verlet orbit's force x (1 + 1e-4) moves it 4.8e-4 off the
    # packet's <x>, which follows the true force to rounding
    real_force = HarmonicPotential.force
    monkeypatch.setattr(
        HarmonicPotential, "force", lambda self, x, c: real_force(self, x, c) * (1.0 + 1e-4)
    )
    (check,) = verification.criterion_ehrenfest(make_context())
    assert not check.passed
    assert check.measured == pytest.approx(4.8e-4, rel=0.05)


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
    # the free sweep is read slice by slice and the caustic comes from
    # the orbits' positions alone: below one 101 x 4001 free field,
    # which the stored sweep held along with its mask
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
