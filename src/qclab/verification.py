"""Canonical verification scenarios and the one-shot verify-all run.

Every headline physics claim of the package is pinned here as a named
check with a default tolerance, on fixed grids with hbar = m = 1 (the
scenario definitions are part of the contract; a run config contributes
only the RNG seed and tolerance overrides).  The scenarios:

  inertial-equivalence        free plane wave: Phi equals the classical
                              principal function, V_q vanishes
  harmonic-spectrum           E_n = (n+1/2), second-order refinement
  oscillator-identity         modulus identity in multiplied form
  quantum-potential-gap       V + V_q constant on eigenstates; classical
                              HJ residual of Phi equals -V_q
  madelung-residuals          phase/continuity residuals on an evolved
                              ground state; empirical convergence order
  amplitude-relation          lambda^2 dPhi/dx constant for scattering,
                              cross-checked against the direct current
  unitarity-stationarity      norm drift, stationary overlap
  ehrenfest-correspondence    <x>(t) of a split-operator packet against
                              the Verlet trajectory, equal to rounding
  superposition-statistics    |c_n| frozen under evolution; ensemble TV
  characteristics-solver      free-case reconstruction; caustic timing
  rerun-determinism           seeded draws reproduce bitwise

Checks compare a measured number against a tolerance with an explicit
direction; report.CHECKS declares each check once, and VerifyContext
extends report.CheckContext, which holds the run's tolerances.

verify-all runs every scenario on the calling thread and forks the three
evolutions they share into two child processes, which share no GIL with
it: the ground state and the superposition by Crank-Nicolson (evolve),
the Ehrenfest packet by the split-operator propagator
(split_operator_evolve), whose <x> follows velocity Verlet to rounding
in the quadratic well.  The calling thread first computes every input of
the evolutions, then forks one child for the ground evolution and one
for the packet and then the superposition; all else is computed lazily
on the calling thread.  It runs the scenarios that read no evolution
while the children step, then the two that read the packet child's
results (ehrenfest-correspondence, superposition-statistics), then the three
that read the ground evolution; checks and report rows keep CRITERIA
order.  Each intermediate holds only what its scenarios read, taken
slice by slice in its child as the evolution produces them: of the
packet evolution, <x>(t); of the ground evolution, the peaks of the
Madelung residual rows within one period (MadelungRows, fed the slices
through one period plus one stride), slice 0, the slice nearest one
period, and the norm and energy histories of all 10004 steps.  The
characteristics scenario takes the caustic from the rest-release orbits'
positions alone (hamilton_jacobi.caustic_step), with no action or S.
Without os.fork nothing is forked, and each evolution is computed on
first read, on the calling thread, by the same code to the same bits.
Wall-clock seconds per scenario go into the report's timing block,
which is excluded from byte-identity comparisons.  An entry is the scenario's own work plus any
wait for a forked evolution; the evolutions' inputs are in no entry.
"""
from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import RunConfig
from .ensemble import (
    RNG_ALGORITHM,
    EnsembleSpec,
    WeightingFunction,
    build_superposition,
    compare_energy_statistics,
    draw_sample_energies,
    energy_distribution,
    project,
    run_classical_ensemble,
)
from .evolution import (
    EvolutionResult,
    Observable,
    evolve,
    expectation,
    split_operator_evolve,
)
from .grids import Grid1D, PhysicalConstants, build_grid
from .hamilton_jacobi import (
    caustic_step,
    free_characteristics_deviation,
    free_principal_function,
    integrate_hamilton,
    principal_function_slices,
)
from .madelung import (
    MadelungRows,
    decompose,
    inertial_deviations,
    madelung_residuals,
    median,
    phase_residual_peak,
    quantum_potential,
    total_potential,
    verify_1d_amplitude_relation,
    verify_oscillator_identity,
)
from .potentials import (
    FreePotential,
    HarmonicPotential,
    SmoothBarrierPotential,
)
from .report import CheckContext, CheckResult, VerificationReport
from .spectral import (
    assemble_hamiltonian,
    solve_lowest_eigenpairs,
    stationary_scattering_state,
)
from .states import (
    WaveFunction,
    gaussian_packet,
    harmonic_eigenfunction,
    plane_wave,
    probability_current,
)
from .stencils import gradient

_OMEGA = 1.0
_PERIOD = 2.0 * np.pi / _OMEGA
_DT = 1e-3
_BASIS_SIZE = 8
_EHRENFEST_STEPS = 6283  # one period
_PACKET_STRIDE = 20  # steps between stored Ehrenfest-packet slices
_GROUND_STRIDE = 61  # steps between stored ground-evolution slices
# the stored ground slice nearest one period: slice 103, at t = 6.283
_PERIOD_SLICE = int(_PERIOD / (_GROUND_STRIDE * _DT))


def _serve(runs, writers) -> None:
    """In a forked child: run each evolution and pickle its outcome, its
    result or the exception it raised, to its pipe; then leave by os._exit,
    never returning into the caller's frames."""
    status = 1
    try:
        for run, writer in zip(runs, writers):
            try:
                outcome = (True, run())
            except Exception as exc:  # the parent re-raises it
                outcome = (False, exc)
            with open(writer, "wb") as pipe:
                pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


@dataclass(frozen=True)
class GroundEvolution:
    """What the checks read of the ground-state evolution, reduced as each
    stored slice is produced.

    run keeps slice 0 and the slice nearest one period, with the norm and
    energy histories of every stored slice.  phase_peak and
    continuity_peak are max |r_phase| and max |r_continuity| over the
    Madelung residual rows of slices 1 .. _PERIOD_SLICE; phase_action_gap
    is the phase peak of the first of those rows alone.
    """

    run: EvolutionResult
    phase_peak: float
    continuity_peak: float
    phase_action_gap: float


@dataclass
class VerifyContext(CheckContext):
    """Tolerances, seed, and lazily shared heavy intermediates.

    The eigensolve and the three evolutions are computed once and reused
    by every criterion that needs them.  Each is computed on first read,
    on the reading thread, except an evolution that prefetch has forked:
    its first read waits for the child's outcome, and every read returns
    that result or raises that exception.
    cached_property makes concurrent first readers share one read up to
    Python 3.11; from 3.12, where it takes no lock, a reader that comes
    while the pipe is read evolves the state itself.  close() kills and
    reaps every child.
    """

    # evolution name -> (child pid, read end of its result's pipe), until read
    _forks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # evolution name -> (True, result) or (False, exception), once read
    _outcomes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _children: set = field(default_factory=set, init=False, repr=False, compare=False)

    @cached_property
    def wide_grid(self) -> Grid1D:
        return build_grid(-20.0, 20.0, 4001)

    @cached_property
    def harmonic_grid(self) -> Grid1D:
        return build_grid(-12.0, 12.0, 2401)  # dx = 0.01

    @cached_property
    def harmonic_potential_values(self) -> np.ndarray:
        return HarmonicPotential(_OMEGA).on_grid(self.harmonic_grid, self.constants)

    @cached_property
    def harmonic_pairs(self):
        h = assemble_hamiltonian(
            HarmonicPotential(_OMEGA), self.harmonic_grid, self.constants
        )
        return solve_lowest_eigenpairs(h, _BASIS_SIZE)

    @cached_property
    def harmonic_coarse_ground(self):
        grid = build_grid(-12.0, 12.0, 1201)  # dx = 0.02
        h = assemble_hamiltonian(HarmonicPotential(_OMEGA), grid, self.constants)
        return solve_lowest_eigenpairs(h, 1)[0]

    def prefetch(self) -> None:
        """Compute the evolutions' inputs on this thread, then fork one
        child for the ground evolution and one for the packet and then the
        superposition; without os.fork, fork nothing.

        Call it before any Python thread starts: a forked child holds a
        copy of every lock as it was.  From Python 3.12 os.fork warns
        (DeprecationWarning) when the process has other OS threads, and
        numpy's OpenBLAS pool is such a thread.  Every module the
        children use is imported with this one.
        """
        if not hasattr(os, "fork"):
            return
        self.harmonic_pairs, self.harmonic_potential_values, self.superposition_state
        for runs in ((self._evolve_ground,), (self._evolve_packet, self._evolve_superposition)):
            pipes = [os.pipe() for _ in runs]
            pid = os.fork()
            if pid == 0:
                # no read end stays open here, so a write whose reader is
                # gone fails rather than blocks
                for fd in [r for r, _ in pipes] + [r for _, r in self._forks.values()]:
                    os.close(fd)
                _serve(runs, [writer for _, writer in pipes])
            self._children.add(pid)
            for run, (reader, writer) in zip(runs, pipes):
                os.close(writer)
                self._forks[run.__name__] = (pid, reader)

    def _prefetched(self, run):
        name = run.__name__
        if name in self._forks:
            self._outcomes[name] = self._receive(name, *self._forks.pop(name))
        if name not in self._outcomes:
            return run()
        ok, value = self._outcomes[name]
        if not ok:
            raise value
        return value

    def _receive(self, name: str, pid: int, reader: int) -> tuple:
        """The outcome the child pickled to reader, or a RuntimeError that
        names the evolution when the child wrote none."""
        with open(reader, "rb") as pipe:
            data = pipe.read()
        try:
            return pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            pass
        ending = "ended"
        if pid in self._children:  # not reaped after an earlier missing result
            self._children.remove(pid)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            ending = f"was killed by signal {-code}" if code < 0 else f"exited {code}"
        evolution = name.removeprefix("_evolve_")
        return False, RuntimeError(
            f"the {evolution} evolution's process {ending} without a result"
        )

    def close(self) -> None:
        """Drop every unread result, then SIGKILL and reap every child;
        a child that has written all its results is exiting already."""
        for _, reader in self._forks.values():
            os.close(reader)
        self._forks.clear()
        for pid in self._children:
            os.kill(pid, signal.SIGKILL)
        while self._children:
            os.waitpid(self._children.pop(), 0)

    @cached_property
    def ground_evolution(self) -> GroundEvolution:
        return self._prefetched(self._evolve_ground)

    def _evolve_ground(self) -> GroundEvolution:
        # 10004 steps = 164 * 61: stored slices stay uniformly spaced,
        # slice 103 sits at t = 6.283 (one period to dt/5), and the
        # horizon covers the 1e4-step norm-drift window.  Slices 0 ..
        # _PERIOD_SLICE + 1 feed the residual rows within one period, each
        # row is reduced to its peaks, and only slices 0 and _PERIOD_SLICE
        # are kept; the norm history still covers all 10004 steps.
        rows = MadelungRows(self.harmonic_potential_values, self.constants)
        peaks = np.full(2, np.nan)  # running max |r_phase|, |r_continuity|
        gap = np.nan

        def reduce(index: int, w: WaveFunction) -> bool:
            nonlocal gap
            if index <= _PERIOD_SLICE + 1:
                row = rows.push(w)
                if row is not None:
                    if index == 2:  # the first row, slice 1's
                        gap = phase_residual_peak(row[0])
                    # fmax skips NaN as nanmax does, so the running peak
                    # is nanmax over all rows, bit for bit
                    np.fmax(peaks, [np.fmax.reduce(np.abs(r)) for r in row], out=peaks)
            return index in (0, _PERIOD_SLICE)

        run = evolve(
            self.harmonic_pairs[0].state,
            self.harmonic_potential_values,
            _DT,
            10004,
            self.constants,
            store_every=_GROUND_STRIDE,
            keep=reduce,
        )
        return GroundEvolution(run, float(peaks[0]), float(peaks[1]), gap)

    @cached_property
    def packet_positions(self) -> np.ndarray:
        """<x> of the Ehrenfest packet's stored slices, every
        _PACKET_STRIDE-th step and the last; each slice is reduced to <x>
        as it is produced and then dropped."""
        return self._prefetched(self._evolve_packet)

    def _evolve_packet(self) -> np.ndarray:
        packet = gaussian_packet(
            self.harmonic_grid, 2.0, 0.0, 2.0**-0.5, self.constants
        )
        positions = []

        def record(_: int, w: WaveFunction) -> bool:
            positions.append(expectation(w, Observable.POSITION, self.constants))
            return False

        split_operator_evolve(
            packet,
            self.harmonic_potential_values,
            _DT,
            _EHRENFEST_STEPS,
            self.constants,
            store_every=_PACKET_STRIDE,
            keep=record,
        )
        return np.array(positions)

    @cached_property
    def superposition_weights(self) -> WeightingFunction:
        # Gaussian in the amplitudes, sqrt(2) narrower in |c_n|^2 than
        # ensemble.gaussian_weights at the same width
        energies = np.array([pair.energy for pair in self.harmonic_pairs])
        raw = np.exp(-((energies - 4.0) ** 2) / (2.0 * 1.5**2))
        return WeightingFunction(raw.astype(complex)).normalized()

    @cached_property
    def superposition_state(self) -> WaveFunction:
        return build_superposition(self.harmonic_pairs, self.superposition_weights)

    @cached_property
    def superposition_evolution(self) -> EvolutionResult:
        return self._prefetched(self._evolve_superposition)

    def _evolve_superposition(self) -> EvolutionResult:
        return evolve(
            self.superposition_state,
            self.harmonic_potential_values,
            _DT,
            1000,
            self.constants,
            store_every=250,
        )


def criterion_inertial(ctx: VerifyContext) -> list[CheckResult]:
    energy = 0.5
    psi = plane_wave(ctx.wide_grid, energy, ctx.constants)
    s_fn = free_principal_function(energy, ctx.constants)
    phase, v_q, _ = inertial_deviations(psi, s_fn, ctx.constants)
    detail = "plane wave E=0.5 on (-20,20)/4001"
    return [
        ctx.check("inertial_phase_vs_action", phase, detail),
        ctx.check("inertial_quantum_potential", v_q),
    ]


def criterion_spectrum(ctx: VerifyContext) -> list[CheckResult]:
    errors = [
        abs(pair.energy - (n + 0.5)) for n, pair in enumerate(ctx.harmonic_pairs[:5])
    ]
    level_error = float(max(errors))
    fine = abs(ctx.harmonic_pairs[0].energy - 0.5)
    gain = float(abs(ctx.harmonic_coarse_ground.energy - 0.5) / fine)
    detail = ", ".join(f"n={n}: {e:.3e}" for n, e in enumerate(errors))
    return [
        ctx.check("harmonic_level_error", level_error, detail),
        ctx.check(
            "harmonic_refinement_gain",
            gain,
            f"E0 error dx=0.02 over dx=0.01: {gain:.2f}",
        ),
    ]


def criterion_oscillator_identity(ctx: VerifyContext) -> list[CheckResult]:
    residuals = [
        verify_oscillator_identity(n, pair, _OMEGA, ctx.constants)
        for n, pair in enumerate(ctx.harmonic_pairs[:5])
    ]
    detail = ", ".join(f"n={n}: {r:.3e}" for n, r in enumerate(residuals))
    return [ctx.check("oscillator_identity_residual", float(max(residuals)), detail)]


def criterion_quantum_potential_gap(ctx: VerifyContext) -> list[CheckResult]:
    v = ctx.harmonic_potential_values
    deviations = []
    for n, pair in enumerate(ctx.harmonic_pairs[:5]):
        polar = decompose(pair.state, ctx.constants)
        v_t = total_potential(quantum_potential(polar, ctx.constants), v)
        deviations.append(float(np.nanmax(np.abs(v_t - (n + 0.5)))))
    return [
        ctx.check(
            "effective_potential_constancy",
            float(max(deviations)),
            ", ".join(f"n={n}: {d:.3e}" for n, d in enumerate(deviations)),
        ),
        ctx.check(
            "phase_action_gap_vs_vq",
            ctx.ground_evolution.phase_action_gap,
            "evolved ground state, three consecutive stored slices",
        ),
    ]


def _two_state_residual_peaks(
    ctx: VerifyContext, n_points: int
) -> tuple[float, float]:
    """Max |r_phase|, |r_continuity| for an analytic two-state superposition.

    Exact slices of (phi_0 e^{-i E_0 t} + phi_1 e^{-i E_1 t})/sqrt(2)
    around t = pi/2 (relative phase pi/2, so the modulus has no nodes),
    with dt tied to dx — any residual is pure discretization error, the
    clean target for the empirical order measurement.
    """
    grid = build_grid(-12.0, 12.0, n_points)
    dt = grid.dx / 10.0
    t0 = 0.5 * np.pi
    phi0 = harmonic_eigenfunction(0, grid, _OMEGA, ctx.constants).values
    phi1 = harmonic_eigenfunction(1, grid, _OMEGA, ctx.constants).values
    slices = []
    for k in (-1, 0, 1):
        t = t0 + k * dt
        values = (
            phi0 * np.exp(-0.5j * t) + phi1 * np.exp(-1.5j * t)
        ) / np.sqrt(2.0)
        slices.append(WaveFunction(values, grid, t))
    v = HarmonicPotential(_OMEGA).on_grid(grid, ctx.constants)
    r_phase, r_cont = madelung_residuals(slices, v, ctx.constants)
    return float(np.nanmax(np.abs(r_phase))), float(np.nanmax(np.abs(r_cont)))


def criterion_madelung_residuals(ctx: VerifyContext) -> list[CheckResult]:
    ground = ctx.ground_evolution
    coarse = _two_state_residual_peaks(ctx, 601)
    fine = _two_state_residual_peaks(ctx, 1201)
    order_phase = float(np.log2(coarse[0] / fine[0]))
    order_cont = float(np.log2(coarse[1] / fine[1]))
    evolved = "evolved ground state, dt=1e-3, slices within one period"
    return [
        ctx.check("phase_equation_residual", ground.phase_peak, evolved),
        ctx.check("continuity_equation_residual", ground.continuity_peak, evolved),
        ctx.check(
            "residual_convergence_order",
            float(min(order_phase, order_cont)),
            f"phase order {order_phase:.2f}, continuity order {order_cont:.2f}",
        ),
    ]


def criterion_amplitude_relation(ctx: VerifyContext) -> list[CheckResult]:
    grid = ctx.wide_grid
    barrier = SmoothBarrierPotential(height=1.0, width=1.0, center=0.0)
    energy = 2.0  # twice the barrier height
    psi = stationary_scattering_state(barrier, grid, energy, ctx.constants)
    polar = decompose(psi, ctx.constants)
    relation = verify_1d_amplitude_relation(polar, ctx.constants)
    if relation.vacuous:
        raise RuntimeError("scattering state unexpectedly has a flat phase")

    p_field = gradient(polar.phase, grid.dx)
    lam2p = polar.modulus**2 * p_field
    mj = ctx.constants.mass * probability_current(psi, ctx.constants)
    scale = median(np.abs(mj[1:-1]))
    cross = float(np.nanmax(np.abs((lam2p - mj)[1:-1])) / scale)
    return [
        ctx.check(
            "amplitude_relation_deviation",
            float(relation.deviation),
            "smooth barrier, E = 2 x height",
        ),
        ctx.check("current_crosscheck_deviation", cross),
    ]


def criterion_unitarity(ctx: VerifyContext) -> list[CheckResult]:
    result = ctx.ground_evolution.run
    drift = float(np.max(np.abs(result.norm_history - result.norm_history[0])))
    times = np.array([w.time for w in result.slices])
    k = int(np.argmin(np.abs(times - _PERIOD)))
    overlap = float(abs(result.slices[k].inner(result.slices[0])))
    return [
        ctx.check("norm_drift", drift, "10004 steps, dt=1e-3"),
        ctx.check(
            "stationary_overlap", overlap, f"|<psi(t), psi(0)>| at t={times[k]:.3f}"
        ),
    ]


def criterion_ehrenfest(ctx: VerifyContext) -> list[CheckResult]:
    positions = ctx.packet_positions
    trajectory = integrate_hamilton(
        HarmonicPotential(_OMEGA), 2.0, 0.0, _DT, _EHRENFEST_STEPS, ctx.constants
    )
    # the orbit at the packet's step numbers; the last slice is the last step
    steps = np.minimum(np.arange(positions.size) * _PACKET_STRIDE, _EHRENFEST_STEPS)
    deviation = float(np.max(np.abs(positions - trajectory.positions[steps])))
    detail = "Gaussian at x=2, one period"
    return [ctx.check("ehrenfest_position_deviation", deviation, detail)]


def criterion_superposition_statistics(ctx: VerifyContext) -> list[CheckResult]:
    pairs = ctx.harmonic_pairs
    energies = np.array([pair.energy for pair in pairs])
    weights = ctx.superposition_weights
    quantum = energy_distribution(weights, pairs)
    # the mismatched draw comes first, so its 1e5 energies are freed
    # before the ensemble run makes its own
    uniform_spec = EnsembleSpec(
        energies, np.full(energies.size, 1.0 / energies.size), 100_000, ctx.seed
    )
    tv_mismatched = compare_energy_statistics(
        quantum, draw_sample_energies(uniform_spec)
    )
    probabilities = np.abs(weights.coefficients) ** 2
    matched_spec = EnsembleSpec(energies, probabilities, 100_000, ctx.seed)
    ensemble = run_classical_ensemble(
        matched_spec,
        HarmonicPotential(_OMEGA),
        ctx.harmonic_grid,
        _DT,
        6283,
        ctx.constants,
        store_every=100,
    )
    tv_matched = compare_energy_statistics(quantum, ensemble.sample_energies)
    max_drift = float(np.max(ensemble.energy_drift))
    # the evolution is read last, so the ensemble runs while the packet
    # child still steps
    moduli0 = np.abs(project(ctx.superposition_state, pairs).coefficients)
    invariance = max(
        float(np.max(np.abs(np.abs(project(w, pairs).coefficients) - moduli0)))
        for w in ctx.superposition_evolution.slices[1:]
    )
    return [
        ctx.check(
            "weight_invariance",
            invariance,
            "Gaussian weights over n=0..7, evolved to t=1",
        ),
        ctx.check(
            "ensemble_tv_matched",
            float(tv_matched),
            f"1e5 samples, seed {ctx.seed}; max sample energy drift {max_drift:.2e}",
        ),
        ctx.check(
            "ensemble_tv_mismatched",
            float(tv_mismatched),
            "uniform draw over the same levels",
        ),
    ]


def criterion_characteristics(ctx: VerifyContext) -> list[CheckResult]:
    grid = ctx.wide_grid
    energy = 0.5
    s_fn = free_principal_function(energy, ctx.constants)
    free = principal_function_slices(
        FreePotential(), s_fn(grid.x, 0.0), grid, _DT, 100, ctx.constants
    )
    deviation = free_characteristics_deviation(free, grid, _DT, s_fn)
    free_check = ctx.check("characteristics_free_error", deviation, "100 steps, dt=1e-3")

    grid_h = ctx.harmonic_grid
    caustic = caustic_step(
        HarmonicPotential(_OMEGA), np.zeros(grid_h.n_points), grid_h, _DT, 1600, ctx.constants
    )
    if caustic is None:
        caustic_steps = float("inf")
        detail = "no caustic detected within the horizon"
    else:
        t_caustic = caustic * _DT
        caustic_steps = float(abs(t_caustic - 0.25 * _PERIOD) / _DT)
        detail = f"first fully-masked slice at t={t_caustic:.4f}, period/4={0.25 * _PERIOD:.4f}"
    return [free_check, ctx.check("caustic_time_error_steps", caustic_steps, detail)]


def criterion_rerun_determinism(ctx: VerifyContext) -> list[CheckResult]:
    spec = EnsembleSpec(
        np.arange(_BASIS_SIZE) + 0.5,
        np.full(_BASIS_SIZE, 1.0 / _BASIS_SIZE),
        10_000,
        ctx.seed,
    )
    first = draw_sample_energies(spec)
    second = draw_sample_energies(spec)
    mismatch = 0.0 if np.array_equal(first, second) else 1.0
    return [
        ctx.check(
            "rerun_sampling_mismatch",
            mismatch,
            f"{RNG_ALGORITHM}; full-report byte identity is exercised by "
            "running verify-all twice and comparing files",
        )
    ]


CRITERIA: list[tuple[str, object]] = [
    ("inertial-equivalence", criterion_inertial),
    ("harmonic-spectrum", criterion_spectrum),
    ("oscillator-identity", criterion_oscillator_identity),
    ("quantum-potential-gap", criterion_quantum_potential_gap),
    ("madelung-residuals", criterion_madelung_residuals),
    ("amplitude-relation", criterion_amplitude_relation),
    ("unitarity-stationarity", criterion_unitarity),
    ("ehrenfest-correspondence", criterion_ehrenfest),
    ("superposition-statistics", criterion_superposition_statistics),
    ("characteristics-solver", criterion_characteristics),
    ("rerun-determinism", criterion_rerun_determinism),
]
# the scenarios that read a forked evolution, by the child they wait for:
# 1 the packet's (packet, then superposition), 2 the ground state's
_WAITS_FOR = {
    "ehrenfest-correspondence": 1,
    "superposition-statistics": 1,
    "quantum-potential-gap": 2,
    "madelung-residuals": 2,
    "unitarity-stationarity": 2,
}


def make_context(
    config: RunConfig | None = None, tolerance_scale: float = 1.0
) -> VerifyContext:
    """Context with defaults, overrides, and the scale factor applied, at
    hbar = m = 1 whatever the config's constants (CheckContext.from_config)."""
    config = config if config is not None else RunConfig()
    return VerifyContext.from_config(config, tolerance_scale, PhysicalConstants())


def run_verify_all(
    config: RunConfig | None = None, tolerance_scale: float = 1.0
) -> VerificationReport:
    """Run every canonical scenario; one report, one row per check.

    The calling thread computes the three evolutions' inputs and forks
    them into two children (VerifyContext.prefetch), then runs the
    scenarios with every other intermediate computed lazily on it: first
    those that read no evolution, then the two that read the packet
    child's, then the three that read the ground evolution; a scenario
    that reads an evolution waits for it.  On any exit, KeyboardInterrupt
    included, no child outlives the call.
    """
    ctx = make_context(config, tolerance_scale)
    report = VerificationReport(
        scenario="verify-all",
        metadata={
            "seed": ctx.seed,
            "rng_algorithm": RNG_ALGORITHM,
            "constants": {"hbar": ctx.constants.hbar, "mass": ctx.constants.mass},
            "tolerance_scale": tolerance_scale,
            "tolerances": {k: ctx.tolerances[k] for k in sorted(ctx.tolerances)},
        },
    )
    # the scenarios that read no evolution run first, then the packet's
    # readers, then the ground evolution's, so each child steps while the
    # calling thread works; rows and timing keys keep CRITERIA order
    results = {}
    try:
        ctx.prefetch()
        for scenario_id, builder in sorted(CRITERIA, key=lambda c: _WAITS_FOR.get(c[0], 0)):
            started = time.perf_counter()
            results[scenario_id] = builder(ctx), time.perf_counter() - started
    finally:
        ctx.close()
    for scenario_id, _ in CRITERIA:
        checks, report.timing[scenario_id] = results[scenario_id]
        report.checks.extend(checks)
    return report
