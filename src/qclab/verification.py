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
  ehrenfest-correspondence    <x>(t) against the Verlet trajectory
  superposition-statistics    |c_n| frozen under evolution; ensemble TV
  characteristics-solver      free-case reconstruction; caustic timing
  rerun-determinism           seeded draws reproduce bitwise

Checks compare a measured number against a tolerance with an explicit
direction; CHECKS declares each check once: its default tolerance, its
comparator and the identity it exercises.

verify-all runs the scenarios one after another, in CRITERIA order, on
the calling thread, so checks and report rows keep that order.  The three
Crank-Nicolson evolutions they share (the ground state, the Ehrenfest
packet, the superposition) run meanwhile on a second thread; each is one
single-threaded evolve call, the same as when a scenario computes it on
first read.  Each intermediate holds only what its scenarios read (of
the packet evolution, <x>(t)).  Wall-clock seconds per scenario go into
the report's timing block, which is excluded from byte-identity
comparisons.  An entry is the scenario's own work plus any wait for a
prefetched evolution; the eigensolve, done before the first scenario, is
in no entry.
"""
from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Sequence

import numpy as np

from .config import ConfigError, RunConfig
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
from .evolution import EvolutionResult, Observable, evolve, expectation
from .grids import Grid1D, PhysicalConstants, build_grid
from .hamilton_jacobi import (
    PrincipalFunctionField,
    free_principal_function,
    integrate_hamilton,
    principal_function_from_characteristics,
)
from .madelung import (
    decompose,
    madelung_residuals,
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
from .report import CheckResult, VerificationReport, check_against
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

# name -> (default tolerance, comparator, the identity the check exercises).
# "<=" budgets cap the measured value, ">=" thresholds floor it.  The
# subcommand-level checks share the table, so one override mechanism
# covers everything.
CHECKS: dict[str, tuple[float, str, str]] = {
    "inertial_phase_vs_action": (
        1e-10,
        "<=",
        "free-motion phase equals the Hamilton principal function -Et + x sqrt(2mE) "
        "up to a constant",
    ),
    "inertial_quantum_potential": (
        1e-8, "<=", "constant modulus makes the quantum potential vanish"
    ),
    "harmonic_level_error": (1e-4, "<=", "harmonic levels are (n+1/2) hbar omega"),
    "harmonic_refinement_gain": (
        3.5, ">=", "halving dx shrinks the ground-level error at second order"
    ),
    "oscillator_identity_residual": (
        1e-3, "<=", "lambda_n'' + (2m/hbar^2)[(n+1/2)hbar w - m w^2 x^2/2] lambda_n = 0"
    ),
    "effective_potential_constancy": (
        1e-3, "<=", "V + V_q equals E_n pointwise on harmonic eigenstates"
    ),
    "phase_action_gap_vs_vq": (
        2e-3,
        "<=",
        "classical HJ residual of the quantum phase equals -V_q: the entire gap "
        "between S and Phi",
    ),
    "phase_equation_residual": (
        1e-3, "<=", "(grad Phi)^2/2m + V + V_q + dPhi/dt = 0 along the evolution"
    ),
    "continuity_equation_residual": (
        1e-3, "<=", "lap Phi + 2 grad Phi grad ln lambda + 2m d ln lambda/dt = 0"
    ),
    "residual_convergence_order": (
        1.7, ">=", "both residuals shrink at second order under dx, dt refinement"
    ),
    "amplitude_relation_deviation": (
        1e-2,
        "<=",
        "stationary 1D states obey lambda = (dPhi/dx)^(-1/2) up to one global factor",
    ),
    "current_crosscheck_deviation": (
        1e-3,
        "<=",
        "lambda^2 dPhi/dx agrees with m times the probability current computed "
        "directly from psi",
    ),
    "norm_drift": (1e-10, "<=", "Crank-Nicolson conserves the discrete norm"),
    "stationary_overlap": (
        1.0 - 1e-6, ">=", "an eigenstate returns to itself (up to phase) after a period"
    ),
    "ehrenfest_position_deviation": (
        1e-3,
        "<=",
        "<x>(t) of a packet in the harmonic well follows the classical trajectory "
        "exactly (quadratic potential)",
    ),
    "weight_invariance": (
        1e-8,
        "<=",
        "unitary evolution freezes every |c_n|: superpositions carry a fixed energy "
        "distribution",
    ),
    "ensemble_tv_matched": (
        0.01,
        "<=",
        "a classical ensemble drawn from |c_n|^2 reproduces the quantum energy "
        "statistics",
    ),
    "ensemble_tv_mismatched": (
        0.1,
        ">=",
        "a mismatched hidden-parameter distribution is flagged by the same comparison",
    ),
    "characteristics_free_error": (
        1e-6, "<=", "method of characteristics reproduces the free closed-form S"
    ),
    "caustic_time_error_steps": (
        1.0, "<=", "rest-released harmonic characteristics focus at a quarter period"
    ),
    "rerun_sampling_mismatch": (
        0.0, "<=", "a fixed seed reproduces every draw bitwise"
    ),
    "eigenbasis_orthonormality": (
        1e-10, "<=", "eigenstates are orthonormal under the trapezoid inner product"
    ),
    "energy_drift": (
        1e-9, "<=", "the Cayley stepper commutes with H: <H> is a constant of motion"
    ),
    "polar_roundtrip_error": (1e-12, "<=", "lambda e^{i phi / hbar} reproduces psi"),
    "trajectory_energy_drift": (
        1e-5, "<=", "the Stoermer-Verlet trajectory conserves the Hamiltonian"
    ),
    "superposition_norm_error": (
        1e-10, "<=", "unit weights over an orthonormal basis give a unit-norm state"
    ),
    "weight_roundtrip_error": (
        1e-10, "<=", "projection onto the basis recovers the coefficients"
    ),
}

_OMEGA = 1.0
_PERIOD = 2.0 * np.pi / _OMEGA
_DT = 1e-3
_BASIS_SIZE = 8
_EHRENFEST_STEPS = 6283  # one period


def _shared(compute):
    """A VerifyContext intermediate, computed once per context.

    It stays a cached_property, but the once-only guarantee comes from a
    lock per context and name: cached_property has no lock of its own
    from Python 3.12 on, and run_verify_all reads intermediates from two
    threads.  A reader that arrives while another thread computes waits
    for it; an exception is kept and re-raised to every reader.
    """
    name = compute.__name__

    @wraps(compute)
    def once(ctx: "VerifyContext"):
        with ctx._guard:
            lock = ctx._locks.setdefault(name, threading.Lock())
        with lock:
            if name not in ctx._outcomes:
                try:
                    ctx._outcomes[name] = (compute(ctx), None)
                except Exception as exc:
                    ctx._outcomes[name] = (None, exc)
        value, error = ctx._outcomes[name]
        if error is not None:
            raise error
        return value

    return cached_property(once)


@dataclass
class VerifyContext:
    """Tolerances, seed, and lazily shared heavy intermediates.

    The eigensolve and the three Crank-Nicolson evolutions are computed
    once and reused by every criterion that needs them.  Each is computed
    on first read, or ahead of time by run_verify_all's second thread.
    """

    constants: PhysicalConstants
    tolerances: dict[str, float]
    seed: int
    _guard: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    _locks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _outcomes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def check(self, name: str, measured: float, detail: str = "") -> CheckResult:
        """The named check against this context's tolerance; the comparator
        and the identity come from CHECKS."""
        if name not in self.tolerances:
            raise KeyError(f"no tolerance registered for check {name!r}")
        _, comparator, identity = CHECKS[name]
        return check_against(
            name, measured, self.tolerances[name], identity, comparator, detail
        )

    @_shared
    def wide_grid(self) -> Grid1D:
        return build_grid(-20.0, 20.0, 4001)

    @_shared
    def harmonic_grid(self) -> Grid1D:
        return build_grid(-12.0, 12.0, 2401)  # dx = 0.01

    @_shared
    def harmonic_potential_values(self) -> np.ndarray:
        return HarmonicPotential(_OMEGA).on_grid(self.harmonic_grid, self.constants)

    @_shared
    def harmonic_pairs(self):
        h = assemble_hamiltonian(
            HarmonicPotential(_OMEGA), self.harmonic_grid, self.constants
        )
        return solve_lowest_eigenpairs(h, _BASIS_SIZE)

    @_shared
    def harmonic_coarse_ground(self):
        grid = build_grid(-12.0, 12.0, 1201)  # dx = 0.02
        h = assemble_hamiltonian(HarmonicPotential(_OMEGA), grid, self.constants)
        return solve_lowest_eigenpairs(h, 1)[0]

    @_shared
    def ground_evolution(self) -> EvolutionResult:
        # 10004 steps = 164 * 61: stored slices stay uniformly spaced,
        # slice 103 sits at t = 6.283 (one period to dt/5), and the
        # horizon covers the 1e4-step norm-drift window.
        return evolve(
            self.harmonic_pairs[0].state,
            self.harmonic_potential_values,
            _DT,
            10004,
            self.constants,
            store_every=61,
        )

    @_shared
    def packet_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, <x>) of the Ehrenfest packet's stored slices, then dropped."""
        packet = gaussian_packet(
            self.harmonic_grid, 2.0, 0.0, 2.0**-0.5, self.constants
        )
        slices = evolve(
            packet,
            self.harmonic_potential_values,
            _DT,
            _EHRENFEST_STEPS,
            self.constants,
            store_every=20,
        ).slices
        positions = [expectation(w, Observable.POSITION, self.constants) for w in slices]
        return np.array([w.time for w in slices]), np.array(positions)

    @_shared
    def superposition_weights(self) -> WeightingFunction:
        energies = np.array([pair.energy for pair in self.harmonic_pairs])
        raw = np.exp(-((energies - 4.0) ** 2) / (2.0 * 1.5**2))
        return WeightingFunction(raw.astype(complex)).normalized()

    @_shared
    def superposition_state(self) -> WaveFunction:
        return build_superposition(self.harmonic_pairs, self.superposition_weights)

    @_shared
    def superposition_evolution(self) -> EvolutionResult:
        return evolve(
            self.superposition_state,
            self.harmonic_potential_values,
            _DT,
            1000,
            self.constants,
            store_every=250,
        )


# the Crank-Nicolson runs run_verify_all computes on its pool, in the order
# the scenarios first read them
_PREFETCHED = ("ground_evolution", "packet_positions", "superposition_evolution")


def inertial_checks(
    ctx: VerifyContext, grid: Grid1D, energy: float, detail: str
) -> tuple[float, list[CheckResult]]:
    """Free plane wave of energy E: phase against -Et + x sqrt(2mE), flat V_q.

    Returns the constant offset between phase and principal function
    together with the two checks; `detail` annotates the phase check.
    """
    psi = plane_wave(grid, energy, ctx.constants)
    polar = decompose(psi, ctx.constants)
    s_fn = free_principal_function(energy, ctx.constants)
    diff = polar.phase - s_fn(grid.x, 0.0)
    offset = 0.5 * (np.nanmax(diff) + np.nanmin(diff))
    v_q = quantum_potential(polar, ctx.constants)
    return float(offset), [
        ctx.check(
            "inertial_phase_vs_action", float(np.nanmax(np.abs(diff - offset))), detail
        ),
        ctx.check("inertial_quantum_potential", float(np.nanmax(np.abs(v_q)))),
    ]


def phase_action_gap_check(
    ctx: VerifyContext,
    slices: Sequence[WaveFunction],
    potential_values: np.ndarray,
    detail: str,
) -> CheckResult:
    """Classical HJ residual of the phase of three consecutive slices,
    plus V_q of the middle one: row 0 of madelung_residuals' r_phase."""
    r_phase, _ = madelung_residuals(slices, potential_values, ctx.constants)
    return ctx.check(
        "phase_action_gap_vs_vq", float(np.nanmax(np.abs(r_phase[0]))), detail
    )


def free_characteristics_check(
    ctx: VerifyContext, field: PrincipalFunctionField, s_fn, detail: str
) -> CheckResult:
    """Largest deviation of a characteristics field from the closed-form
    free principal function s_fn(x, t) over its valid points."""
    exact = s_fn(field.grid.x[None, :], field.times[:, None])
    return ctx.check(
        "characteristics_free_error",
        float(np.max(np.abs((field.s - exact)[field.validity_mask]))),
        detail,
    )


def criterion_inertial(ctx: VerifyContext) -> list[CheckResult]:
    _, checks = inertial_checks(
        ctx, ctx.wide_grid, 0.5, "plane wave E=0.5 on (-20,20)/4001"
    )
    return checks


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
        phase_action_gap_check(
            ctx,
            ctx.ground_evolution.slices[:3],
            v,
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
    slices = ctx.ground_evolution.slices
    # row k is slice k+1, so the rows within one period need one slice more
    n_rows = sum(w.time <= _PERIOD + 1e-9 for w in slices[1:-1])
    r_phase, r_cont = madelung_residuals(
        slices[: n_rows + 2], ctx.harmonic_potential_values, ctx.constants
    )
    phase_max = float(np.nanmax(np.abs(r_phase)))
    cont_max = float(np.nanmax(np.abs(r_cont)))

    coarse = _two_state_residual_peaks(ctx, 601)
    fine = _two_state_residual_peaks(ctx, 1201)
    order_phase = float(np.log2(coarse[0] / fine[0]))
    order_cont = float(np.log2(coarse[1] / fine[1]))
    evolved = "evolved ground state, dt=1e-3, slices within one period"
    return [
        ctx.check("phase_equation_residual", phase_max, evolved),
        ctx.check("continuity_equation_residual", cont_max, evolved),
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
    scale = float(np.median(np.abs(mj[1:-1])))
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
    result = ctx.ground_evolution
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
    times, positions = ctx.packet_positions
    trajectory = integrate_hamilton(
        HarmonicPotential(_OMEGA), 2.0, 0.0, _DT, _EHRENFEST_STEPS, ctx.constants
    )
    idx = np.rint(times / _DT).astype(int)
    deviation = float(np.max(np.abs(positions - trajectory.positions[idx])))
    detail = "Gaussian at x=2, one period"
    return [ctx.check("ehrenfest_position_deviation", deviation, detail)]


def criterion_superposition_statistics(ctx: VerifyContext) -> list[CheckResult]:
    pairs = ctx.harmonic_pairs
    energies = np.array([pair.energy for pair in pairs])
    weights = ctx.superposition_weights
    moduli0 = np.abs(project(ctx.superposition_state, pairs).coefficients)
    invariance = max(
        float(np.max(np.abs(np.abs(project(w, pairs).coefficients) - moduli0)))
        for w in ctx.superposition_evolution.slices[1:]
    )

    quantum = energy_distribution(weights, pairs)
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

    uniform_spec = EnsembleSpec(
        energies, np.full(energies.size, 1.0 / energies.size), 100_000, ctx.seed
    )
    tv_mismatched = compare_energy_statistics(
        quantum, draw_sample_energies(uniform_spec)
    )
    max_drift = float(np.max(ensemble.energy_drift))
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
    field = principal_function_from_characteristics(
        FreePotential(), s_fn(grid.x, 0.0), grid, _DT, 100, ctx.constants
    )

    grid_h = ctx.harmonic_grid
    rest = principal_function_from_characteristics(
        HarmonicPotential(_OMEGA),
        np.zeros(grid_h.n_points),
        grid_h,
        _DT,
        1600,
        ctx.constants,
        store_every=1600,
    )
    if rest.first_masked_step is None:
        caustic_steps = float("inf")
        detail = "no caustic detected within the horizon"
    else:
        t_caustic = rest.first_masked_step * _DT
        caustic_steps = float(abs(t_caustic - 0.25 * _PERIOD) / _DT)
        detail = f"first fully-masked slice at t={t_caustic:.4f}, period/4={0.25 * _PERIOD:.4f}"
    return [
        free_characteristics_check(ctx, field, s_fn, "100 steps, dt=1e-3"),
        ctx.check("caustic_time_error_steps", caustic_steps, detail),
    ]


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


def make_context(
    config: RunConfig | None = None, tolerance_scale: float = 1.0
) -> VerifyContext:
    """Context with defaults, overrides, and the scale factor applied.

    Overrides must name known checks; the scale multiplies "<=" budgets
    only (">=" thresholds have no single sensible scaling direction).
    """
    if not (0.0 < tolerance_scale < math.inf):
        raise ConfigError(
            f"tolerance scale must be positive and finite, got {tolerance_scale}"
        )
    config = config if config is not None else RunConfig()
    tolerances = {name: tolerance for name, (tolerance, _, _) in CHECKS.items()}
    for name, value in config.tolerance_overrides.items():
        if name not in tolerances:
            raise ConfigError(f"unknown tolerance override {name!r}")
        if not math.isfinite(value):
            raise ConfigError(f"tolerance override {name!r} must be finite, got {value}")
        if value <= 0.0 and name != "rerun_sampling_mismatch":
            raise ConfigError(f"tolerance override {name!r} must be positive")
        tolerances[name] = value
    if tolerance_scale != 1.0:
        for name in tolerances:
            if CHECKS[name][1] == "<=":
                tolerances[name] *= tolerance_scale
    return VerifyContext(PhysicalConstants(), tolerances, config.seed)


def run_verify_all(
    config: RunConfig | None = None, tolerance_scale: float = 1.0
) -> VerificationReport:
    """Run every canonical scenario; one report, one row per check.

    The scenarios run in CRITERIA order on the calling thread while a
    two-worker pool computes the three Crank-Nicolson evolutions; a
    scenario that reads one waits for it.
    """
    # deferred: `import qclab.cli` does not need the pool machinery
    from concurrent.futures import ThreadPoolExecutor

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
    # the ground evolution starts from these pairs, and the eigensolve
    # loads the LAPACK bindings, so workers start with both in place
    ctx.harmonic_pairs
    pool = ThreadPoolExecutor(max_workers=2)
    try:
        futures = [pool.submit(getattr, ctx, name) for name in _PREFETCHED]
        for scenario_id, builder in CRITERIA:
            started = time.perf_counter()
            report.checks.extend(builder(ctx))
            report.timing[scenario_id] = time.perf_counter() - started
        for future in futures:
            future.result()  # no worker error goes unreported
    finally:
        pool.shutdown(cancel_futures=True)
    return report
