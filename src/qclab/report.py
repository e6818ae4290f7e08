"""Structured verification reports with deterministic JSON serialization.

A report is a list of named checks, each carrying the measured value,
the tolerance it was held to, the comparison direction, and a short
statement of the physical identity being exercised.  Serialization is
canonical (sorted keys, fixed indentation, shortest round-trip floats),
so two runs with the same configuration and seed produce byte-identical
files once the volatile block (timestamp + runtimes) is dropped — which
is exactly what comparison_payload() does.  canonical_json encodes
report.json and every JSON artifact of the CLI.

CHECKS declares every named check once: its default tolerance, its
comparator and the identity it exercises.  A CheckContext holds a run's
tolerances, built from CHECKS and the run config, and turns a measured
number into the named check.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Union

from .config import ConfigError, RunConfig
from .grids import PhysicalConstants

SCHEMA_VERSION = 2  # 2: non-finite floats are strings

Measured = Union[float, int, bool, str]


def _strict(value):
    """value with each non-finite float, however deep, as "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_strict, value))
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def canonical_json(payload) -> str:
    """Strict JSON text: sorted keys, two-space indent, a final newline,
    floats in shortest round-trip repr and non-finite ones as strings."""
    return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


@dataclass(frozen=True)
class CheckResult:
    """One named check: measured vs tolerance under a comparator.

    comparator is "<=" (measured must not exceed tolerance) or ">="
    (measured must reach it).  identity names the physical relation the
    check exercises, e.g. "phase equals principal function for inertial
    motion".
    """

    name: str
    measured: Measured
    tolerance: float
    passed: bool
    identity: str
    comparator: str = "<="
    detail: str = ""

    def __post_init__(self) -> None:
        if self.comparator not in ("<=", ">="):
            raise ValueError(f"comparator must be '<=' or '>=', got {self.comparator!r}")


def check_against(
    name: str,
    measured: float,
    tolerance: float,
    identity: str,
    comparator: str = "<=",
    detail: str = "",
) -> CheckResult:
    """Build a CheckResult, deciding pass/fail from the comparator."""
    if comparator == "<=":
        passed = bool(measured <= tolerance)
    else:
        passed = bool(measured >= tolerance)
    return CheckResult(name, measured, tolerance, passed, identity, comparator, detail)


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
        1e-9,
        "<=",
        "discrete Ehrenfest theorem: in the harmonic well the split-operator "
        "packet's <x> follows the velocity-Verlet trajectory to rounding",
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


@dataclass
class CheckContext:
    """A run's constants and seed, and a tolerance for every check in CHECKS."""

    constants: PhysicalConstants
    tolerances: dict[str, float]
    seed: int

    @classmethod
    def from_config(
        cls,
        config: RunConfig,
        tolerance_scale: float = 1.0,
        constants: PhysicalConstants | None = None,
    ):
        """The CHECKS defaults with the config's overrides and the scale
        applied; constants default to the config's.

        Overrides must name known checks; the scale multiplies "<=" budgets
        only (">=" thresholds have no single sensible scaling direction).
        """
        if not (0.0 < tolerance_scale < math.inf):
            raise ConfigError(
                f"tolerance scale must be positive and finite, got {tolerance_scale}"
            )
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
        return cls(constants or config.constants, tolerances, config.seed)

    def check(self, name: str, measured: float, detail: str = "") -> CheckResult:
        """The named check against this context's tolerance; the comparator
        and the identity come from CHECKS."""
        if name not in self.tolerances:
            raise KeyError(f"no tolerance registered for check {name!r}")
        _, comparator, identity = CHECKS[name]
        return check_against(
            name, measured, self.tolerances[name], identity, comparator, detail
        )


@dataclass
class VerificationReport:
    scenario: str
    checks: list[CheckResult] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    timing: dict[str, float] = field(default_factory=dict)
    generated_at: str = ""

    def __post_init__(self) -> None:
        if not self.generated_at:
            self.generated_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "generated_at": self.generated_at,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "metadata": self.metadata,
            "timing": self.timing,
        }

    def comparison_payload(self) -> dict[str, Any]:
        """The payload minus volatile fields (timestamp, runtimes)."""
        p = self.payload()
        p.pop("generated_at")
        p.pop("timing")
        return p

    def to_json(self, volatile: bool = True) -> str:
        return canonical_json(self.payload() if volatile else self.comparison_payload())

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: measured {c.measured!r} "
                f"{c.comparator} {c.tolerance!r}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"[{verdict}] scenario {self.scenario}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks")
        return lines
