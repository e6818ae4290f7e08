"""Structured verification reports with deterministic JSON serialization.

A report is a list of named checks, each carrying the measured value,
the tolerance it was held to, the comparison direction, and a short
statement of the physical identity being exercised.  Serialization is
canonical (sorted keys, fixed indentation, shortest round-trip floats),
so two runs with the same configuration and seed produce byte-identical
files once the volatile block (timestamp + runtimes) is dropped — which
is exactly what comparison_payload() does.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Union

SCHEMA_VERSION = 1

Measured = Union[float, int, bool, str]


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
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "comparator": c.comparator,
                    "passed": c.passed,
                    "identity": c.identity,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
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
        p = self.payload() if volatile else self.comparison_payload()
        return json.dumps(p, indent=2, sort_keys=True) + "\n"

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
