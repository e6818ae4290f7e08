"""The correctness gates reject tampered runs and accept good ones.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gates  # noqa: E402


def _check(name, measured, tolerance, comparator="<="):
    passed = measured <= tolerance if comparator == "<=" else measured >= tolerance
    return {
        "name": name,
        "measured": measured,
        "tolerance": tolerance,
        "comparator": comparator,
        "passed": passed,
    }


@pytest.fixture
def verify_report():
    return {
        "schema_version": 1,
        "scenario": "verify-all",
        "generated_at": "2026-01-01T00:00:00+0000",
        "passed": False,
        "checks": [
            _check("inertial_phase_vs_action", 1e-12, 1e-10),
            _check("harmonic_level_error", 0.00012812869169920305, 1e-4),
            _check("harmonic_refinement_gain", 3.99, 3.5, ">="),
            _check("ehrenfest_position_deviation", 3.996e-4, 1e-3),
            _check("ensemble_tv_matched", 0.0023, 0.01),
            _check("rerun_sampling_mismatch", 0.0, 0.0),
        ],
        "metadata": {"seed": 7},
        "timing": {"harmonic-spectrum": 0.15},
    }


def test_verify_all_gate_accepts_the_known_red_run(verify_report):
    assert gates.verify_all_failures(1, verify_report) == []


def test_verify_all_gate_rejects_a_second_failing_check(verify_report):
    verify_report["checks"][3] = _check("ehrenfest_position_deviation", 2e-3, 1e-3)
    assert gates.verify_all_failures(1, verify_report)


def test_verify_all_gate_rejects_criterion_02_passing(verify_report):
    verify_report["checks"][1] = _check("harmonic_level_error", 0.9e-4, 1e-4)
    assert gates.verify_all_failures(1, verify_report)
    assert gates.verify_all_failures(0, verify_report)


def test_verify_all_gate_rejects_a_widened_or_moved_criterion_02(verify_report):
    widened = copy.deepcopy(verify_report)
    widened["checks"][1]["tolerance"] = 1.1e-4
    assert gates.verify_all_failures(1, widened)
    moved = copy.deepcopy(verify_report)
    moved["checks"][1]["measured"] = 5e-4
    assert gates.verify_all_failures(1, moved)


def test_verify_all_gate_rejects_other_exit_codes(verify_report):
    assert gates.verify_all_failures(0, verify_report)
    assert gates.verify_all_failures(2, verify_report)


def test_digest_ignores_volatile_fields_only(verify_report):
    base = gates.digest(verify_report)
    volatile = copy.deepcopy(verify_report)
    volatile["generated_at"] = "2030-01-01T00:00:00+0000"
    volatile["timing"] = {"harmonic-spectrum": 9.0}
    assert gates.digest(volatile) == base
    drifted = copy.deepcopy(verify_report)
    drifted["checks"][4]["measured"] = 0.0024
    assert gates.digest(drifted) != base


def test_digest_drift_between_repetitions_is_a_failure():
    assert gates.digest_failures(["a", "a", "a"]) == {}
    assert set(gates.digest_failures(["a", "b", "a", "c"])) == {1, 3}


def _write_artifacts(out, config):
    out.mkdir(parents=True)
    (out / "report.json").write_text("{}")
    for pattern, count in gates.CLI_CONFIGS[config][1].items():
        for i in range(count):
            (out / pattern.replace("*", f"{i:04d}")).write_text("x")


def test_cli_gate(tmp_path):
    out = tmp_path / "ensemble"
    _write_artifacts(out, "ensemble")
    report = {"checks": [_check("ensemble_tv_matched", 0.0015, 0.01)]}
    assert gates.cli_failures("ensemble", 0, report, out) == []
    assert gates.cli_failures("ensemble", 1, report, out)
    assert gates.cli_failures("ensemble", 2, report, out)
    failing = {"checks": [_check("ensemble_tv_matched", 0.02, 0.01)]}
    assert gates.cli_failures("ensemble", 0, failing, out)
    (out / "sample_energies.csv").unlink()
    assert gates.cli_failures("ensemble", 0, report, out)


def _spectrum_result(omega=1.0):
    grids = []
    for n_points in gates.SPECTRUM_GRIDS:
        dx = 24.0 / (n_points - 1)
        energies = [
            (n + 0.5) * omega - dx**2 * omega**2 * (2 * n * n + 2 * n + 1) / 32.0
            for n in range(gates.SPECTRUM_K)
        ]
        grids.append(
            {
                "n_points": n_points,
                "dx": dx,
                "energies": energies,
                "orthonormality": 4e-16,
                "identity_residuals": [6e-5] * gates.SPECTRUM_K,
            }
        )
    return {"omega": omega, "grids": grids}


def test_spectrum_gate_accepts_levels_at_the_stencil_defect():
    result = _spectrum_result(1.03)
    assert gates.spectrum_failures(0, result) == []
    assert len(gates.spectrum_checks(result)) == 3 * (2 + gates.SPECTRUM_K)


def test_spectrum_gate_rejects_bad_runs():
    assert gates.spectrum_failures(1, _spectrum_result())
    level = _spectrum_result()
    level["grids"][0]["energies"][4] -= 1e-5
    assert gates.spectrum_failures(0, level)
    ortho = _spectrum_result()
    ortho["grids"][2]["orthonormality"] = 1e-9
    assert gates.spectrum_failures(0, ortho)
    identity = _spectrum_result()
    identity["grids"][1]["identity_residuals"][7] = 2e-3
    assert gates.spectrum_failures(0, identity)
    missing = _spectrum_result()
    del missing["grids"][2]
    assert gates.spectrum_failures(0, missing)


def test_accuracy_ratio_uses_passing_upper_bounds_only(verify_report):
    # harmonic_level_error fails, the >= row and the zero tolerance are
    # skipped, and the TV row is sampling noise: ehrenfest sets the ratio
    assert gates.accuracy_ratio(verify_report["checks"]) == pytest.approx(0.3996)
    assert gates.accuracy_ratio([]) == 0.0
