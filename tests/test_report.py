"""Report structure, canonical serialization, and the volatile-field split."""
import json

import pytest

from qclab import CheckResult, VerificationReport, check_against


def _sample_report():
    r = VerificationReport(scenario="demo", metadata={"seed": 1})
    r.checks.append(check_against("a", 1e-9, 1e-6, "norm stays put"))
    r.checks.append(check_against("b", 3.9, 3.5, "refinement gain", comparator=">="))
    r.timing["demo"] = 0.123
    return r


def test_comparator_directions():
    assert check_against("x", 0.5, 1.0, "i").passed
    assert not check_against("x", 2.0, 1.0, "i").passed
    assert check_against("x", 2.0, 1.0, "i", comparator=">=").passed
    assert not check_against("x", 0.5, 1.0, "i", comparator=">=").passed
    # boundary is inclusive both ways
    assert check_against("x", 1.0, 1.0, "i").passed
    assert check_against("x", 1.0, 1.0, "i", comparator=">=").passed


def test_invalid_comparator_is_rejected():
    with pytest.raises(ValueError, match="comparator"):
        CheckResult("x", 0.0, 1.0, True, "i", comparator="<")


def test_report_aggregates_pass_state():
    r = _sample_report()
    assert r.passed
    r.checks.append(check_against("c", 2.0, 1.0, "something tight"))
    assert not r.passed


def test_payload_roundtrips_through_json():
    r = _sample_report()
    payload = json.loads(r.to_json())
    assert payload["schema_version"] == 2
    assert payload["scenario"] == "demo"
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == ["a", "b"]
    assert payload["checks"][1]["comparator"] == ">="
    assert payload["metadata"] == {"seed": 1}
    assert "generated_at" in payload and "timing" in payload


def test_comparison_payload_drops_only_volatile_fields():
    r = _sample_report()
    full = r.payload()
    cmp = r.comparison_payload()
    assert "generated_at" not in cmp and "timing" not in cmp
    kept = {k: v for k, v in full.items() if k not in ("generated_at", "timing")}
    assert cmp == kept


def test_serialization_is_canonical():
    a = _sample_report()
    b = VerificationReport(scenario="demo", metadata={"seed": 1})
    for c in a.checks:
        b.checks.append(c)
    b.timing["demo"] = 99.9  # different runtime, different timestamp
    assert a.to_json(volatile=False) == b.to_json(volatile=False)
    # keys are sorted, so insertion order of metadata cannot leak through
    c = VerificationReport(scenario="demo")
    c.metadata.update({"z": 1, "a": 2})
    d = VerificationReport(scenario="demo")
    d.metadata.update({"a": 2, "z": 1})
    assert c.to_json(volatile=False) == d.to_json(volatile=False)


def test_summary_lines_one_per_check_plus_verdict():
    r = _sample_report()
    lines = r.summary_lines()
    assert len(lines) == 3
    assert lines[0].startswith("[PASS] a:")
    assert lines[1].startswith("[PASS] b:")
    assert lines[2] == "[PASS] scenario demo: 2/2 checks"
    r.checks.append(check_against("c", 2.0, 1.0, "tight"))
    assert r.summary_lines()[-1] == "[FAIL] scenario demo: 2/3 checks"


def test_measured_values_serialize_with_full_precision():
    r = VerificationReport(scenario="demo")
    r.checks.append(check_against("x", 0.1 + 0.2, 1.0, "float fidelity"))
    payload = json.loads(r.to_json())
    assert payload["checks"][0]["measured"] == 0.30000000000000004
