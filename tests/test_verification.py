"""The verification context: tolerance table, overrides, scale semantics."""
import math

import pytest

from qclab import ConfigError, make_context
from qclab.config import RunConfig
from qclab.verification import DEFAULT_TOLERANCES, GREATER_EQUAL


def test_default_context_carries_the_full_table():
    ctx = make_context()
    assert ctx.tolerances == DEFAULT_TOLERANCES
    assert ctx.seed == 20260814


def test_check_requires_a_registered_name():
    ctx = make_context()
    with pytest.raises(KeyError, match="no tolerance registered"):
        ctx.check("made_up_check", 0.0, "nothing")


def test_check_picks_the_comparator_from_the_name():
    ctx = make_context()
    upper = ctx.check("norm_drift", 0.0, "i")
    assert upper.comparator == "<=" and upper.passed
    lower = ctx.check("stationary_overlap", 0.9, "i")
    assert lower.comparator == ">=" and not lower.passed


def test_overrides_replace_single_entries():
    config = RunConfig({"tolerance.norm_drift": 3e-7})
    ctx = make_context(config)
    assert ctx.tolerances["norm_drift"] == 3e-7
    assert ctx.tolerances["energy_drift"] == DEFAULT_TOLERANCES["energy_drift"]


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
    for name, default in DEFAULT_TOLERANCES.items():
        if name in GREATER_EQUAL:
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
