import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import qclab
from qclab import (
    EnsembleSpec,
    FreePotential,
    PhysicalConstants,
    build_grid,
    evolve,
    gaussian_packet,
    integrate_hamilton,
    run_classical_ensemble,
    split_operator_evolve,
)
from qclab.grids import check_run_arguments
from qclab.hamilton_jacobi import caustic_step, principal_function_slices


def test_grid_is_uniform_and_inclusive():
    grid = build_grid(-3.0, 5.0, 17)
    assert grid.x[0] == -3.0
    assert grid.x[-1] == 5.0
    assert grid.n_points == 17
    assert np.allclose(np.diff(grid.x), grid.dx)
    assert grid.dx == pytest.approx(0.5)


@pytest.mark.parametrize(
    "x_min, x_max, n",
    [
        (1.0, 1.0, 11),
        (2.0, -2.0, 11),
        (-1.0, 1.0, 2),
        (-1.0, 1.0, 0),
        # spacings that overflow to inf or underflow to 0
        (-1e308, 1e308, 11),
        (-math.inf, 0.0, 11),
        (0.0, 5e-324, 11),
    ],
)
def test_degenerate_grids_are_rejected(x_min, x_max, n):
    with pytest.raises(ValueError):
        build_grid(x_min, x_max, n)


def test_constants_must_be_positive():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(mass=-1.0)


@pytest.mark.parametrize(
    "kwargs", [{"mass": math.inf}, {"mass": math.nan}, {"hbar": math.inf}]
)
def test_constants_must_be_finite(kwargs):
    with pytest.raises(ValueError, match="positive and finite"):
        PhysicalConstants(**kwargs)


def test_no_public_function_defaults_the_constants():
    # a call that forgets hbar or m must fail, not run at hbar = m = 1
    defaulted = []
    for info in pkgutil.iter_modules(qclab.__path__):
        module = importlib.import_module(f"qclab.{info.name}")
        for name, obj in vars(module).items():
            own = getattr(obj, "__module__", None) == module.__name__
            if name.startswith("_") or not own:
                continue
            functions = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                functions = [f for f in vars(obj).values() if inspect.isfunction(f)]
            for function in functions:
                parameter = inspect.signature(function).parameters.get("constants")
                if parameter is not None and parameter.default is not parameter.empty:
                    defaulted.append(f"{module.__name__}.{function.__qualname__}")
    assert defaulted == []


_GRID = build_grid(-1.0, 1.0, 11)
_UNIT = PhysicalConstants()
_PACKET = gaussian_packet(_GRID, 0.0, 0.0, 0.3, _UNIT)
_RUNNERS = {
    "evolve": lambda dt, n, every: evolve(
        _PACKET, np.zeros(11), dt, n, _UNIT, store_every=every
    ),
    "split_operator_evolve": lambda dt, n, every: split_operator_evolve(
        _PACKET, np.zeros(11), dt, n, _UNIT, store_every=every
    ),
    "integrate_hamilton": lambda dt, n, every: integrate_hamilton(
        FreePotential(), 0.0, 1.0, dt, n, _UNIT
    ),
    # a generator of slices, refused on the call without being iterated
    "characteristics": lambda dt, n, every: principal_function_slices(
        FreePotential(), np.zeros(11), _GRID, dt, n, _UNIT, store_every=every
    ),
    "caustic_step": lambda dt, n, every: caustic_step(
        FreePotential(), np.zeros(11), _GRID, dt, n, _UNIT
    ),
    "ensemble": lambda dt, n, every: run_classical_ensemble(
        EnsembleSpec(np.array([0.5]), np.array([1.0]), 4, 0),
        FreePotential(), _GRID, dt, n, _UNIT, store_every=every,
    ),
}
_BAD_ARGUMENTS = {
    "dt=0": (0.0, 5, 1),
    "dt=inf": (math.inf, 5, 1),
    "dt=nan": (math.nan, 5, 1),
    "n_steps=0": (0.1, 0, 1),
    "store_every=0": (0.1, 5, 0),
}


@pytest.mark.parametrize(
    "runner, arguments",
    [
        (runner, arguments)
        for runner in _RUNNERS
        for arguments in _BAD_ARGUMENTS
        # integrate_hamilton and caustic_step cover every step and take
        # no stride
        if arguments != "store_every=0" or runner not in ("integrate_hamilton", "caustic_step")
    ],
)
def test_every_runner_rejects_bad_run_arguments_alike(runner, arguments):
    dt, n_steps, store_every = _BAD_ARGUMENTS[arguments]
    with pytest.raises(ValueError) as expected:
        check_run_arguments(dt, n_steps, store_every)
    with pytest.raises(ValueError) as raised:
        _RUNNERS[runner](dt, n_steps, store_every)
    assert str(raised.value) == str(expected.value)
