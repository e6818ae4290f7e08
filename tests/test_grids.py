import math

import numpy as np
import pytest

from qclab import PhysicalConstants, build_grid


def test_grid_is_uniform_and_inclusive():
    grid = build_grid(-3.0, 5.0, 17)
    assert grid.x[0] == -3.0
    assert grid.x[-1] == 5.0
    assert grid.n_points == 17
    assert np.allclose(np.diff(grid.x), grid.dx)
    assert grid.dx == pytest.approx(0.5)


@pytest.mark.parametrize(
    "x_min, x_max, n",
    [(1.0, 1.0, 11), (2.0, -2.0, 11), (-1.0, 1.0, 2), (-1.0, 1.0, 0)],
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
