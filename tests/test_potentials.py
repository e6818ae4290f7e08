import math
import warnings

import numpy as np
import pytest

from qclab import (
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    SmoothBarrierPotential,
    TabulatedPotential,
    build_grid,
    load_tabulated_csv,
)
from qclab.grids import PhysicalConstants


@pytest.fixture
def grid():
    return build_grid(-5.0, 5.0, 101)


def test_catalog_shapes_and_values(grid, constants):
    assert np.all(FreePotential().on_grid(grid, constants) == 0.0)
    assert np.all(InfiniteWellPotential().on_grid(grid, constants) == 0.0)

    v_h = HarmonicPotential(2.0).on_grid(grid, constants)
    assert v_h[50] == 0.0
    assert v_h[0] == pytest.approx(0.5 * 4.0 * 25.0)

    v_b = SmoothBarrierPotential(3.0, 0.5, 1.0).on_grid(grid, constants)
    assert np.max(v_b) == pytest.approx(3.0)
    assert grid.x[np.argmax(v_b)] == pytest.approx(1.0)


def test_even_potential_is_exactly_even(constants):
    # symmetric grids store symmetric points bitwise, so V(-x) == V(x)
    grid = build_grid(-7.0, 7.0, 201)
    v = HarmonicPotential(1.0).on_grid(grid, constants)
    assert np.array_equal(v, v[::-1])


def test_parameter_validation():
    with pytest.raises(ValueError):
        HarmonicPotential(0.0)
    with pytest.raises(ValueError):
        SmoothBarrierPotential(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SmoothBarrierPotential(1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: HarmonicPotential(math.inf),
        lambda: HarmonicPotential(math.nan),
        lambda: HarmonicPotential(1e300),  # omega finite, omega^2 not
        lambda: SmoothBarrierPotential(math.inf, 1.0, 0.0),
        lambda: SmoothBarrierPotential(1.0, math.inf, 0.0),
        lambda: SmoothBarrierPotential(1.0, 1.0, math.nan),
    ],
    ids=[
        "omega-inf", "omega-nan", "omega-squared-inf", "height-inf", "width-inf",
        "center-nan",
    ],
)
def test_parameters_must_be_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_tabulated_rejects_non_finite_samples(constants):
    # a 241-point harmonic table with V = NaN at x = 0
    grid = build_grid(-12.0, 12.0, 241)
    v = HarmonicPotential(1.0).on_grid(grid, constants)
    v[120] = np.nan
    with pytest.raises(ValueError, match="sample 120 is not finite"):
        TabulatedPotential(grid.x, v)
    x = grid.x.copy()
    x[-1] = np.inf
    with pytest.raises(ValueError, match="sample 240 is not finite"):
        TabulatedPotential(x, np.zeros(241))


def test_tabulated_must_match_grid_exactly(grid, constants):
    tab = TabulatedPotential(grid.x, np.cos(grid.x))
    assert np.array_equal(tab.on_grid(grid, constants), np.cos(grid.x))
    other = build_grid(-5.0, 5.0, 102)
    with pytest.raises(ValueError, match="do not match the grid"):
        tab.on_grid(other, constants)


def test_potential_energy_interpolates_between_samples(grid, constants):
    tab = TabulatedPotential(grid.x, grid.x**2)
    # midpoint of a linear interpolant of x^2 between adjacent samples
    x_mid = 0.5 * (grid.x[10] + grid.x[11])
    expected = 0.5 * (grid.x[10] ** 2 + grid.x[11] ** 2)
    assert tab.energy(x_mid, constants) == pytest.approx(expected)
    with pytest.raises(ValueError, match="outside the tabulated domain"):
        tab.energy(5.1, constants)


def test_force_is_minus_gradient(grid, constants):
    xs = np.linspace(-3.0, 3.0, 37)
    eps = 1e-6
    for pot in (
        HarmonicPotential(1.7),
        SmoothBarrierPotential(2.0, 0.8, -0.5),
    ):
        numeric = -(
            pot.energy(xs + eps, constants)
            - pot.energy(xs - eps, constants)
        ) / (2.0 * eps)
        assert np.allclose(pot.force(xs, constants), numeric, atol=1e-8)


def test_free_kinds_exert_no_force(constants):
    xs = np.array([-1.0, 0.0, 2.0])
    for pot in (FreePotential(), InfiniteWellPotential()):
        assert np.array_equal(pot.force(xs, constants), np.zeros(3))
        assert pot.energy(1.5, constants) == 0.0


def test_tabulated_force_is_the_interpolated_slope(grid, constants):
    tab = TabulatedPotential(grid.x, grid.x**2)
    inner = grid.x[1:-1]
    assert np.allclose(tab.force(inner, constants), -2.0 * inner, atol=1e-12)
    with pytest.raises(ValueError, match="outside the tabulated domain"):
        tab.force(np.array([0.0, 5.5]), constants)


def test_hard_wall_table_samples_without_overflow_warnings(constants):
    # the derivative table overflows on 1e308 walls; sampling V must not
    # build it
    grid = build_grid(-1.0, 1.0, 21)
    v = np.zeros(21)
    v[0] = v[-1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = TabulatedPotential(grid.x, v)
        assert np.array_equal(tab.on_grid(grid, constants), v)
        assert tab.energy(0.0, constants) == 0.0


def test_force_scalar_and_array_agree(constants):
    pot = HarmonicPotential(1.0)
    xs = np.array([-1.0, 0.25, 2.0])
    batch = pot.force(xs, constants)
    singles = [pot.force(float(x), constants) for x in xs]
    assert np.allclose(batch, singles)


def test_tabulated_csv_roundtrip(tmp_path, constants):
    grid = build_grid(0.0, 1.0, 11)
    path = tmp_path / "table.csv"
    rows = ["x,V"] + [f"{float(x)!r},{float(x * x)!r}" for x in grid.x]
    path.write_text("\n".join(rows) + "\n")
    tab = load_tabulated_csv(path)
    assert np.array_equal(tab.x, grid.x)
    assert np.array_equal(tab.on_grid(grid, constants), grid.x**2)


def test_tabulated_csv_rejects_garbage_after_data(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,V\n0.0,1.0\n0.5,oops\n")
    with pytest.raises(ValueError, match="malformed potential row"):
        load_tabulated_csv(path)


def test_constants_default_natural_units():
    c = PhysicalConstants()
    assert c.hbar == 1.0 and c.mass == 1.0
