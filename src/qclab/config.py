"""Run configuration: strict `key = value` files with dotted keys.

One file per run.  Lines are `key = value`; blank lines and `#`
comments are ignored (inline comments allowed).  Every key must appear
in the schema below, which also holds its default — unknown or duplicate
keys are errors with line diagnostics, as are values that fail to parse
at the declared type and non-finite float values.
`tolerance.<check-name>` keys are accepted wholesale (floats); the
check names themselves are validated by the verification layer, which
owns the tolerance table.

Example::

    # harmonic-well eigensolve
    grid.x_min = -12
    grid.x_max = 12
    grid.n_points = 2401
    potential.kind = harmonic
    potential.omega = 1.0
    eigen.k = 5
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from .grids import Grid1D, PhysicalConstants, build_grid
from .potentials import (
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    Potential,
    SmoothBarrierPotential,
    load_tabulated_csv,
)


class ConfigError(Exception):
    """Malformed configuration; message carries file/line context."""


# key -> (type, default).  None: the key has no default (file paths,
# madelung.energy, superpose.coefficients, hj.s0) or the subcommand
# derives it from other keys (madelung.state, hj.store_every).
_SCHEMA: dict[str, tuple[type, Any]] = {
    "grid.x_min": (float, -20.0),
    "grid.x_max": (float, 20.0),
    "grid.n_points": (int, 4001),
    "constants.hbar": (float, 1.0),
    "constants.mass": (float, 1.0),
    "potential.kind": (str, "free"),
    "potential.omega": (float, 1.0),
    "potential.height": (float, 1.0),
    "potential.width": (float, 1.0),
    "potential.center": (float, 0.0),
    "potential.csv": (str, None),
    "run.seed": (int, 20260814),
    "eigen.k": (int, 5),
    "evolve.state": (str, "gaussian"),
    "evolve.n": (int, 0),
    "evolve.csv": (str, None),
    "evolve.center": (float, 0.0),
    "evolve.momentum": (float, 0.0),
    "evolve.width": (float, 1.0),
    "evolve.dt": (float, 1e-3),
    "evolve.n_steps": (int, 1000),
    "evolve.store_every": (int, 100),
    "madelung.state": (str, None),
    "madelung.n": (int, 0),
    "madelung.energy": (float, None),
    "madelung.csv": (str, None),
    "hj.x0": (float, 0.0),
    "hj.p0": (float, 1.0),
    "hj.dt": (float, 1e-3),
    "hj.n_steps": (int, 1000),
    "hj.s0": (str, None),
    "hj.energy": (float, 0.5),
    "hj.store_every": (int, None),
    "compare.scenario": (str, "free"),
    "superpose.coefficients": (str, None),
    "ensemble.n_samples": (int, 100_000),
    "ensemble.k": (int, 8),
    "ensemble.mean_energy": (float, 4.0),
    "ensemble.sigma_energy": (float, 1.5),
    "ensemble.dt": (float, 1e-3),
    "ensemble.n_steps": (int, 6283),
    "ensemble.store_every": (int, 100),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Any]:
    """Typed key/value map from config text; raises ConfigError with
    line numbers on any violation."""
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not key or not raw_value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key.startswith("tolerance."):
            if len(key) <= len("tolerance."):
                raise ConfigError(f"{source}:{lineno}: tolerance key needs a check name")
            expected: type = float
        elif key in _SCHEMA:
            expected = _SCHEMA[key][0]
        else:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            value = expected(raw_value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} expects {expected.__name__}, "
                f"got {raw_value!r}"
            ) from None
        if expected is float and not math.isfinite(value):
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} must be finite, got {raw_value!r}"
            )
        values[key] = value
    return values


@dataclass
class RunConfig:
    """Everything a subcommand needs: grid, constants, potential,
    scenario parameters, tolerance overrides, seed, output directory."""

    values: dict[str, Any] = field(default_factory=dict)
    out_dir: Path | None = None

    def get(self, key: str) -> Any:
        """The key's value, else its schema default; KeyError outside the schema."""
        _, default = _SCHEMA[key]
        return self.values.get(key, default)

    @property
    def seed(self) -> int:
        return self.get("run.seed")

    @property
    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(
            hbar=self.get("constants.hbar"), mass=self.get("constants.mass")
        )

    @property
    def grid(self) -> Grid1D:
        return build_grid(
            self.get("grid.x_min"), self.get("grid.x_max"), self.get("grid.n_points")
        )

    @property
    def potential(self) -> Potential:
        kind = self.get("potential.kind").lower()
        if kind == "free":
            return FreePotential()
        if kind == "harmonic":
            return HarmonicPotential(omega=self.get("potential.omega"))
        if kind == "infinite_well":
            return InfiniteWellPotential()
        if kind == "smooth_barrier":
            return SmoothBarrierPotential(
                height=self.get("potential.height"),
                width=self.get("potential.width"),
                center=self.get("potential.center"),
            )
        if kind == "tabulated":
            csv_path = self.get("potential.csv")
            if not csv_path:
                raise ConfigError("potential.kind=tabulated needs potential.csv")
            path = Path(csv_path)
            if not path.exists():
                raise ConfigError(f"potential.csv does not exist: {path}")
            try:
                return load_tabulated_csv(path)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        raise ConfigError(f"unknown potential.kind {kind!r}")

    @property
    def tolerance_overrides(self) -> dict[str, float]:
        prefix = "tolerance."
        return {
            k[len(prefix):]: v
            for k, v in self.values.items()
            if k.startswith(prefix)
        }


def load_run_config(
    path: Union[str, Path, None], out_dir: Union[str, Path, None] = None
) -> RunConfig:
    """RunConfig from a file (or pure defaults when path is None)."""
    if path is None:
        values: dict[str, Any] = {}
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file does not exist: {p}")
        values = parse_config_text(p.read_text(), source=str(p))
    return RunConfig(values=values, out_dir=Path(out_dir) if out_dir else None)
