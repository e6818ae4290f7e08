"""Run configuration: strict `key = value` files with dotted keys.

One file per run.  Lines are `key = value`; blank lines and `#`
comments are ignored (inline comments allowed).  Every key must appear
in the schema below — unknown or duplicate keys are errors with line
diagnostics, as are values that fail to parse at the declared type.
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


_SCHEMA: dict[str, type] = {
    "grid.x_min": float,
    "grid.x_max": float,
    "grid.n_points": int,
    "constants.hbar": float,
    "constants.mass": float,
    "potential.kind": str,
    "potential.omega": float,
    "potential.height": float,
    "potential.width": float,
    "potential.center": float,
    "potential.csv": str,
    "run.seed": int,
    "eigen.k": int,
    "evolve.state": str,
    "evolve.n": int,
    "evolve.csv": str,
    "evolve.center": float,
    "evolve.momentum": float,
    "evolve.width": float,
    "evolve.dt": float,
    "evolve.n_steps": int,
    "evolve.store_every": int,
    "madelung.state": str,
    "madelung.n": int,
    "madelung.energy": float,
    "madelung.csv": str,
    "hj.x0": float,
    "hj.p0": float,
    "hj.dt": float,
    "hj.n_steps": int,
    "hj.s0": str,
    "hj.energy": float,
    "hj.store_every": int,
    "compare.scenario": str,
    "superpose.coefficients": str,
    "ensemble.n_samples": int,
    "ensemble.k": int,
    "ensemble.mean_energy": float,
    "ensemble.sigma_energy": float,
    "ensemble.dt": float,
    "ensemble.n_steps": int,
    "ensemble.store_every": int,
}

_DEFAULTS: dict[str, Any] = {
    "grid.x_min": -20.0,
    "grid.x_max": 20.0,
    "grid.n_points": 4001,
    "constants.hbar": 1.0,
    "constants.mass": 1.0,
    "potential.kind": "free",
    "potential.omega": 1.0,
    "potential.height": 1.0,
    "potential.width": 1.0,
    "potential.center": 0.0,
    "run.seed": 20260814,
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
            expected = _SCHEMA[key]
        else:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            if expected is int:
                values[key] = int(raw_value)
            elif expected is float:
                values[key] = float(raw_value)
            else:
                values[key] = raw_value
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} expects {expected.__name__}, "
                f"got {raw_value!r}"
            ) from None
    return values


@dataclass
class RunConfig:
    """Everything a subcommand needs: grid, constants, potential,
    scenario parameters, tolerance overrides, seed, output directory."""

    values: dict[str, Any] = field(default_factory=dict)
    out_dir: Path | None = None

    def get(self, key: str, default: Any = None) -> Any:
        if key in self.values:
            return self.values[key]
        if key in _DEFAULTS:
            return _DEFAULTS[key]
        return default

    @property
    def seed(self) -> int:
        return int(self.get("run.seed"))

    @property
    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(
            hbar=float(self.get("constants.hbar")),
            mass=float(self.get("constants.mass")),
        )

    @property
    def grid(self) -> Grid1D:
        return build_grid(
            float(self.get("grid.x_min")),
            float(self.get("grid.x_max")),
            int(self.get("grid.n_points")),
        )

    @property
    def potential(self) -> Potential:
        kind = str(self.get("potential.kind")).lower()
        if kind == "free":
            return FreePotential()
        if kind == "harmonic":
            return HarmonicPotential(omega=float(self.get("potential.omega")))
        if kind == "infinite_well":
            return InfiniteWellPotential()
        if kind == "smooth_barrier":
            return SmoothBarrierPotential(
                height=float(self.get("potential.height")),
                width=float(self.get("potential.width")),
                center=float(self.get("potential.center")),
            )
        if kind == "tabulated":
            csv_path = self.get("potential.csv")
            if not csv_path:
                raise ConfigError("potential.kind=tabulated needs potential.csv")
            path = Path(csv_path)
            if not path.exists():
                raise ConfigError(f"potential.csv does not exist: {path}")
            return load_tabulated_csv(path)
        raise ConfigError(f"unknown potential.kind {kind!r}")

    @property
    def tolerance_overrides(self) -> dict[str, float]:
        prefix = "tolerance."
        return {
            k[len(prefix):]: float(v)
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
