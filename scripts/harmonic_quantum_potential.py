#!/usr/bin/env python3
"""The quantum potential of harmonic eigenstates, level by level.

For a stationary state the effective potential V + V_q is pinned at the
energy eigenvalue wherever the state has support — the quantum potential
exactly cancels the well's shape.  This script solves the lowest k
levels, tabulates how flat V_t actually is on the working grid, and
evaluates the multiplied-form oscillator identity residual per level.

Usage: python3 scripts/harmonic_quantum_potential.py [--levels K] [--csv OUT]
"""
import argparse
from pathlib import Path

import numpy as np

from qclab import (
    HarmonicPotential,
    assemble_hamiltonian,
    build_grid,
    decompose,
    quantum_potential,
    solve_lowest_eigenpairs,
    total_potential,
)
from qclab.cli import _write_columns
from qclab.grids import PhysicalConstants
from qclab.madelung import verify_oscillator_identity


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=5)
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--csv", type=str, default=None,
                        help="optionally dump x, V, V_q, V_t per level")
    args = parser.parse_args()
    if args.levels < 1:
        parser.error(f"need --levels >= 1, got {args.levels}")
    grid = build_grid(-12.0, 12.0, 2401)
    if args.levels > grid.n_points - 2:
        parser.error(f"need --levels <= {grid.n_points - 2} on this grid, got {args.levels}")

    constants = PhysicalConstants()
    potential = HarmonicPotential(args.omega)
    v = potential.on_grid(grid, constants)
    h = assemble_hamiltonian(potential, grid, constants)
    pairs = solve_lowest_eigenpairs(h, args.levels)

    print(f"harmonic well, omega = {args.omega}, dx = {grid.dx:.4f}")
    print(f"{'n':>3} {'E_n':>12} {'max|V_t - E_n|':>16} "
          f"{'identity residual':>18}")
    header, columns = ["x", "v"], [grid.x, v]
    for pair in pairs:
        polar = decompose(pair.state, constants)
        v_q = quantum_potential(polar, constants)
        v_t = total_potential(v_q, v)
        flatness = float(np.nanmax(np.abs(v_t - pair.energy)))
        residual = verify_oscillator_identity(
            pair.index, pair, args.omega, constants
        )
        print(f"{pair.index:>3} {pair.energy:>12.8f} {flatness:>16.3e} "
              f"{residual:>18.3e}")
        header += [f"v_q_{pair.index}", f"v_t_{pair.index}"]
        columns += [v_q, v_t]

    if args.csv:
        _write_columns(Path(args.csv), header, *columns)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
