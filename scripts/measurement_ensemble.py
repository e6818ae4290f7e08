#!/usr/bin/env python3
"""A superposition's energy statistics vs a classical ensemble of orbits.

A superposition over bound levels carries a frozen distribution |c_n|^2
over energies.  Its classical counterpart is a statistical ensemble: a
hidden parameter distributes total energy over samples, each then
integrated exactly.  The total-variation distance between the two energy
histograms falls like 1/sqrt(n_samples) when the ensemble is drawn from
|c_n|^2 — and saturates at an O(1) value when it is drawn from anything
else.  This script shows both branches.

Usage: python3 scripts/measurement_ensemble.py [--seed S]
"""
import argparse

import numpy as np

from qclab import (
    EnsembleSpec,
    HarmonicPotential,
    RunConfig,
    assemble_hamiltonian,
    build_grid,
    compare_energy_statistics,
    draw_sample_energies,
    energy_distribution,
    gaussian_weights,
    solve_lowest_eigenpairs,
)
from qclab.grids import PhysicalConstants


def main() -> None:
    defaults = RunConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--levels", type=int, default=8)
    args = parser.parse_args()
    if args.levels < 1 or args.seed < 0:
        parser.error(f"need --levels >= 1 and --seed >= 0, got {args.levels} and {args.seed}")
    grid = build_grid(-12.0, 12.0, 2401)
    if args.levels > grid.n_points - 2:
        parser.error(f"need --levels <= {grid.n_points - 2} on this grid, got {args.levels}")

    h = assemble_hamiltonian(HarmonicPotential(1.0), grid, PhysicalConstants())
    pairs = solve_lowest_eigenpairs(h, args.levels)
    energies = np.array([pair.energy for pair in pairs])

    # the Gaussian energy profile `qclab ensemble` uses by default
    mean = defaults.get("ensemble.mean_energy")
    sigma = defaults.get("ensemble.sigma_energy")
    weights = gaussian_weights(energies, mean, sigma)
    quantum = energy_distribution(weights, pairs)
    probabilities = np.abs(weights.coefficients) ** 2

    print("quantum side: |c_n|^2 over the lowest", args.levels, "levels")
    for n, (e, p) in enumerate(quantum):
        print(f"  n={n}  E={e:9.6f}  p={p:.4f}")

    print("\nmatched ensemble (drawn from |c_n|^2):")
    print(f"{'n_samples':>10} {'TV distance':>12}")
    for n_samples in (100, 1_000, 10_000, 100_000):
        spec = EnsembleSpec(energies, probabilities, n_samples, args.seed)
        tv = compare_energy_statistics(quantum, draw_sample_energies(spec))
        print(f"{n_samples:>10} {tv:>12.5f}")

    print("\nmismatched ensemble (drawn uniformly):")
    uniform = np.full(args.levels, 1.0 / args.levels)
    for n_samples in (10_000, 100_000):
        spec = EnsembleSpec(energies, uniform, n_samples, args.seed)
        tv = compare_energy_statistics(quantum, draw_sample_energies(spec))
        print(f"{n_samples:>10} {tv:>12.5f}   (saturates, does not vanish)")


if __name__ == "__main__":
    main()
