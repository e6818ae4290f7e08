"""Command-line entry point: every scenario as a config-driven subcommand.

Each subcommand reads one `key = value` config file (all keys optional,
defaults come from the config schema), writes machine-readable artifacts
(CSV for numeric fields, JSON for summaries) plus a `report.json` check
report into the output directory, and prints one [PASS]/[FAIL] line per
check.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
config error.  Identical config and seed give byte-identical reports up
to the `generated_at` timestamp and the `timing` block.

Subcommands:
  eigen       lowest-k spectrum: eigenvalues.json, eigenfunctions.csv
  evolve      Crank-Nicolson run: slice_*.csv, observables.csv
  madelung    polar decomposition: polar.csv, summary.json
  hj          classical side: trajectory.csv, s_field_*.csv
  hj-compare  named quantum-vs-classical phase comparisons
  superpose   coefficients -> psi0.csv, energy_distribution.json
  ensemble    classical draws vs |c_n|^2: histogram_t*.csv,
              sample_energies.csv, comparison.json
  verify-all  the full canonical acceptance run
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_run_config
from .ensemble import (
    EnsembleSpec,
    WeightingFunction,
    build_superposition,
    check_run_arguments,
    compare_energy_statistics,
    energy_distribution,
    nearest_level_counts,
    project,
    run_classical_ensemble,
)
from .evolution import Observable, evolve, expectation
from .grids import Grid1D
from .hamilton_jacobi import (
    free_principal_function,
    integrate_hamilton,
    principal_function_from_characteristics,
)
from .madelung import (
    decompose,
    quantum_potential,
    recompose,
    total_potential,
    verify_1d_amplitude_relation,
    verify_modified_hj,
    verify_oscillator_identity,
)
from .potentials import HarmonicPotential
from .report import VerificationReport
from .spectral import (
    EigenPair,
    assemble_hamiltonian,
    solve_lowest_eigenpairs,
)
from .states import WaveFunction, gaussian_packet, harmonic_eigenfunction, plane_wave
from .verification import (
    VerifyContext,
    free_characteristics_check,
    inertial_checks,
    make_context,
    phase_action_gap_check,
    run_verify_all,
)


def _write_columns(path: Path, header: list[str], *columns) -> None:
    """CSV with one array per column: floats as repr, ints and bools as int.

    Callers that must show masked or non-finite entries as nan replace
    them with np.nan first.
    """
    cells = [
        (c.astype(int) if c.dtype == bool else c).tolist()
        for c in map(np.asarray, columns)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_wavefunction_csv(path: Path, grid: Grid1D) -> WaveFunction:
    """Read (x, re, im) rows; the x column must match the run grid."""
    if not path.exists():
        raise ConfigError(f"wavefunction csv does not exist: {path}")
    data = np.genfromtxt(path, delimiter=",", names=True)
    for column in ("x", "re", "im"):
        if column not in (data.dtype.names or ()):
            raise ConfigError(f"{path}: missing column {column!r}")
    if data["x"].shape != grid.x.shape or not np.allclose(
        data["x"], grid.x, rtol=0.0, atol=1e-12 * grid.dx
    ):
        raise ConfigError(
            f"{path}: x column does not match the configured grid "
            f"({data['x'].size} points vs {grid.n_points})"
        )
    bad = ~(np.isfinite(data["re"]) & np.isfinite(data["im"]))
    if bad.any():
        x_bad = float(data["x"][bad][0])
        raise ConfigError(f"{path}: non-finite re/im value at x = {x_bad!r}")
    return WaveFunction(data["re"] + 1j * data["im"], grid)


def _write_wavefunction_csv(path: Path, psi: WaveFunction) -> None:
    """(x, re, im) rows, the format _load_wavefunction_csv reads."""
    _write_columns(path, ["x", "re", "im"], psi.grid.x, psi.values.real, psi.values.imag)


def _solve_pairs(config: RunConfig, k: int) -> list[EigenPair]:
    h = assemble_hamiltonian(config.potential, config.grid, config.constants)
    return solve_lowest_eigenpairs(h, k)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eigen(config: RunConfig, ctx: VerifyContext, out: Path) -> VerificationReport:
    k = config.get("eigen.k")
    if k <= 0:
        raise ConfigError(f"eigen.k must be >= 1, got {k}")
    pairs = _solve_pairs(config, k)
    grid = config.grid

    _write_json(out / "eigenvalues.json", [pair.energy for pair in pairs])
    _write_columns(
        out / "eigenfunctions.csv",
        ["x"] + [f"psi_{n}" for n in range(k)],
        grid.x,
        *(pair.state.values.real for pair in pairs),
    )

    gram = np.array(
        [[pairs[i].state.inner(pairs[j].state) for j in range(k)] for i in range(k)]
    )
    ortho = float(np.max(np.abs(gram - np.eye(k))))
    report = VerificationReport(
        scenario="eigen",
        metadata={"k": k, "eigenvalues": [pair.energy for pair in pairs]},
    )
    report.add(
        ctx.check(
            "eigenbasis_orthonormality",
            ortho,
            "eigenstates are orthonormal under the trapezoid inner product",
            detail=f"max |<i|j> - delta_ij| over {k} states",
        )
    )
    return report


def _initial_state(config: RunConfig) -> WaveFunction:
    kind = config.get("evolve.state").lower()
    grid, constants = config.grid, config.constants
    if kind == "gaussian":
        return gaussian_packet(
            grid,
            config.get("evolve.center"),
            config.get("evolve.momentum"),
            config.get("evolve.width"),
            constants,
        )
    if kind == "eigenstate":
        n = config.get("evolve.n")
        if n < 0:
            raise ConfigError(f"evolve.n must be >= 0, got {n}")
        return _solve_pairs(config, n + 1)[n].state
    if kind == "csv":
        path = config.get("evolve.csv")
        if not path:
            raise ConfigError("evolve.state=csv needs evolve.csv")
        return _load_wavefunction_csv(Path(path), grid).normalized()
    raise ConfigError(f"unknown evolve.state {kind!r}")


def _cmd_evolve(config: RunConfig, ctx: VerifyContext, out: Path) -> VerificationReport:
    grid, constants = config.grid, config.constants
    v = config.potential.on_grid(grid, constants)
    psi0 = _initial_state(config)
    dt = config.get("evolve.dt")
    n_steps = config.get("evolve.n_steps")
    store_every = config.get("evolve.store_every")
    result = evolve(psi0, v, dt, n_steps, constants, store_every=store_every)

    for k, w in enumerate(result.slices):
        _write_wavefunction_csv(out / f"slice_{k:04d}.csv", w)
    _write_columns(
        out / "observables.csv",
        ["t", "norm", "position", "momentum", "energy"],
        [w.time for w in result.slices],
        result.norm_history,
        [expectation(w, Observable.POSITION, constants) for w in result.slices],
        [expectation(w, Observable.MOMENTUM, constants) for w in result.slices],
        result.energy_history,
    )

    drift = float(np.max(np.abs(result.norm_history - result.norm_history[0])))
    e0 = result.energy_history[0]
    e_drift = float(np.max(np.abs(result.energy_history - e0)) / max(abs(e0), 1e-12))
    report = VerificationReport(
        scenario="evolve",
        metadata={
            "state": config.get("evolve.state"),
            "dt": dt,
            "n_steps": n_steps,
            "store_every": store_every,
        },
    )
    report.add(
        ctx.check(
            "norm_drift",
            drift,
            "Crank-Nicolson conserves the discrete norm",
            detail=f"{n_steps} steps, dt={dt}",
        )
    )
    report.add(
        ctx.check(
            "energy_drift",
            e_drift,
            "the Cayley stepper commutes with H: <H> is a constant of motion",
            detail="relative drift of the energy expectation",
        )
    )
    return report


def _cmd_madelung(config: RunConfig, ctx: VerifyContext, out: Path) -> VerificationReport:
    grid, constants = config.grid, config.constants
    kind = config.get("madelung.state")
    if kind is None:
        kind = "csv" if config.get("madelung.csv") else "plane_wave"
    kind = kind.lower()
    energy = config.get("madelung.energy")
    oscillator_index = None

    if kind == "plane_wave":
        # a plane wave needs an energy; a csv state may go without
        energy = 0.5 if energy is None else energy
        psi = plane_wave(grid, energy, constants)
    elif kind == "harmonic":
        n = config.get("madelung.n")
        omega = config.get("potential.omega")
        psi = harmonic_eigenfunction(n, grid, omega, constants)
        energy = (n + 0.5) * constants.hbar * omega
        oscillator_index = n
    elif kind == "csv":
        path = config.get("madelung.csv")
        if not path:
            raise ConfigError("madelung.state=csv needs madelung.csv")
        psi = _load_wavefunction_csv(Path(path), grid)
    else:
        raise ConfigError(f"unknown madelung.state {kind!r}")

    polar = decompose(psi, constants)
    v = config.potential.on_grid(grid, constants)
    v_q = quantum_potential(polar, constants)
    v_t = total_potential(v_q, v)
    _write_columns(
        out / "polar.csv",
        ["x", "lambda", "phi", "v_q", "v_t", "masked"],
        grid.x,
        polar.modulus,
        *(np.where(np.isfinite(a), a, np.nan) for a in (polar.phase, v_q, v_t)),
        polar.node_mask,
    )

    roundtrip = recompose(polar, constants)
    # compare up to the (physically irrelevant) global phase freeze at
    # masked points: direct difference where the input was unmasked
    diff = np.abs(roundtrip.values[~polar.node_mask] - psi.values[~polar.node_mask])
    roundtrip_err = float(np.max(diff)) if diff.size else 0.0

    summary: dict = {
        "state": kind,
        "node_count": int(np.sum(polar.node_mask)),
        "v_q_peak": float(np.nanmax(np.abs(v_q))),
    }
    relation = verify_1d_amplitude_relation(polar, constants)
    summary["amplitude_relation"] = {
        "vacuous": relation.vacuous,
        "deviation": None if relation.vacuous else float(relation.deviation),
    }
    if energy is not None:
        summary["modified_hj_residual"] = float(
            verify_modified_hj(psi, v, constants, energy=energy)
        )
        summary["energy"] = energy
    if oscillator_index is not None:
        pair = EigenPair(energy=energy, state=psi, index=oscillator_index)
        summary["oscillator_identity_residual"] = verify_oscillator_identity(
            oscillator_index, pair, config.get("potential.omega"), constants
        )
    _write_json(out / "summary.json", summary)

    report = VerificationReport(scenario="madelung", metadata=summary)
    report.add(
        ctx.check(
            "polar_roundtrip_error",
            roundtrip_err,
            "lambda e^{i phi / hbar} reproduces psi",
        )
    )
    if config.get("potential.kind") == "free" and energy is not None:
        # free stationary states are taken in the running-wave
        # normalization used throughout; a standing wave fails loudly
        report.add(
            ctx.check(
                "inertial_quantum_potential",
                summary["v_q_peak"],
                "constant modulus makes the quantum potential vanish",
                detail="free stationary state",
            )
        )
    if oscillator_index is not None:
        report.add(
            ctx.check(
                "oscillator_identity_residual",
                summary["oscillator_identity_residual"],
                "lambda_n'' + (2m/hbar^2)[(n+1/2)hbar w - m w^2 x^2/2] lambda_n = 0",
                detail=f"n={oscillator_index}",
            )
        )
    return report


def _cmd_hj(config: RunConfig, ctx: VerifyContext, out: Path) -> VerificationReport:
    grid, constants = config.grid, config.constants
    potential = config.potential
    dt = config.get("hj.dt")
    n_steps = config.get("hj.n_steps")
    trajectory = integrate_hamilton(
        potential, config.get("hj.x0"), config.get("hj.p0"), dt, n_steps, constants
    )
    _write_columns(
        out / "trajectory.csv",
        ["t", "x", "p", "action"],
        trajectory.times,
        trajectory.positions,
        trajectory.momenta,
        trajectory.actions,
    )

    report = VerificationReport(
        scenario="hj",
        metadata={"dt": dt, "n_steps": n_steps, "potential": config.get("potential.kind")},
    )
    h_series = trajectory.momenta**2 / (2.0 * constants.mass) + potential.energy(
        trajectory.positions, constants
    )
    h0 = h_series[0]
    scale = max(abs(float(h0)), 1e-12)
    report.add(
        ctx.check(
            "trajectory_energy_drift",
            float(np.max(np.abs(h_series - h0)) / scale),
            "the Stoermer-Verlet trajectory conserves the Hamiltonian",
            detail=f"relative to H(0)={float(h0)!r}",
        )
    )

    s0_kind = config.get("hj.s0")
    if s0_kind is None:
        return report
    s0_kind = s0_kind.lower()
    if s0_kind == "free":
        s_fn = free_principal_function(config.get("hj.energy"), constants)
        s0 = s_fn(grid.x, 0.0)
    elif s0_kind == "zero":
        s0 = np.zeros(grid.n_points)
    else:
        raise ConfigError(f"unknown hj.s0 {s0_kind!r} (free | zero)")
    field = principal_function_from_characteristics(
        potential, s0, grid, dt, n_steps, constants
    )
    stride = config.get("hj.store_every")
    if stride is None:
        stride = max(1, n_steps // 10)
    for k in range(0, field.times.size, stride):
        valid = field.validity_mask[k]
        _write_columns(
            out / f"s_field_{k:04d}.csv",
            ["x", "s", "valid"],
            grid.x,
            np.where(valid, field.s[k], np.nan),
            valid,
        )
    if s0_kind == "free" and config.get("potential.kind") == "free":
        report.add(
            free_characteristics_check(ctx, field, s_fn, f"{n_steps} steps, dt={dt}")
        )
    return report


def _cmd_hj_compare(config: RunConfig, ctx: VerifyContext, out: Path) -> VerificationReport:
    scenario = config.get("compare.scenario").lower()
    grid, constants = config.grid, config.constants
    report = VerificationReport(scenario="hj-compare", metadata={"comparison": scenario})

    if scenario == "free":
        energy = config.get("hj.energy")
        offset, checks = inertial_checks(ctx, grid, energy, f"E={energy}")
        report.metadata["constant_offset"] = offset
        report.checks.extend(checks)
    elif scenario == "harmonic-ground":
        omega = config.get("potential.omega")
        potential = HarmonicPotential(omega)
        v = potential.on_grid(grid, constants)
        h = assemble_hamiltonian(potential, grid, constants)
        ground = solve_lowest_eigenpairs(h, 1)[0]
        dt = config.get("hj.dt")
        result = evolve(ground.state, v, dt, 2, constants, store_every=1)
        report.metadata["ground_energy"] = ground.energy
        report.add(
            phase_action_gap_check(ctx, result.slices, v, f"omega={omega}, dt={dt}")
        )
    else:
        raise ConfigError(
            f"unknown compare.scenario {scenario!r} (free | harmonic-ground)"
        )
    return report


def _parse_coefficients(text: str) -> np.ndarray:
    try:
        values = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"superpose.coefficients: {exc}") from None
    if not values:
        raise ConfigError("superpose.coefficients is empty")
    return np.array(values, dtype=complex)


def _cmd_superpose(config: RunConfig, ctx: VerifyContext, out: Path) -> VerificationReport:
    raw = config.get("superpose.coefficients")
    if not raw:
        raise ConfigError("superpose needs superpose.coefficients (comma-separated)")
    coefficients = _parse_coefficients(raw)
    weights = WeightingFunction(coefficients)
    original_total = weights.total_weight
    weights = weights.normalized()
    pairs = _solve_pairs(config, coefficients.size)
    psi0 = build_superposition(pairs, weights)

    _write_wavefunction_csv(out / "psi0.csv", psi0)
    distribution = energy_distribution(weights, pairs)
    _write_json(
        out / "energy_distribution.json",
        [
            {"level": n, "energy": e, "probability": p}
            for n, (e, p) in enumerate(distribution)
        ],
    )

    recovered = project(psi0, pairs).coefficients
    report = VerificationReport(
        scenario="superpose",
        metadata={"k": int(coefficients.size), "input_total_weight": float(original_total)},
    )
    report.add(
        ctx.check(
            "superposition_norm_error",
            float(abs(psi0.norm - 1.0)),
            "unit weights over an orthonormal basis give a unit-norm state",
        )
    )
    report.add(
        ctx.check(
            "weight_roundtrip_error",
            float(np.max(np.abs(recovered - weights.coefficients))),
            "projection onto the basis recovers the coefficients",
        )
    )
    return report


def _cmd_ensemble(config: RunConfig, ctx: VerifyContext, out: Path) -> VerificationReport:
    grid, constants = config.grid, config.constants
    k = config.get("ensemble.k")
    if k <= 0:
        raise ConfigError(f"ensemble.k must be >= 1, got {k}")
    mean = config.get("ensemble.mean_energy")
    sigma = config.get("ensemble.sigma_energy")
    if sigma <= 0.0:
        raise ConfigError(f"ensemble.sigma_energy must be positive, got {sigma}")
    n_samples = config.get("ensemble.n_samples")
    dt = config.get("ensemble.dt")
    n_steps = config.get("ensemble.n_steps")
    store_every = config.get("ensemble.store_every")
    # reject bad run arguments before paying for the eigensolve
    check_run_arguments(dt, n_steps, store_every, n_samples)
    pairs = _solve_pairs(config, k)
    energies = np.array([pair.energy for pair in pairs])
    raw = np.exp(-((energies - mean) ** 2) / (2.0 * sigma**2))
    weights = WeightingFunction(np.sqrt(raw / raw.sum()).astype(complex))
    quantum = energy_distribution(weights, pairs)
    probabilities = np.abs(weights.coefficients) ** 2

    spec = EnsembleSpec(energies, probabilities, n_samples, config.seed)
    result = run_classical_ensemble(
        spec, config.potential, grid, dt, n_steps, constants, store_every=store_every
    )

    for idx in range(result.histogram_times.size):
        _write_columns(
            out / f"histogram_t{idx:04d}.csv",
            ["bin_left", "bin_right", "count"],
            result.bin_edges[:-1],
            result.bin_edges[1:],
            result.histograms[idx],
        )
    _write_columns(out / "sample_energies.csv", ["sample_energy"], result.sample_energies)

    tv = compare_energy_statistics(quantum, result.sample_energies)
    counts = nearest_level_counts(energies, result.sample_energies)
    comparison = {
        "tv_distance": float(tv),
        "n_samples": spec.n_samples,
        "seed": spec.rng_seed,
        "histogram_times": [float(t) for t in result.histogram_times],
        "levels": [
            {
                "level": n,
                "energy": float(e),
                "p_quantum": float(p),
                "p_classical": float(counts[n] / spec.n_samples),
                "count": int(counts[n]),
            }
            for n, (e, p) in enumerate(quantum)
        ],
    }
    _write_json(out / "comparison.json", comparison)

    report = VerificationReport(
        scenario="ensemble",
        metadata={
            "k": k,
            "n_samples": spec.n_samples,
            "seed": spec.rng_seed,
            "mean_energy": mean,
            "sigma_energy": sigma,
            "max_energy_drift": float(np.max(result.energy_drift)),
        },
    )
    report.add(
        ctx.check(
            "ensemble_tv_matched",
            float(tv),
            "a classical ensemble drawn from |c_n|^2 reproduces the quantum "
            "energy statistics",
            detail=f"{spec.n_samples} samples, seed {spec.rng_seed}",
        )
    )
    return report


_SUBCOMMANDS = {
    "eigen": _cmd_eigen,
    "evolve": _cmd_evolve,
    "madelung": _cmd_madelung,
    "hj": _cmd_hj,
    "hj-compare": _cmd_hj_compare,
    "superpose": _cmd_superpose,
    "ensemble": _cmd_ensemble,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in [*_SUBCOMMANDS, "verify-all"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="key = value run file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="overrides run.seed")
        p.add_argument(
            "--tolerance-scale",
            type=float,
            default=1.0,
            help="multiplies every upper-bound tolerance",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, args.out)
        if args.seed is not None:
            config.values["run.seed"] = args.seed
        ctx = make_context(config, args.tolerance_scale)
        out = args.out if args.out is not None else Path(f"out-{args.subcommand}")
        out.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "verify-all":
            report = run_verify_all(config, tolerance_scale=args.tolerance_scale)
        else:
            report = _SUBCOMMANDS[args.subcommand](config, ctx, out)
        with open(out / "report.json", "w") as fh:
            fh.write(report.to_json())
    except ConfigError as exc:
        print(f"qclab: config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        # RuntimeError covers solver failures: EigensolverError, the
        # spectral residual gate, a non-finite Crank-Nicolson step
        print(f"qclab: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
