"""Command-line entry point: every scenario as a config-driven subcommand.

Each subcommand reads one `key = value` config file (all keys optional,
defaults come from the config schema), writes machine-readable artifacts
(CSV for numeric fields, JSON for summaries) into a staging directory,
and returns its report metadata and checks.  main adds the `report.json`
check report, named after the subcommand, moves the files into the output
directory on exit 0 or 1 and prints one [PASS]/[FAIL] line per check.
Every check's default tolerance, comparator and identity come from
report.CHECKS.  Each subcommand imports only the layers it runs, when it starts.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
config error.  Identical config and seed give byte-identical reports up
to the `generated_at` timestamp and the `timing` block.

A CSV artifact has a header row, comma-separated cells and CRLF line
ends.  Floats are written in Python's shortest round-trip repr, booleans
as 0/1; masked or non-finite cells read nan.  Identical config and seed
give byte-identical CSV files.  JSON files are report.canonical_json text.

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
import cmath
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import ConfigError, RunConfig, load_run_config
from .grids import check_run_arguments
from .report import CheckContext, CheckResult, VerificationReport, canonical_json

if TYPE_CHECKING:
    from .states import EigenPair, WaveFunction


_CHUNK_ROWS = 4096  # rows formatted and written at a time


def _cells(column) -> list[str]:
    """One column's cell text: floats as repr, ints and bools as int.

    Each distinct value is formatted once and its text scattered back.
    Floats are told apart by their float64 bit pattern, because np.unique
    on values merges -0.0 with 0.0.  A string column, such as the output
    of an earlier call shared by many files, passes through unchanged.
    """
    a = np.asarray(column)
    if a.dtype.kind == "U":
        return a.tolist()
    if a.dtype.kind == "f":
        bits, inverse = np.unique(
            a.astype(np.float64, copy=False).view(np.int64), return_inverse=True
        )
        text = list(map(repr, bits.view(np.float64).tolist()))
    else:
        ints = a.astype(int) if a.dtype == bool else a
        values, inverse = np.unique(ints, return_inverse=True)
        text = list(map(str, values.tolist()))
    return list(map(text.__getitem__, inverse.tolist()))


def _write_columns(path: Path, header: list[str], *columns) -> None:
    """CSV with one array per column, cells as _cells formats them.

    The text matches csv.writer's default dialect byte for byte: CRLF
    line ends, floats via repr, and no quoting, since no cell holds a
    comma, a double quote, CR or LF.  Column lengths are checked before
    the file is opened, so columns of unequal length raise ValueError and
    leave no file.  Rows are formatted and written _CHUNK_ROWS at a time,
    so the text of at most one chunk is held.  Callers that must show
    masked or non-finite entries as nan replace them with np.nan first.
    """
    columns = [np.asarray(column) for column in columns]
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"{path.name}: columns differ in length {lengths}")
    n_rows = lengths[0] if lengths else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            cells = [_cells(column[start : start + _CHUNK_ROWS]) for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _load_wavefunction_csv(config: RunConfig, section: str) -> WaveFunction:
    """The columns x, re, im of the table <section>.csv; x must match the run grid."""
    from .states import WaveFunction

    path, grid = config.get(f"{section}.csv"), config.grid
    header, data, rows = config.load_csv(f"{section}.csv", f"{section}.state=csv")
    if not {"x", "re", "im"} <= set(header or ()):
        raise ConfigError(f"{path}: expected the columns x, re, im, got {header}")
    x, re, im = (data[:, header.index(column)] for column in ("x", "re", "im"))
    if x.shape != grid.x.shape:
        raise ConfigError(f"{path}: {x.size} rows where the configured grid has {grid.n_points}")
    off = ~(np.abs(x - grid.x) <= 1e-12 * grid.dx)  # nan is off the grid too
    if off.any():
        i = int(np.argmax(off))
        x_i, grid_i = float(x[i]), float(grid.x[i])
        raise ConfigError(f"{path}: row {rows[i][0]}: x = {x_i!r} where the grid has {grid_i!r}")
    bad = ~(np.isfinite(re) & np.isfinite(im))
    if bad.any():
        raise ConfigError(f"{path}: non-finite re/im value at x = {float(x[bad][0])!r}")
    return WaveFunction(re + 1j * im, grid)


def _write_wavefunction_csv(path: Path, psi: WaveFunction, x=None) -> None:
    """(x, re, im) rows, the format _load_wavefunction_csv reads.

    x defaults to the grid; many files of one grid pass its _cells text.
    """
    x = psi.grid.x if x is None else x
    _write_columns(path, ["x", "re", "im"], x, psi.values.real, psi.values.imag)


# what a subcommand returns: the report metadata and its checks
Outcome = tuple[dict, list[CheckResult]]


def _plane_wave_energy(config: RunConfig, key: str) -> float | None:
    """config[key], refused where the momentum sqrt(2mE) overflows."""
    energy = config.get(key)
    if energy is not None and not np.isfinite(2.0 * config.constants.mass * energy):
        raise ConfigError(f"{key} = {energy!r}: the momentum sqrt(2mE) overflows")
    return energy


def _solve_pairs(config: RunConfig, k: int) -> list[EigenPair]:
    from .spectral import assemble_hamiltonian, solve_lowest_eigenpairs

    h = assemble_hamiltonian(config.potential, config.grid, config.constants)
    return solve_lowest_eigenpairs(h, k)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eigen(config: RunConfig, ctx: CheckContext, out: Path) -> Outcome:
    k = config.get("eigen.k")
    if k <= 0:
        raise ConfigError(f"eigen.k must be >= 1, got {k}")
    pairs = _solve_pairs(config, k)
    grid = config.grid

    (out / "eigenvalues.json").write_text(canonical_json([pair.energy for pair in pairs]))
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
    metadata = {"k": k, "eigenvalues": [pair.energy for pair in pairs]}
    detail = f"max |<i|j> - delta_ij| over {k} states"
    return metadata, [ctx.check("eigenbasis_orthonormality", ortho, detail)]


def _initial_state(config: RunConfig) -> WaveFunction:
    from .states import gaussian_packet

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
        return _load_wavefunction_csv(config, "evolve").normalized()
    raise ConfigError(f"unknown evolve.state {kind!r}")


def _cmd_evolve(config: RunConfig, ctx: CheckContext, out: Path) -> Outcome:
    from .evolution import NORM_TOLERANCE, Observable, evolve, expectation
    from .states import WaveFunction

    grid, constants = config.grid, config.constants
    v = config.potential.on_grid(grid, constants)
    psi0 = _initial_state(config)
    # evolve holds the walls at zero, so a state that reaches them loses
    # norm at the first step and expectation would refuse every slice after
    inside = psi0.values.copy()
    inside[[0, -1]] = 0.0
    norm = WaveFunction(inside, grid).norm
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise ConfigError(
            f"the initial state has norm {norm!r} inside the walls: for a Gaussian "
            "packet, move evolve.center inward or narrow evolve.width"
        )
    dt = config.get("evolve.dt")
    n_steps = config.get("evolve.n_steps")
    store_every = config.get("evolve.store_every")
    result = evolve(psi0, v, dt, n_steps, constants, store_every=store_every)

    x = np.array(_cells(grid.x))
    for k, w in enumerate(result.slices):
        _write_wavefunction_csv(out / f"slice_{k:04d}.csv", w, x)
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
    metadata = {
        "state": config.get("evolve.state"),
        "dt": dt,
        "n_steps": n_steps,
        "store_every": store_every,
    }
    return metadata, [
        ctx.check("norm_drift", drift, f"{n_steps} steps, dt={dt}"),
        ctx.check("energy_drift", e_drift, "relative drift of the energy expectation"),
    ]


def _cmd_madelung(config: RunConfig, ctx: CheckContext, out: Path) -> Outcome:
    from . import madelung
    from .states import EigenPair, harmonic_eigenfunction, plane_wave

    grid, constants = config.grid, config.constants
    kind = config.get("madelung.state")
    if kind is None:
        kind = "csv" if config.get("madelung.csv") else "plane_wave"
    kind = kind.lower()
    energy = _plane_wave_energy(config, "madelung.energy")
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
        psi = _load_wavefunction_csv(config, "madelung")
    else:
        raise ConfigError(f"unknown madelung.state {kind!r}")

    polar = madelung.decompose(psi, constants)
    v = config.potential.on_grid(grid, constants)
    v_q = madelung.quantum_potential(polar, constants)
    v_t = madelung.total_potential(v_q, v)
    if not np.isfinite(v_q).any():
        raise ValueError("V_q has no finite point: every grid point is on or beside a node")
    roundtrip = madelung.recompose(polar, constants)
    # compare up to the (physically irrelevant) global phase freeze at
    # masked points: direct difference where the input was unmasked
    diff = np.abs(roundtrip.values[~polar.node_mask] - psi.values[~polar.node_mask])
    roundtrip_err = float(np.max(diff)) if diff.size else 0.0

    summary: dict = {
        "state": kind,
        "node_count": int(np.sum(polar.node_mask)),
        "v_q_peak": float(np.nanmax(np.abs(v_q))),
    }
    relation = madelung.verify_1d_amplitude_relation(polar, constants)
    summary["amplitude_relation"] = {
        "vacuous": relation.vacuous,
        "deviation": None if relation.vacuous else float(relation.deviation),
    }
    if energy is not None:
        summary["modified_hj_residual"] = float(
            madelung.verify_modified_hj(psi, v, energy, constants)
        )
        summary["energy"] = energy
    if oscillator_index is not None:
        pair = EigenPair(energy=energy, state=psi, index=oscillator_index)
        summary["oscillator_identity_residual"] = madelung.verify_oscillator_identity(
            oscillator_index, pair, config.get("potential.omega"), constants
        )
    checks = [ctx.check("polar_roundtrip_error", roundtrip_err)]
    if config.get("potential.kind") == "free" and energy is not None:
        # free stationary states are taken in the running-wave
        # normalization used throughout; a standing wave fails loudly
        v_q_peak = summary["v_q_peak"]
        checks.append(
            ctx.check("inertial_quantum_potential", v_q_peak, "free stationary state")
        )
    if oscillator_index is not None:
        checks.append(
            ctx.check(
                "oscillator_identity_residual",
                summary["oscillator_identity_residual"],
                f"n={oscillator_index}",
            )
        )
    _write_columns(
        out / "polar.csv",
        ["x", "lambda", "phi", "v_q", "v_t", "masked"],
        grid.x,
        polar.modulus,
        *(np.where(np.isfinite(a), a, np.nan) for a in (polar.phase, v_q, v_t)),
        polar.node_mask,
    )
    (out / "summary.json").write_text(canonical_json(summary))
    return summary, checks


def _cmd_hj(config: RunConfig, ctx: CheckContext, out: Path) -> Outcome:
    from .hamilton_jacobi import (
        free_characteristics_deviation,
        free_principal_function,
        integrate_hamilton,
        principal_function_slices,
    )

    grid, constants = config.grid, config.constants
    potential = config.potential
    dt = config.get("hj.dt")
    n_steps = config.get("hj.n_steps")
    x0, p0 = config.get("hj.x0"), config.get("hj.p0")
    s0_kind = config.get("hj.s0")
    if s0_kind is not None:
        s0_kind = s0_kind.lower()
        if s0_kind == "free":
            s_fn = free_principal_function(_plane_wave_energy(config, "hj.energy"), constants)
            s0 = s_fn(grid.x, 0.0)
        elif s0_kind == "zero":
            s0 = np.zeros(grid.n_points)
        else:
            raise ConfigError(f"unknown hj.s0 {s0_kind!r} (free | zero)")
        stride = config.get("hj.store_every")
        if stride is None:
            stride = max(1, n_steps // 10)
        if stride < 1:
            raise ConfigError(f"hj.store_every must be >= 1, got {stride}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        trajectory = integrate_hamilton(potential, x0, p0, dt, n_steps, constants)
        kinetic = trajectory.momenta**2 / (2.0 * constants.mass)
        h_series = kinetic + potential.energy(trajectory.positions, constants)
    if not np.all(np.isfinite(h_series)):
        raise ConfigError(
            f"hj.x0 = {x0!r}, hj.p0 = {p0!r}, hj.dt = {dt!r}: the orbit's energy overflows"
        )
    _write_columns(
        out / "trajectory.csv",
        ["t", "x", "p", "action"],
        trajectory.times,
        trajectory.positions,
        trajectory.momenta,
        trajectory.actions,
    )

    metadata = {"dt": dt, "n_steps": n_steps, "potential": config.get("potential.kind")}
    h0 = h_series[0]
    scale = max(abs(float(h0)), 1e-12)
    checks = [
        ctx.check(
            "trajectory_energy_drift",
            float(np.max(np.abs(h_series - h0)) / scale),
            f"relative to H(0)={float(h0)!r}",
        )
    ]
    if s0_kind is None:
        return metadata, checks

    x = np.array(_cells(grid.x))

    def written(slices):
        # one pass: every stride-th slice is written as the sweep reaches it
        for k, s, valid in slices:
            if k % stride == 0:
                _write_columns(out / f"s_field_{k:04d}.csv", ["x", "s", "valid"], x, s, valid)
            yield k, s, valid

    # the free-motion check reads every slice; otherwise only the written
    # ones are interpolated
    free_check = s0_kind == "free" and config.get("potential.kind") == "free"
    sweep = principal_function_slices(
        potential, s0, grid, dt, n_steps, constants, store_every=1 if free_check else stride
    )
    slices = written(sweep)
    if free_check:
        deviation = free_characteristics_deviation(slices, grid, dt, s_fn)
        detail = f"{n_steps} steps, dt={dt}"
        checks.append(ctx.check("characteristics_free_error", deviation, detail))
    else:
        for _ in slices:
            pass
    return metadata, checks


def _cmd_hj_compare(config: RunConfig, ctx: CheckContext, out: Path) -> Outcome:
    from .madelung import inertial_deviations, phase_action_gap

    scenario = config.get("compare.scenario").lower()
    grid, constants = config.grid, config.constants
    metadata: dict = {"comparison": scenario}

    if scenario == "free":
        from .hamilton_jacobi import free_principal_function
        from .states import plane_wave

        energy = _plane_wave_energy(config, "hj.energy")
        psi = plane_wave(grid, energy, constants)
        s_fn = free_principal_function(energy, constants)
        phase, v_q, offset = inertial_deviations(psi, s_fn, constants)
        metadata["constant_offset"] = offset
        checks = [
            ctx.check("inertial_phase_vs_action", phase, f"E={energy}"),
            ctx.check("inertial_quantum_potential", v_q),
        ]
    elif scenario == "harmonic-ground":
        from .evolution import evolve
        from .potentials import HarmonicPotential
        from .spectral import assemble_hamiltonian, solve_lowest_eigenpairs

        omega = config.get("potential.omega")
        potential = HarmonicPotential(omega)
        v = potential.on_grid(grid, constants)
        h = assemble_hamiltonian(potential, grid, constants)
        ground = solve_lowest_eigenpairs(h, 1)[0]
        dt = config.get("hj.dt")
        result = evolve(ground.state, v, dt, 2, constants, store_every=1)
        metadata["ground_energy"] = ground.energy
        gap = phase_action_gap(result.slices, v, constants)
        checks = [ctx.check("phase_action_gap_vs_vq", gap, f"omega={omega}, dt={dt}")]
    else:
        raise ConfigError(
            f"unknown compare.scenario {scenario!r} (free | harmonic-ground)"
        )
    return metadata, checks


def _parse_coefficients(text: str) -> np.ndarray:
    try:
        values = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"superpose.coefficients: {exc}") from None
    if not values:
        raise ConfigError("superpose.coefficients is empty")
    for value in values:
        if not cmath.isfinite(value):
            raise ConfigError(f"superpose.coefficients must be finite, got {value}")
    return np.array(values, dtype=complex)


def _cmd_superpose(config: RunConfig, ctx: CheckContext, out: Path) -> Outcome:
    from .ensemble import WeightingFunction, build_superposition, energy_distribution, project

    raw = config.get("superpose.coefficients")
    if not raw:
        raise ConfigError("superpose needs superpose.coefficients (comma-separated)")
    coefficients = _parse_coefficients(raw)
    weights = WeightingFunction(coefficients)
    with np.errstate(over="ignore"):
        original_total = weights.total_weight
    if not np.finfo(float).tiny <= original_total < np.inf:
        # a subnormal total would normalize to weights off unit total weight
        raise ConfigError(
            f"superpose.coefficients: sum |c_n|^2 evaluates to {original_total!r}, "
            "outside the normal float range; rescale the coefficients"
        )
    weights = weights.normalized()
    pairs = _solve_pairs(config, coefficients.size)
    psi0 = build_superposition(pairs, weights)

    _write_wavefunction_csv(out / "psi0.csv", psi0)
    distribution = energy_distribution(weights, pairs)
    levels = [{"level": n, "energy": e, "probability": p} for n, (e, p) in enumerate(distribution)]
    (out / "energy_distribution.json").write_text(canonical_json(levels))

    recovered = project(psi0, pairs).coefficients
    metadata = {"k": int(coefficients.size), "input_total_weight": original_total}
    return metadata, [
        ctx.check("superposition_norm_error", float(abs(psi0.norm - 1.0))),
        ctx.check(
            "weight_roundtrip_error",
            float(np.max(np.abs(recovered - weights.coefficients))),
        ),
    ]


def _cmd_ensemble(config: RunConfig, ctx: CheckContext, out: Path) -> Outcome:
    from . import ensemble

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
    check_run_arguments(dt, n_steps, store_every)
    if n_samples < 1:
        raise ConfigError(f"ensemble.n_samples must be >= 1, got {n_samples}")
    pairs = _solve_pairs(config, k)
    energies = np.array([pair.energy for pair in pairs])
    try:
        weights = ensemble.gaussian_weights(energies, mean, sigma)
    except ValueError as exc:
        raise ConfigError(
            f"ensemble.mean_energy = {mean!r}, ensemble.sigma_energy = {sigma!r}: {exc}"
        ) from None
    quantum = ensemble.energy_distribution(weights, pairs)
    probabilities = np.abs(weights.coefficients) ** 2

    spec = ensemble.EnsembleSpec(energies, probabilities, n_samples, config.seed)
    result = ensemble.run_classical_ensemble(
        spec, config.potential, grid, dt, n_steps, constants, store_every=store_every
    )

    edges = np.array(_cells(result.bin_edges))
    for idx in range(result.histogram_times.size):
        _write_columns(
            out / f"histogram_t{idx:04d}.csv",
            ["bin_left", "bin_right", "count"],
            edges[:-1],
            edges[1:],
            result.histograms[idx],
        )
    _write_columns(out / "sample_energies.csv", ["sample_energy"], result.sample_energies)

    tv = ensemble.compare_energy_statistics(quantum, result.sample_energies)
    counts = ensemble.nearest_level_counts(energies, result.sample_energies)
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
    (out / "comparison.json").write_text(canonical_json(comparison))

    metadata = {
        "k": k,
        "n_samples": spec.n_samples,
        "seed": spec.rng_seed,
        "mean_energy": mean,
        "sigma_energy": sigma,
        "max_energy_drift": float(np.max(result.energy_drift)),
    }
    detail = f"{spec.n_samples} samples, seed {spec.rng_seed}"
    return metadata, [ctx.check("ensemble_tv_matched", float(tv), detail)]


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
        p.add_argument("--out", type=Path, default=Path(f"out-{name}"), help="output directory")
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
        config = load_run_config(args.config)
        if args.seed is not None:
            config.values["run.seed"] = args.seed
        if config.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {config.seed}")
        ctx = CheckContext.from_config(config, args.tolerance_scale)
        out = args.out.resolve()
        out.parent.mkdir(parents=True, exist_ok=True)
        # the run writes into a staging directory beside out and is moved in on a
        # verdict, report.json last: a failure leaves out as it was
        with tempfile.TemporaryDirectory(dir=out.parent, prefix=f".{out.name}.") as staging:
            staging = Path(staging)
            if args.subcommand == "verify-all":
                from .verification import run_verify_all

                report = run_verify_all(config, tolerance_scale=args.tolerance_scale)
            else:
                metadata, checks = _SUBCOMMANDS[args.subcommand](config, ctx, staging)
                report = VerificationReport(args.subcommand, checks, metadata)
            (staging / "report.json").write_text(report.to_json())
            out.mkdir(exist_ok=True)
            # a move that fails part-way must not leave an earlier run's
            # report beside this run's files
            (out / "report.json").unlink(missing_ok=True)
            for path in sorted(staging.iterdir(), key=lambda p: p.name == "report.json"):
                os.replace(path, out / path.name)
    except ConfigError as exc:
        print(f"qclab: config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        # RuntimeError covers solver failures: EigensolverError, the
        # spectral residual gate, a non-finite Crank-Nicolson step
        print(f"qclab: {exc}", file=sys.stderr)
        return 2
    try:
        print("\n".join(report.summary_lines()), flush=True)
    except BrokenPipeError:
        # the reader is gone, and report.json holds the verdict; stdout goes
        # to /dev/null so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
