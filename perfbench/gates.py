"""Correctness gates and the accuracy ratio, as pure functions of outputs.

A gate returns the list of reasons a repetition is wrong; an empty list
means it is correct.  Checks are dicts shaped like report.json rows:
name, measured, tolerance, comparator, passed.
"""
import hashlib
import json
from pathlib import Path

# the one deliberately red verify-all check: the 3-point stencil defect at
# n = 4, dx = 0.01 is 1.28125e-4 against a budget of 1e-4
KNOWN_RED = "harmonic_level_error"
KNOWN_RED_TOLERANCE = 1e-4
KNOWN_RED_RANGE = (1.25e-4, 1.31e-4)

# checks whose value is set by the seeded draw alone (sampling noise of
# 1e5 samples), not by any solver, so they say nothing about accuracy
SAMPLING_CHECKS = frozenset({"ensemble_tv_matched"})

# the shipped configs, the subcommand each is written for, and the files
# each run must leave in its output directory (name -> count for globs)
CLI_CONFIGS = {
    "harmonic-eigen": ("eigen", {"eigenvalues.json": 1, "eigenfunctions.csv": 1}),
    "gaussian-evolve": ("evolve", {"slice_*.csv": 7, "observables.csv": 1}),
    "plane-wave-madelung": ("madelung", {"polar.csv": 1, "summary.json": 1}),
    "free-hj": ("hj", {"trajectory.csv": 1, "s_field_*.csv": 11}),
    "harmonic-caustic-hj": ("hj", {"trajectory.csv": 1, "s_field_*.csv": 5}),
    "superpose": ("superpose", {"psi0.csv": 1, "energy_distribution.json": 1}),
    "ensemble": (
        "ensemble",
        {"histogram_t*.csv": 64, "sample_energies.csv": 1, "comparison.json": 1},
    ),
}

ORTHONORMALITY_TOLERANCE = 1e-10
IDENTITY_TOLERANCE = 1e-3
# levels sit at the README's stencil defect dx^2 w^2 (2n^2+2n+1)/32 below
# (n+1/2) w; 1% covers the O(dx^4) term and roundoff
STENCIL_ALLOWANCE = 1.01
SPECTRUM_GRIDS = (2401, 10001, 40001)
SPECTRUM_K = 8


def digest(report):
    """sha256 of the report's comparison_payload() JSON."""
    payload = {k: v for k, v in report.items() if k not in ("generated_at", "timing")}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def verify_all_failures(exit_code, report):
    if exit_code != 1:
        return [f"verify-all exited {exit_code}, expected 1 (criterion 02 is red)"]
    failing = [c for c in report["checks"] if not c["passed"]]
    names = sorted(c["name"] for c in failing)
    if names != [KNOWN_RED]:
        return [f"failing checks {names}, expected only {KNOWN_RED}"]
    red = failing[0]
    low, high = KNOWN_RED_RANGE
    if red["tolerance"] != KNOWN_RED_TOLERANCE or not low <= red["measured"] <= high:
        return [
            f"{KNOWN_RED} measured {red['measured']!r} against {red['tolerance']!r}, "
            f"expected {low}..{high} against {KNOWN_RED_TOLERANCE}"
        ]
    return []


def digest_failures(digests):
    """Every repetition of one seed must give the first one's digest;
    returns {repetition index: reason} for those that do not."""
    return {
        i: f"repetition {i} digest {d} differs from repetition 0 ({digests[0]})"
        for i, d in enumerate(digests)
        if d != digests[0]
    }


def cli_failures(config, exit_code, report, out_dir):
    subcommand, expected = CLI_CONFIGS[config]
    if exit_code != 0:
        return [f"{config}: qclab {subcommand} exited {exit_code}"]
    problems = [
        f"{config}: check {c['name']} failed" for c in report["checks"] if not c["passed"]
    ]
    for pattern, count in {"report.json": 1, **expected}.items():
        found = len(list(Path(out_dir).glob(pattern)))
        if found != count:
            problems.append(f"{config}: {found} files match {pattern}, expected {count}")
    return problems


def spectrum_checks(result):
    """The spectrum workload's gates as report-style check rows."""
    omega = result["omega"]
    rows = []

    def add(name, measured, tolerance):
        rows.append(
            {
                "name": name,
                "measured": measured,
                "tolerance": tolerance,
                "comparator": "<=",
                "passed": measured <= tolerance,
            }
        )

    for grid in result["grids"]:
        tag = f"n{grid['n_points']}"
        add(f"{tag}.orthonormality", grid["orthonormality"], ORTHONORMALITY_TOLERANCE)
        add(f"{tag}.identity_residual", max(grid["identity_residuals"]), IDENTITY_TOLERANCE)
        for n, energy in enumerate(grid["energies"]):
            defect = grid["dx"] ** 2 * omega**2 * (2 * n * n + 2 * n + 1) / 32.0
            add(
                f"{tag}.level{n}_stencil_defect",
                abs(energy - (n + 0.5) * omega),
                STENCIL_ALLOWANCE * defect,
            )
    return rows


def spectrum_failures(exit_code, result):
    if exit_code != 0:
        return [f"spectrum exited {exit_code}"]
    sizes = [g["n_points"] for g in result["grids"]]
    if sizes != list(SPECTRUM_GRIDS):
        return [f"grids {sizes}, expected {list(SPECTRUM_GRIDS)}"]
    problems = [
        f"n{g['n_points']}: {len(g['energies'])} levels, expected {SPECTRUM_K}"
        for g in result["grids"]
        if len(g["energies"]) != SPECTRUM_K
    ]
    problems += [
        f"{c['name']}: {c['measured']!r} > {c['tolerance']!r}"
        for c in spectrum_checks(result)
        if not c["passed"]
    ]
    return problems


def accuracy_ratio(checks):
    """Largest measured / tolerance over passing '<=' checks with a nonzero
    tolerance, leaving out the sampling-noise checks."""
    ratios = [
        c["measured"] / c["tolerance"]
        for c in checks
        if c["passed"]
        and c["comparator"] == "<="
        and c["tolerance"] != 0
        and c["name"] not in SAMPLING_CHECKS
    ]
    return max(ratios, default=0.0)
