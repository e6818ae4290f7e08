"""Metric reduction: medians and quartiles over repetitions, ratios with
their base, and per-layer figures from the spans tracer.py records."""
import statistics
from collections import defaultdict

import gates

ID, PARENT, NAME, LAYER, START, END, MINFLT, SYS, COUNTS = range(9)

LAYERS = (
    "tridiagonal", "spectral", "evolution", "ensemble", "hamilton_jacobi",
    "potentials", "madelung", "report", "cli", "verification",
)
SUBCOMMANDS = sorted({subcommand for subcommand, _ in gates.CLI_CONFIGS.values()})
SCENARIOS = (
    "inertial-equivalence", "harmonic-spectrum", "oscillator-identity",
    "quantum-potential-gap", "madelung-residuals", "amplitude-relation",
    "unitarity-stationarity", "ehrenfest-correspondence",
    "superposition-statistics", "characteristics-solver", "rerun-determinism",
)
SHARED = "verification.shared."

# derived metric -> (numerator, base); the base is reported with the value
RATIOS = {
    "spectral.pairs_per_s": ("spectral.pairs", "spectral.solve_s"),
    "evolution.steps_per_s": ("evolution.steps", "evolution.evolve_s"),
    "ensemble.sample_steps_per_s": ("ensemble.sample_steps", "ensemble.run_s"),
    "hamilton_jacobi.valid_slice_ratio": (
        "hamilton_jacobi.valid_slices", "hamilton_jacobi.slices",
    ),
    "cli.write_bytes_per_s": ("cli.artifact_bytes", "cli.self_s"),
    "trace.uncovered_share": ("trace.uncovered_s", "trace.wall_s"),
}
MAXIMA = ("spectral.residual_to_gate", "ensemble.max_energy_drift")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def ratio(part, base):
    """part / base together with its base; an empty base gives 0."""
    return {"value": part / base if base else 0.0, "base": base}


class SpanTree:
    def __init__(self, rows):
        self.rows = rows
        self.children = defaultdict(list)
        for row in rows:
            if row[PARENT] is not None:
                self.children[row[PARENT]].append(row)

    @staticmethod
    def duration(row):
        return row[END] - row[START]

    def outermost(self, pred, below=None):
        """Spans matching pred with no matching ancestor (under `below`)."""
        stack = list(self.children[below[ID]]) if below else [
            r for r in self.rows if r[PARENT] is None
        ]
        found = []
        while stack:
            row = stack.pop()
            if pred(row):
                found.append(row)
            else:
                stack.extend(self.children[row[ID]])
        return found

    def busy(self, pred, below=None):
        return sum(self.duration(r) for r in self.outermost(pred, below))

    def self_time(self, pred):
        return sum(
            self.duration(r) - sum(self.duration(c) for c in self.children[r[ID]])
            for r in self.rows
            if pred(r)
        )

    def calls(self, name):
        return [r for r in self.rows if r[NAME] == name]

    def count(self, name, key):
        return sum(r[COUNTS][key] for r in self.calls(name))


def _process_sums(rows):
    tree = SpanTree(rows)
    named = lambda name: lambda r: r[NAME] == name  # noqa: E731
    s = {}
    for layer in LAYERS:
        s[f"{layer}.busy_s"] = tree.busy(lambda r: r[LAYER] == layer)
        s[f"{layer}.self_s"] = tree.self_time(lambda r: r[LAYER] == layer)

    eigen = tree.calls("tridiagonal.lowest_eigenpairs")
    for n in gates.SPECTRUM_GRIDS:
        s[f"tridiagonal.n{n}.busy_s"] = sum(
            tree.duration(r) for r in eigen if r[COUNTS]["n"] == n
        )
    s["tridiagonal.sturm_counts"] = len(tree.calls("tridiagonal.sturm_count"))
    s["tridiagonal.shifted_solves"] = len(tree.calls("tridiagonal.solve_shifted"))
    s["tridiagonal.inverse_iterations"] = tree.count("tridiagonal.lowest_eigenpairs", "iterations")

    solves = tree.calls("spectral.solve_lowest_eigenpairs")
    s["spectral.pairs"] = tree.count("spectral.solve_lowest_eigenpairs", "pairs")
    s["spectral.solve_s"] = tree.busy(named("spectral.solve_lowest_eigenpairs"))
    s["spectral.residual_to_gate"] = max(
        (r[COUNTS]["residual_to_gate"] for r in solves), default=0.0
    )
    s["spectral.scattering_busy_s"] = tree.busy(named("spectral.stationary_scattering_state"))

    s["evolution.steps"] = tree.count("evolution.evolve", "steps")
    s["evolution.evolve_s"] = tree.busy(named("evolution.evolve"))
    s["evolution.expectation_busy_s"] = tree.busy(named("evolution.expectation"))

    runs = tree.outermost(named("ensemble.run_classical_ensemble"))
    s["ensemble.sample_steps"] = tree.count("ensemble.run_classical_ensemble", "sample_steps")
    s["ensemble.run_s"] = sum(tree.duration(r) for r in runs)
    s["ensemble.minflt"] = sum(r[MINFLT] for r in runs)
    s["ensemble.sys_s"] = sum(r[SYS] for r in runs)
    s["ensemble.max_energy_drift"] = max(
        (r[COUNTS]["max_energy_drift"] for r in runs), default=0.0
    )

    characteristics = "hamilton_jacobi.principal_function_from_characteristics"
    s["hamilton_jacobi.verlet_calls"] = len(tree.calls("hamilton_jacobi.verlet_step"))
    s["hamilton_jacobi.verlet_busy_s"] = tree.busy(named("hamilton_jacobi.verlet_step"))
    s["hamilton_jacobi.characteristics_busy_s"] = tree.busy(named(characteristics))
    s["hamilton_jacobi.characteristic_steps"] = tree.count(characteristics, "characteristic_steps")
    s["hamilton_jacobi.slices"] = tree.count(characteristics, "slices")
    s["hamilton_jacobi.valid_slices"] = tree.count(characteristics, "valid_slices")
    s["hamilton_jacobi.integrate_busy_s"] = tree.busy(named("hamilton_jacobi.integrate_hamilton"))

    s["potentials.force_calls"] = len(tree.calls("potentials.potential_force"))
    s["potentials.force_busy_s"] = tree.busy(named("potentials.potential_force"))

    s["madelung.decompose_calls"] = len(tree.calls("madelung.decompose"))
    s["madelung.residual_slices"] = tree.count("madelung.madelung_residuals", "residual_slices")

    s["report.serialize_busy_s"] = tree.busy(named("report.to_json"))
    s["report.bytes"] = tree.count("report.to_json", "bytes")

    mains = tree.calls("cli.main")
    for sub in SUBCOMMANDS:
        s[f"cli.{sub}.busy_s"] = sum(
            tree.duration(r) for r in mains if r[COUNTS]["subcommand"] == sub
        )

    # shared intermediates are charged to themselves, not to the first
    # scenario that touches them
    is_shared = lambda r: r[NAME].startswith(SHARED)  # noqa: E731
    for scenario in SCENARIOS:
        s[f"verification.{scenario}.busy_s"] = sum(
            tree.duration(r) - tree.busy(is_shared, below=r)
            for r in tree.calls(f"verification.{scenario}")
        )
    s["verification.shared.busy_s"] = tree.busy(is_shared)
    s["trace.covered_s"] = sum(tree.duration(r) for r in rows if r[PARENT] is None)
    return s


def layer_metrics(processes):
    """Per-layer metrics of one repetition.

    processes: one dict per child with "spans" (tracer rows), "wall_s"
    (spawn to exit) and "artifact_bytes" (size of its output directory).
    """
    total = defaultdict(float)
    for proc in processes:
        for key, value in _process_sums(proc["spans"]).items():
            total[key] = max(total[key], value) if key in MAXIMA else total[key] + value
        total["trace.wall_s"] += proc["wall_s"]
        total["cli.artifact_bytes"] += proc["artifact_bytes"]
    total["trace.uncovered_s"] = total["trace.wall_s"] - total.pop("trace.covered_s")
    for key, (part, base) in RATIOS.items():
        total[key] = ratio(total[part], total[base])["value"]
    return dict(total)
