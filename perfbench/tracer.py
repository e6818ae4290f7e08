"""In-memory span recorder that wraps qclab's public names from outside.

child.py installs it before the workload starts; nothing under src/ is
edited.  Every qclab function a qclab module imports from another one is
replaced, in the importing module's namespace, by a wrapper, and so are
the calls the layers make inside their own module (the Sturm count, the
shifted solve, the Verlet step...), the scenario builders in
verification.CRITERIA, the VerifyContext cached properties, cli.main and
VerificationReport.to_json.

A span row is [id, parent id, name, layer, start, end, minflt delta,
system-seconds delta, counts].  The name is "<module>.<function>" of the
function's home module, the layer is that module (config counts as cli,
its front end).  Times come from time.perf_counter, which is
CLOCK_MONOTONIC on Linux, so they line up with run.py's spawn and exit
stamps.  Counts are read from the arguments or the result after the span
has closed.
"""
import functools
import importlib
import inspect
import json
import resource
import time
from functools import cached_property

import numpy as np

MODULES = (
    "config", "ensemble", "evolution", "grids", "hamilton_jacobi", "madelung",
    "potentials", "report", "spectral", "states", "stencils", "tridiagonal",
    "verification", "cli",
)
LAYER_ALIASES = {"config": "cli"}

# calls a layer makes to its own module-level functions
SELF_CALLS = {
    "tridiagonal": ("sturm_count", "solve_shifted"),
    "spectral": ("assemble_hamiltonian", "solve_lowest_eigenpairs"),
    "madelung": ("decompose", "quantum_potential", "verify_oscillator_identity"),
    "hamilton_jacobi": ("verlet_step", "integrate_hamilton"),
    "cli": ("main",),
}


def _residual_to_gate(args, pairs):
    # the residual gate of spectral.solve_lowest_eigenpairs, recomputed
    # because the solver does not return its margin
    h = args["hamiltonian"]
    h_scale = np.max(np.abs(h.diagonal)) + 2.0 * abs(h.off_diagonal)
    floor = 500.0 * np.finfo(float).eps * h_scale / np.sqrt(h.grid.dx)
    worst = 0.0
    for pair in pairs:
        u = pair.state.values.real
        residual = np.max(np.abs(h.apply(u) - pair.energy * u)[1:-1])
        worst = max(worst, float(residual / max(1e-8 * np.max(np.abs(u)), floor)))
    return worst


PROBES = {
    "tridiagonal.lowest_eigenpairs": lambda a, r: {
        "n": len(a["diag"]) + 2, "iterations": int(sum(r.iterations))
    },
    "spectral.solve_lowest_eigenpairs": lambda a, r: {
        "pairs": len(r), "residual_to_gate": _residual_to_gate(a, r)
    },
    "evolution.evolve": lambda a, r: {"steps": int(a["n_steps"])},
    "ensemble.run_classical_ensemble": lambda a, r: {
        "sample_steps": int(a["spec"].n_samples) * int(a["n_steps"]),
        "max_energy_drift": float(np.max(r.energy_drift)),
    },
    "hamilton_jacobi.principal_function_from_characteristics": lambda a, r: {
        "characteristic_steps": a["grid"].n_points * int(a["n_steps"]),
        "slices": int(r.times.size),
        "valid_slices": int(np.count_nonzero(r.validity_mask.any(axis=1))),
    },
    "madelung.madelung_residuals": lambda a, r: {"residual_slices": len(a["series"]) - 2},
    "report.to_json": lambda a, r: {"bytes": len(r)},
    "cli.main": lambda a, r: {"subcommand": a["argv"][0]},
}


class Recorder:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, func, name, layer):
        probe = PROBES.get(name)
        signature = inspect.signature(func) if probe else None
        spans, stack = self.spans, self._stack
        getrusage, clock, who = resource.getrusage, time.perf_counter, resource.RUSAGE_SELF

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            row = [len(spans), stack[-1] if stack else None, name, layer, 0.0, 0.0, 0, 0.0, None]
            spans.append(row)
            stack.append(row[0])
            before = getrusage(who)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                after = getrusage(who)
                stack.pop()
                row[4:8] = (
                    start, end, after.ru_minflt - before.ru_minflt,
                    after.ru_stime - before.ru_stime,
                )
            if probe is not None:
                row[8] = probe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _span_name(func):
    module = func.__module__.split(".", 1)[1]
    return f"{module}.{func.__name__}", LAYER_ALIASES.get(module, module)


def install(run_id):
    """Wrap qclab's public names; return the Recorder collecting the spans."""
    recorder = Recorder(run_id)
    modules = {name: importlib.import_module(f"qclab.{name}") for name in MODULES}
    for module_name, module in modules.items():
        for attr, obj in list(vars(module).items()):
            imported = (
                inspect.isfunction(obj)
                and obj.__module__.startswith("qclab.")
                and obj.__module__ != module.__name__
            )
            if imported or (attr in SELF_CALLS.get(module_name, ()) and inspect.isfunction(obj)):
                setattr(module, attr, recorder.wrap(obj, *_span_name(obj)))

    verification = modules["verification"]
    verification.CRITERIA[:] = [
        (scenario, recorder.wrap(builder, f"verification.{scenario}", "verification"))
        for scenario, builder in verification.CRITERIA
    ]
    context = verification.VerifyContext
    for attr, prop in list(vars(context).items()):
        if isinstance(prop, cached_property):
            wrapped = cached_property(
                recorder.wrap(prop.func, f"verification.shared.{attr}", "verification")
            )
            wrapped.__set_name__(context, attr)
            setattr(context, attr, wrapped)

    report = modules["report"].VerificationReport
    report.to_json = recorder.wrap(report.to_json, "report.to_json", "report")
    return recorder
