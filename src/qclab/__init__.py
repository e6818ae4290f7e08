"""qclab: a 1D laboratory for the quantum/classical correspondence.

Solve the stationary and time-dependent Schroedinger problem on a
grid, split wavefunctions into modulus and phase, measure how far the
phase is from a classical principal function (exactly the quantum
potential), and compare quantum superposition statistics against
seeded classical ensembles.  Everything is checked: report.CHECKS
declares every named check, and the canonical scenarios live in
`qclab.verification` and behind `qclab verify-all`.

`import qclab` loads no submodule.  Each submodule, and each name
re-exported below, is imported on first access (PEP 562), so a process
loads only the layers it uses.
"""
from importlib import import_module

# submodule -> the names `qclab` re-exports from it
_EXPORTS = {
    "config": (
        "ConfigError", "RunConfig", "load_run_config", "load_tabulated_csv", "parse_config_text",
    ),
    "ensemble": (
        "RNG_ALGORITHM", "EnsembleResult", "EnsembleSpec", "WeightingFunction",
        "build_superposition", "compare_energy_statistics", "draw_sample_energies",
        "energy_distribution", "gaussian_weights", "project", "run_classical_ensemble",
    ),
    "evolution": ("EvolutionResult", "Observable", "evolve", "expectation"),
    "grids": ("Grid1D", "PhysicalConstants", "build_grid"),
    "hamilton_jacobi": (
        "Trajectory", "free_principal_function", "integrate_hamilton", "verlet_step",
    ),
    "lapack": (),
    "madelung": (
        "decompose", "madelung_residuals", "phase_jump_guard", "quantum_potential",
        "recompose", "total_potential", "verify_1d_amplitude_relation",
        "verify_modified_hj", "verify_oscillator_identity",
    ),
    "potentials": (
        "FreePotential", "HarmonicPotential", "InfiniteWellPotential", "Potential",
        "SmoothBarrierPotential", "TabulatedPotential",
    ),
    "report": ("CHECKS", "CheckResult", "VerificationReport", "check_against"),
    "spectral": (
        "HamiltonianMatrix", "assemble_hamiltonian", "hamiltonian_from_values",
        "solve_lowest_eigenpairs", "stationary_scattering_state",
    ),
    "states": (
        "EigenPair", "WaveFunction", "gaussian_packet", "harmonic_eigenfunction",
        "plane_wave", "probability_current",
    ),
    "stencils": (),
    "tridiagonal": ("EigensolverError",),
    "verification": ("VerifyContext", "make_context", "run_verify_all"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
