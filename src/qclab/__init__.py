"""qclab: a 1D laboratory for the quantum/classical correspondence.

Solve the stationary and time-dependent Schroedinger problem on a
grid, split wavefunctions into modulus and phase, measure how far the
phase is from a classical principal function (exactly the quantum
potential), and compare quantum superposition statistics against
seeded classical ensembles.  Everything is checked: the canonical
scenarios live in `qclab.verification` and behind `qclab verify-all`.
"""
from .config import ConfigError, RunConfig, load_run_config, parse_config_text
from .ensemble import (
    RNG_ALGORITHM,
    EnsembleResult,
    EnsembleSpec,
    WeightingFunction,
    build_superposition,
    compare_energy_statistics,
    draw_sample_energies,
    energy_distribution,
    project,
    run_classical_ensemble,
)
from .evolution import EvolutionResult, Observable, evolve, expectation
from .grids import Grid1D, PhysicalConstants, build_grid
from .hamilton_jacobi import (
    Trajectory,
    free_principal_function,
    integrate_hamilton,
    verlet_step,
)
from .madelung import (
    decompose,
    madelung_residuals,
    phase_jump_guard,
    quantum_potential,
    recompose,
    total_potential,
    verify_1d_amplitude_relation,
    verify_modified_hj,
    verify_oscillator_identity,
)
from .potentials import (
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    Potential,
    SmoothBarrierPotential,
    TabulatedPotential,
    load_tabulated_csv,
)
from .report import CheckResult, VerificationReport, check_against
from .spectral import (
    EigenPair,
    HamiltonianMatrix,
    assemble_hamiltonian,
    hamiltonian_from_values,
    solve_lowest_eigenpairs,
    stationary_scattering_state,
)
from .states import (
    WaveFunction,
    gaussian_packet,
    harmonic_eigenfunction,
    plane_wave,
    probability_current,
)
from .tridiagonal import EigensolverError
from .verification import (
    CHECKS,
    VerifyContext,
    make_context,
    run_verify_all,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
