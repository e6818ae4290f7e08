"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 perfbench/child.py [--trace SPANS.json RUN_ID] setup
    python3 perfbench/child.py [--trace SPANS.json RUN_ID] cli <qclab args...>
    python3 perfbench/child.py [--trace SPANS.json RUN_ID] spectrum OMEGA K OUT.json N...

`setup` only imports qclab.cli.  `cli` is what the `qclab` console script
does.  `spectrum` drives the library API: the lowest K eigenpairs of a
harmonic well on [-12, 12] with N points, for each N, then the polar
layer and the oscillator identity on every pair; it writes the raw
numbers to OUT.json and run.py judges them.

Untraced, the child imports nothing beyond what the program itself
imports, so its wall time and rusage are the program's own.  With
--trace, tracer.py wraps qclab's public names before the work starts and
the spans are written to SPANS.json when it ends.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def spectrum(omega, k, out_path, sizes):
    import json

    import numpy as np

    from qclab import grids, madelung, potentials, spectral

    constants = grids.PhysicalConstants()
    rows = []
    for n_points in sizes:
        grid = grids.build_grid(-12.0, 12.0, n_points)
        h = spectral.assemble_hamiltonian(
            potentials.HarmonicPotential(omega), grid, constants
        )
        pairs = spectral.solve_lowest_eigenpairs(h, k)
        gram = np.array([[p.state.inner(q.state) for q in pairs] for p in pairs])
        identity = []
        for n, pair in enumerate(pairs):
            madelung.quantum_potential(madelung.decompose(pair.state, constants), constants)
            identity.append(madelung.verify_oscillator_identity(n, pair, omega, constants))
        rows.append(
            {
                "n_points": n_points,
                "dx": grid.dx,
                "energies": [pair.energy for pair in pairs],
                "orthonormality": float(np.max(np.abs(gram - np.eye(len(pairs))))),
                "identity_residuals": identity,
            }
        )
    with open(out_path, "w") as fh:
        json.dump({"omega": omega, "grids": rows}, fh)
    return 0


def main(argv):
    trace = None
    if argv[:1] == ["--trace"]:
        trace, argv = argv[1:3], argv[3:]
    # the checkout's src/ stands where an installed package would be
    sys.path[0] = SRC
    recorder = None
    if trace:
        sys.path.append(os.path.dirname(os.path.abspath(__file__)))
        import tracer

        recorder = tracer.install(trace[1])
    try:
        mode = argv[0]
        if mode == "setup":
            import qclab.cli  # noqa: F401

            return 0
        if mode == "cli":
            import qclab.cli

            return qclab.cli.main(argv[1:])
        if mode == "spectrum":
            return spectrum(float(argv[1]), int(argv[2]), argv[3], [int(n) for n in argv[4:]])
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    finally:
        if recorder is not None:
            recorder.dump(trace[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
