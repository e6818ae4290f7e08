"""The demonstration scripts run with their default arguments and print the
numbers the library's shared functions compute."""
import csv
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from qclab import (
    HarmonicPotential,
    RunConfig,
    assemble_hamiltonian,
    decompose,
    gaussian_weights,
    quantum_potential,
    solve_lowest_eigenpairs,
    total_potential,
)
from qclab.verification import criterion_oscillator_identity, make_context

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, name, *args) -> list[str]:
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "name, header",
    [
        ("harmonic_quantum_potential.py", "harmonic well, omega = 1.0, "),
        ("measurement_ensemble.py", "quantum side: |c_n|^2 over the lowest 8 levels"),
    ],
)
def test_script_runs_with_default_arguments(monkeypatch, capsys, name, header):
    assert _run(monkeypatch, capsys, name)[0].startswith(header)


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("harmonic_quantum_potential.py", ["--levels", "0"], "need --levels >= 1, got 0"),
        ("measurement_ensemble.py", ["--levels", "0"],
         "need --levels >= 1 and --seed >= 0, got 0 and 20260814"),
        ("measurement_ensemble.py", ["--seed", "-1"],
         "need --levels >= 1 and --seed >= 0, got 8 and -1"),
        ("harmonic_quantum_potential.py", ["--levels", "2400"],
         "need --levels <= 2399 on this grid, got 2400"),
        ("measurement_ensemble.py", ["--levels", "2400"],
         "need --levels <= 2399 on this grid, got 2400"),
    ],
)
def test_out_of_range_arguments_exit_2_with_one_error_line(
    monkeypatch, capsys, name, args, message
):
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, capsys, name, *args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"{name}: error: {message}"


def test_the_identity_residuals_are_verify_alls(monkeypatch, capsys):
    rows = _run(monkeypatch, capsys, "harmonic_quantum_potential.py")[2:]
    printed = ", ".join(f"n={row.split()[0]}: {row.split()[3]}" for row in rows)
    (check,) = criterion_oscillator_identity(make_context())
    assert printed == check.detail


def test_the_probabilities_are_qclab_ensembles(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "measurement_ensemble.py")
    printed = [m.group(1) for m in map(re.compile(r"\s+n=\d+ .* p=(\S+)$").match, lines) if m]
    energies = np.array([pair.energy for pair in make_context().harmonic_pairs])
    defaults = RunConfig()
    weights = gaussian_weights(
        energies, defaults.get("ensemble.mean_energy"), defaults.get("ensemble.sigma_energy")
    )
    assert printed == [f"{p:.4f}" for p in np.abs(weights.coefficients) ** 2]


def test_the_csv_holds_each_levels_potentials_as_csv_writer_wrote_them(
    monkeypatch, capsys, tmp_path
):
    out = tmp_path / "levels.csv"
    _run(monkeypatch, capsys, "harmonic_quantum_potential.py", "--levels", "2", "--csv", str(out))
    ctx = make_context()  # the script's grid, well and constants
    v = ctx.harmonic_potential_values
    h = assemble_hamiltonian(HarmonicPotential(1.0), ctx.harmonic_grid, ctx.constants)
    header, columns = ["x", "v"], [ctx.harmonic_grid.x, v]
    for n, pair in enumerate(solve_lowest_eigenpairs(h, 2)):
        v_q = quantum_potential(decompose(pair.state, ctx.constants), ctx.constants)
        header += [f"v_q_{n}", f"v_t_{n}"]
        columns += [v_q, total_potential(v_q, v)]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(map(repr, c.tolist()) for c in columns)))
    assert out.read_bytes() == expected.read_bytes()
