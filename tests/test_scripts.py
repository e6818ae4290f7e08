"""The demonstration scripts run to completion with their default arguments."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, header",
    [
        ("free_particle_correspondence.py", "plane wave, E = 0.5, "),
        ("harmonic_quantum_potential.py", "harmonic well, omega = 1.0, "),
        ("measurement_ensemble.py", "quantum side: |c_n|^2 over the lowest 8 levels"),
    ],
)
def test_script_runs_with_default_arguments(monkeypatch, capsys, name, header):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[0].startswith(header)
