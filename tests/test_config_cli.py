"""Config parsing and the CLI subcommands, driven in-process through main()."""
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qclab.spectral
from qclab import ConfigError, EigensolverError, load_run_config, parse_config_text
from qclab.cli import _CHUNK_ROWS, _write_columns, main
from qclab.config import _SCHEMA, RunConfig
from qclab.grids import PhysicalConstants, build_grid
from qclab.hamilton_jacobi import principal_function_slices
from qclab.potentials import (
    FreePotential,
    HarmonicPotential,
    SmoothBarrierPotential,
)
from qclab.report import VerificationReport
from qclab.verification import criterion_inertial, make_context

REPO = Path(__file__).resolve().parent.parent
PLANE_WAVE_FIXTURE = REPO / "fixtures" / "plane_wave.csv"


# --- config parsing ---------------------------------------------------------


def test_parse_happy_path_with_comments():
    values = parse_config_text(
        "# header\n"
        "grid.n_points = 101  # inline comment\n"
        "\n"
        "potential.kind = harmonic\n"
        "tolerance.norm_drift = 1e-9\n"
    )
    assert values == {
        "grid.n_points": 101,
        "potential.kind": "harmonic",
        "tolerance.norm_drift": 1e-9,
    }


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("grid.n_points 101", "expected 'key = value'"),
        ("grid.n_points =", "empty key or value"),
        ("nonsense.key = 3", "unknown key"),
        ("grid.n_points = few", "expects int"),
        ("tolerance. = 1e-9", "tolerance key needs a check name"),
    ],
)
def test_parse_rejects_malformed_lines(line, fragment):
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_config_text("grid.x_min = -5\n" + line + "\n", source="run.cfg")
    assert "run.cfg:2" in str(err.value)


def test_parse_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("eigen.k = 3\neigen.k = 4\n")


_VALUE_TEXT = st.one_of(
    st.sampled_from(
        ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
         "1e-400", "0", "-3", "2.5", "1_000", " 7 ", "0x10", "harmonic"]
    ),
    st.text(max_size=12),
)


@settings(deadline=None, max_examples=200)
@given(
    key=st.sampled_from(sorted(_SCHEMA) + ["tolerance.norm_drift"]),
    value=_VALUE_TEXT,
)
def test_parse_gives_finite_typed_values_or_config_error(key, value):
    try:
        values = parse_config_text(f"{key} = {value}\n")
    except ConfigError:
        return
    for k, v in values.items():
        expected = float if k.startswith("tolerance.") else _SCHEMA[k][0]
        assert type(v) is expected
        assert expected is not float or math.isfinite(v)


@pytest.mark.parametrize(
    "subcommand, line",
    [
        ("hj", "hj.x0 = nan"),
        ("eigen", "tolerance.eigenbasis_orthonormality = nan"),
        ("hj", "constants.mass = inf"),
        ("hj", "hj.p0 = 1e400"),
    ],
)
def test_non_finite_config_floats_exit_2_with_file_and_line(
    tmp_path, capsys, subcommand, line
):
    cfg = _write(tmp_path, "hj.n_steps = 10\n" + line + "\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"run.config:2: key {line.split(' = ')[0]!r} must be finite" in err[0]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_tolerance_scale_exits_2(tmp_path, capsys, scale):
    out = tmp_path / "out"
    assert main(["eigen", "--out", str(out), "--tolerance-scale", scale]) == 2
    assert "tolerance scale must be positive and finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_schema_defaults_have_the_declared_type():
    for key, (expected, default) in _SCHEMA.items():
        assert default is None or type(default) is expected, key


def test_get_falls_back_to_the_schema_and_rejects_other_keys():
    config = RunConfig({"eigen.k": 3, "tolerance.norm_drift": 1e-3})
    assert config.get("eigen.k") == 3
    assert config.get("ensemble.k") == _SCHEMA["ensemble.k"][1]
    assert config.get("madelung.energy") is None
    for key in ("eigen.kk", "tolerance.norm_drift"):
        with pytest.raises(KeyError):
            config.get(key)


def test_defaults_fill_missing_keys(tmp_path):
    config = load_run_config(None)
    assert config.grid.n_points == 4001
    assert config.seed == 20260814
    assert config.constants.hbar == 1.0
    assert isinstance(config.potential, FreePotential)
    missing = tmp_path / "nope.config"
    with pytest.raises(ConfigError, match="does not exist"):
        load_run_config(missing)


def test_potential_dispatch():
    assert isinstance(
        RunConfig({"potential.kind": "harmonic", "potential.omega": 2.0}).potential,
        HarmonicPotential,
    )
    barrier = RunConfig(
        {"potential.kind": "smooth_barrier", "potential.height": 2.0}
    ).potential
    assert isinstance(barrier, SmoothBarrierPotential)
    assert barrier.height == 2.0
    with pytest.raises(ConfigError, match="unknown potential.kind"):
        _ = RunConfig({"potential.kind": "quartic"}).potential
    with pytest.raises(ConfigError, match="needs potential.csv"):
        _ = RunConfig({"potential.kind": "tabulated"}).potential


def test_tolerance_overrides_are_collected():
    config = RunConfig({"tolerance.norm_drift": 1e-8, "eigen.k": 3})
    assert config.tolerance_overrides == {"norm_drift": 1e-8}


def _readme_config_keys() -> set[str]:
    """Keys listed under README "Configuration files", `.x` expanded to
    the group of the first full key in the same bullet."""
    text = (REPO / "README.md").read_text()
    section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for bullet in section.split("\n* ")[1:]:
        group = None
        for token in re.findall(r"`([^`]+)`", bullet):
            if re.fullmatch(r"[a-z_]+\.[a-z0-9_<>-]+", token):
                group = group or token.split(".")[0]
                keys.add(token)
            elif re.fullmatch(r"\.[a-z0-9_]+", token):
                keys.add(group + token)
    return keys


def test_readme_documents_exactly_the_schema_keys():
    assert _readme_config_keys() == set(_SCHEMA) | {"tolerance.<check-name>"}


# --- CLI end-to-end ---------------------------------------------------------


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.config"
    path.write_text(text)
    return path

SMALL_HARMONIC = (
    "grid.x_min = -12\n"
    "grid.x_max = 12\n"
    "grid.n_points = 601\n"
    "potential.kind = harmonic\n"
)


def test_eigen_writes_artifacts_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_HARMONIC + "eigen.k = 4\n")
    out = tmp_path / "out"
    status = main(["eigen", "--config", str(cfg), "--out", str(out)])
    assert status == 0
    energies = json.loads((out / "eigenvalues.json").read_text())
    assert len(energies) == 4
    assert energies == sorted(energies)
    assert energies[0] == pytest.approx(0.5, abs=1e-3)
    header = (out / "eigenfunctions.csv").read_text().splitlines()[0]
    assert header == "x,psi_0,psi_1,psi_2,psi_3"
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["eigenbasis_orthonormality"]
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[PASS] eigenbasis_orthonormality") for line in lines)


def test_eigen_rejects_nonpositive_k(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_HARMONIC + "eigen.k = 0\n")
    status = main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    assert "eigen.k" in capsys.readouterr().err


def _scaled_level_errors(tmp_path) -> np.ndarray:
    """|E_n/(hbar omega) - (n + 1/2 - defect_n)| from `qclab eigen` at
    non-unit constants, less the allowed margin; positive means too far.

    The box is [-12 L, 12 L] with L = sqrt(hbar/(m omega)), so dx/L = 0.04
    whatever the constants.  The 3-point stencil's level defect is
    (dx/L)^2 (2n^2 + 2n + 1)/32 in units of hbar omega, and the margin is
    twice the next term, (dx/L)^4 ((n+1)^3 + n^3)/512, which the levels
    follow to four digits at dx/L = 0.01 .. 0.04.
    """
    hbar, mass, omega = 0.37, 2.9, 1.7
    length = math.sqrt(hbar / (mass * omega))
    cfg = _write(
        tmp_path,
        f"constants.hbar = {hbar}\nconstants.mass = {mass}\n"
        f"grid.x_min = {-12.0 * length!r}\ngrid.x_max = {12.0 * length!r}\n"
        f"grid.n_points = 601\npotential.kind = harmonic\n"
        f"potential.omega = {omega}\neigen.k = 8\n",
    )
    out = tmp_path / "out"
    assert main(["eigen", "--config", str(cfg), "--out", str(out)]) == 0
    levels = np.array(json.loads((out / "eigenvalues.json").read_text()))
    n = np.arange(8)
    h = 0.04
    defect = h**2 * (2 * n**2 + 2 * n + 1) / 32
    margin = 2.0 * h**4 * ((n + 1) ** 3 + n**3) / 512
    return np.abs(levels / (hbar * omega) - (n + 0.5 - defect)) - margin


def test_eigen_levels_scale_with_hbar_omega(tmp_path):
    assert np.all(_scaled_level_errors(tmp_path) <= 0.0)


@pytest.mark.filterwarnings("ignore:eigenstate")  # the wrong levels reach the walls
def test_eigen_scaling_catches_a_dropped_hbar(tmp_path, monkeypatch):
    # planted defect: the kinetic term built as if hbar were 1
    real = qclab.spectral.hamiltonian_from_values

    def hbar_dropped(values, grid, constants):
        return real(values, grid, PhysicalConstants(1.0, constants.mass))

    monkeypatch.setattr(qclab.spectral, "hamiltonian_from_values", hbar_dropped)
    assert np.all(_scaled_level_errors(tmp_path) > 0.0)


def test_usage_errors_exit_2(tmp_path, capsys):
    status = main(
        ["eigen", "--config", str(tmp_path / "absent.config"),
         "--out", str(tmp_path / "o")]
    )
    assert status == 2
    assert "does not exist" in capsys.readouterr().err


def test_madelung_on_shipped_plane_wave_fixture(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "madelung.state = csv\n"
        f"madelung.csv = {PLANE_WAVE_FIXTURE}\n"
        "madelung.energy = 0.5\n",
    )
    out = tmp_path / "out"
    status = main(["madelung", "--config", str(cfg), "--out", str(out)])
    assert status == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["v_q_peak"] < 1e-8
    assert summary["node_count"] == 0
    assert summary["amplitude_relation"]["vacuous"] is False
    assert summary["amplitude_relation"]["deviation"] < 1e-8
    assert summary["modified_hj_residual"] < 1e-8
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "inertial_quantum_potential" in names
    assert report["passed"] is True


def test_madelung_harmonic_state_checks_the_multiplied_identity(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC + "madelung.state = harmonic\nmadelung.n = 2\n",
    )
    out = tmp_path / "out"
    assert main(["madelung", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "oscillator_identity_residual" in names
    # harmonic potential, bound state: no flat-V_q claim should be emitted
    assert "inertial_quantum_potential" not in names


def test_madelung_rejects_an_oscillator_index_whose_norm_overflows(tmp_path, capsys):
    # 2^171 171! no longer fits a float
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC + "madelung.state = harmonic\nmadelung.n = 171\n",
    )
    status = main(["madelung", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("qclab: harmonic eigenfunction n = 171:")


@pytest.mark.parametrize("n", [151, 160, 170])
def test_madelung_rejects_a_normalization_that_rounds_to_inf(tmp_path, capsys, n):
    # 2^n n! is inf without raising for 151 <= n <= 170
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC + f"madelung.state = harmonic\nmadelung.n = {n}\n",
    )
    status = main(["madelung", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"qclab: harmonic eigenfunction n = {n}: the normalization 2^n n! "
        "overflows a float"
    ]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_madelung_odd_harmonic_state_is_a_vacuous_relation(tmp_path, n):
    # dx = 0.02: n = 5's oscillator identity needs a finer grid than
    # SMALL_HARMONIC's dx = 0.04 (1.5e-3 there, against 1e-3)
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC.replace("601", "1201")
        + f"madelung.state = harmonic\nmadelung.n = {n}\n",
    )
    out = tmp_path / "out"
    assert main(["madelung", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["amplitude_relation"] == {"vacuous": True, "deviation": None}


def test_madelung_on_a_three_point_grid_exits_2_with_one_line(tmp_path, capsys):
    # Grid1D allows 3 points; the second derivative's end formula reads 4
    cfg = _write(tmp_path, "grid.n_points = 3\ngrid.x_min = -1\ngrid.x_max = 1\n")
    out = tmp_path / "out"
    assert main(["madelung", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "qclab: the second-derivative stencil needs at least 4 points, got 3"
    ]
    assert list(out.iterdir()) == []


def test_evolve_writes_slices_and_observables(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC
        + "evolve.state = eigenstate\nevolve.n = 0\n"
        + "evolve.n_steps = 40\nevolve.store_every = 20\n",
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    slices = sorted(p.name for p in out.glob("slice_*.csv"))
    assert slices == ["slice_0000.csv", "slice_0001.csv", "slice_0002.csv"]
    rows = (out / "observables.csv").read_text().splitlines()
    assert rows[0] == "t,norm,position,momentum,energy"
    assert len(rows) == 4
    report = json.loads((out / "report.json").read_text())
    assert {c["name"] for c in report["checks"]} == {"norm_drift", "energy_drift"}
    assert report["passed"] is True


def test_failing_check_exits_1_and_scale_relaxes_it(tmp_path, capsys):
    # an impossible override forces a red check; --tolerance-scale widens
    # upper bounds back out of it
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC
        + "evolve.state = eigenstate\nevolve.n_steps = 20\n"
        + "tolerance.energy_drift = 1e-30\n",
    )
    status = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "a")])
    assert status == 1
    assert "[FAIL] energy_drift" in capsys.readouterr().out
    status = main(
        ["evolve", "--config", str(cfg), "--out", str(tmp_path / "b"),
         "--tolerance-scale", "1e25"]
    )
    assert status == 0


def test_hj_free_field_reconstruction(tmp_path):
    cfg = _write(
        tmp_path,
        "hj.p0 = 1.0\nhj.dt = 1e-2\nhj.n_steps = 30\n"
        "hj.s0 = free\nhj.energy = 0.5\n",
    )
    out = tmp_path / "out"
    assert main(["hj", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "s_field_0000.csv").exists()
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["trajectory_energy_drift", "characteristics_free_error"]
    assert report["passed"] is True


def test_hj_rejects_a_zero_field_stride(tmp_path, capsys):
    # a derived default must not swallow an explicit 0
    cfg = _write(tmp_path, "hj.n_steps = 10\nhj.s0 = zero\nhj.store_every = 0\n")
    assert main(["hj", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "hj.store_every" in err[0]


@pytest.mark.parametrize(
    "lines, key",
    [
        (["hj.s0 = bogus"], "hj.s0"),
        (["hj.s0 = free", "hj.energy = 1e308"], "hj.energy"),
        (["hj.s0 = zero", "hj.store_every = 0"], "hj.store_every"),
    ],
    ids=["s0", "energy", "store-every"],
)
def test_hj_refuses_its_field_keys_before_writing_anything(
    tmp_path, capsys, lines, key
):
    cfg = _write(tmp_path, "".join(line + "\n" for line in ["hj.n_steps = 10", *lines]))
    out = tmp_path / "out"
    assert main(["hj", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qclab: config error: ")
    assert key in err[0]
    assert list(out.iterdir()) == []


def test_hj_sweeps_only_the_slices_it_writes(tmp_path):
    # rest release in the well: the caustic at t = pi/2 falls between
    # written slices, so some of them are fully masked
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC
        + "hj.x0 = 2.0\nhj.p0 = 0.0\nhj.dt = 5e-3\nhj.n_steps = 600\n"
        + "hj.s0 = zero\nhj.store_every = 80\n",
    )
    out = tmp_path / "out"
    assert main(["hj", "--config", str(cfg), "--out", str(out)]) == 0
    config = load_run_config(cfg)
    sweep = principal_function_slices(
        config.potential, np.zeros(config.grid.n_points), config.grid, 5e-3, 600,
        config.constants,
    )
    written = sorted(out.glob("s_field_*.csv"))
    assert [p.name for p in written] == [f"s_field_{k:04d}.csv" for k in range(0, 601, 80)]
    for k, s, valid in sweep:
        if k % 80:
            continue
        data = np.genfromtxt(out / f"s_field_{k:04d}.csv", delimiter=",", names=True)
        assert np.array_equal(data["s"], s, equal_nan=True)
        assert np.array_equal(data["valid"].astype(bool), valid)
        if k == 560:
            assert not valid.any()


def test_hj_free_check_holds_no_field(tmp_path):
    # the free check reads all 101 slices of a 4001-point sweep, two of
    # which are written; it and the files hold a few slices at a time
    cfg = _write(tmp_path, "hj.n_steps = 100\nhj.s0 = free\nhj.store_every = 100\n")
    out = tmp_path / "out"
    out.mkdir()
    one_field = 101 * 4001 * 8
    tracemalloc.start()
    try:
        assert main(["hj", "--config", str(cfg), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(p.name for p in out.glob("s_field_*.csv")) == [
        "s_field_0000.csv", "s_field_0100.csv"
    ]
    assert peak < one_field  # 3.23 MB


def test_traced_hj_runs_exit_like_untraced_ones(tmp_path):
    # the benchmark's tracer wraps qclab's names from outside and probes
    # some results by attribute; a traced run must still finish
    for name in ("free-hj", "harmonic-caustic-hj"):
        spans = tmp_path / f"{name}.json"
        run = subprocess.run(
            [sys.executable, "perfbench/child.py", "--trace", str(spans), name,
             "cli", "hj", "--config", f"configs/{name}.config",
             "--out", str(tmp_path / name)],
            capture_output=True, text=True, cwd=REPO,
        )
        assert run.returncode == 0, run.stderr
        names = {row[2] for row in json.loads(spans.read_text())["spans"]}
        assert "hamilton_jacobi.verlet_step" in names


def test_madelung_with_no_finite_quantum_potential_exits_2_with_one_line(
    tmp_path, capsys
):
    # re = 1, 0, 1, 0, ...: every point is on or beside a node
    x = build_grid(-1.0, 1.0, 21).x.tolist()
    state = tmp_path / "state.csv"
    rows = [f"{a!r},{1 - i % 2}.0,0.0\n" for i, a in enumerate(x)]
    state.write_text("x,re,im\n" + "".join(rows))
    cfg = _write(
        tmp_path,
        "grid.n_points = 21\ngrid.x_min = -1\ngrid.x_max = 1\n"
        f"madelung.csv = {state}\n",
    )
    out = tmp_path / "out"
    assert main(["madelung", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "V_q has no finite point" in err[0]
    assert list(out.iterdir()) == []


def test_eigen_rejects_a_grid_span_that_overflows(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "grid.x_min = -1e308\ngrid.x_max = 1e308\ngrid.n_points = 11\neigen.k = 2\n",
    )
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "dx = inf" in err[0]


def test_hj_compare_free_scenario(tmp_path):
    cfg = _write(tmp_path, "compare.scenario = free\nhj.energy = 0.5\n")
    out = tmp_path / "out"
    assert main(["hj-compare", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["inertial_phase_vs_action", "inertial_quantum_potential"]
    assert report["passed"] is True
    assert "constant_offset" in report["metadata"]


def test_hj_compare_free_reuses_the_verify_all_checks(tmp_path):
    cfg = _write(
        tmp_path,
        "grid.x_min = -20\ngrid.x_max = 20\ngrid.n_points = 4001\n"
        "compare.scenario = free\nhj.energy = 0.5\n",
    )
    out = tmp_path / "out"
    assert main(["hj-compare", "--config", str(cfg), "--out", str(out)]) == 0
    cli_rows = json.loads((out / "report.json").read_text())["checks"]
    criterion = VerificationReport("verify-all", criterion_inertial(make_context()))
    criterion_rows = json.loads(criterion.to_json())["checks"]
    strip = lambda rows: [{k: v for k, v in r.items() if k != "detail"} for r in rows]
    assert strip(cli_rows) == strip(criterion_rows)


def test_hj_compare_harmonic_ground_scenario(tmp_path):
    cfg = _write(
        tmp_path,
        "grid.x_min = -12\ngrid.x_max = 12\ngrid.n_points = 2401\n"
        "potential.kind = harmonic\ncompare.scenario = harmonic-ground\n",
    )
    out = tmp_path / "out"
    assert main(["hj-compare", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("phase_action_gap_vs_vq", True)
    ]
    assert report["metadata"]["ground_energy"] == pytest.approx(0.5, abs=1e-4)
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


@pytest.mark.parametrize(
    "scenario, keys",
    [("free", "hj.energy = 0.5\n"), ("harmonic-ground", SMALL_HARMONIC)],
    ids=["free", "harmonic-ground"],
)
def test_hj_compare_measures_at_the_configured_hbar_and_mass(tmp_path, scenario, keys):
    # verify-all is pinned at hbar = m = 1; hj-compare takes the config's
    hbar, mass = 0.5, 2.0
    cfg = _write(
        tmp_path,
        f"{keys}constants.hbar = {hbar}\nconstants.mass = {mass}\n"
        f"compare.scenario = {scenario}\n",
    )
    out = tmp_path / "out"
    assert main(["hj-compare", "--config", str(cfg), "--out", str(out)]) == 0
    metadata = json.loads((out / "report.json").read_text())["metadata"]
    if scenario == "free":
        # the phase of exp(i p x / hbar), unwrapped from x_min = -20, less S = p x
        p, x0 = math.sqrt(2.0 * mass * 0.5), -20.0
        offset = hbar * np.angle(np.exp(1j * p * x0 / hbar)) - p * x0
        assert metadata["constant_offset"] == pytest.approx(offset, abs=1e-9)
    else:
        # measured at hbar = m = 1, the phase-action gap is O(1), far above 2e-3
        assert metadata["ground_energy"] == pytest.approx(0.5 * hbar, abs=1e-3)


@pytest.mark.parametrize("scale, verdict", [("1", 0), ("1e-30", 1)])
def test_a_closed_stdout_keeps_the_verdict_and_prints_no_traceback(tmp_path, scale, verdict):
    # as in `qclab hj-compare ... | head -1`: the reader is gone before the
    # summary is printed, and report.json already holds the verdict
    cfg = _write(tmp_path, "compare.scenario = free\nhj.energy = 0.5\n")
    out = tmp_path / "out"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "qclab.cli", "hj-compare", "--config", str(cfg),
             "--out", str(out), "--tolerance-scale", scale],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (verdict, "")
    assert json.loads((out / "report.json").read_text())["passed"] is (verdict == 0)


def test_hj_compare_rejects_unknown_scenario(tmp_path, capsys):
    cfg = _write(tmp_path, "compare.scenario = tunneling\n")
    status = main(["hj-compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    assert "compare.scenario" in capsys.readouterr().err


def test_superpose_artifacts_and_weight_roundtrip(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC + "superpose.coefficients = 0.6, 0.8j\n",
    )
    out = tmp_path / "out"
    assert main(["superpose", "--config", str(cfg), "--out", str(out)]) == 0
    dist = json.loads((out / "energy_distribution.json").read_text())
    assert [d["level"] for d in dist] == [0, 1]
    assert dist[0]["probability"] == pytest.approx(0.36)
    assert dist[1]["probability"] == pytest.approx(0.64)
    assert sum(d["probability"] for d in dist) == pytest.approx(1.0)
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["metadata"]["input_total_weight"] == pytest.approx(1.0)


def test_superpose_normalizes_lopsided_input(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC + "superpose.coefficients = 3, 4j\n",
    )
    out = tmp_path / "out"
    assert main(["superpose", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["input_total_weight"] == pytest.approx(25.0)
    dist = json.loads((out / "energy_distribution.json").read_text())
    assert dist[0]["probability"] == pytest.approx(0.36)


def test_superpose_rejects_unparseable_coefficients(tmp_path, capsys):
    cfg = _write(
        tmp_path, SMALL_HARMONIC + "superpose.coefficients = 0.6, what\n"
    )
    status = main(["superpose", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2


@pytest.mark.parametrize(
    "subcommand, line, message",
    [
        ("superpose", "superpose.coefficients = nan, 1", "coefficients must be finite"),
        ("superpose", "superpose.coefficients = 1, inf", "coefficients must be finite"),
        ("superpose", "superpose.coefficients = 1, 1+nanj", "must be finite"),
        ("eigen", "potential.omega = 1e300", "omega^2 must be finite"),
    ],
)
def test_values_that_pass_parsing_but_are_not_finite_exit_2(
    tmp_path, capsys, subcommand, line, message
):
    # complex() accepts nan and inf, and 1e300 is a finite float whose
    # square is not: both escape the parse-time finiteness rule
    cfg = _write(tmp_path, SMALL_HARMONIC + line + "\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "subcommand, lines, key",
    [
        ("hj", ["hj.p0 = 1e308", "hj.n_steps = 10"], "hj.p0"),
        ("hj", ["potential.kind = harmonic", "hj.x0 = 1e200", "hj.n_steps = 10"], "hj.x0"),
        # Verlet is unstable for omega dt > 2: the orbit grows until it overflows
        ("hj", ["potential.kind = harmonic", "hj.dt = 3", "hj.n_steps = 2000"], "hj.dt"),
        ("hj", ["hj.s0 = free", "hj.energy = 1e308", "hj.n_steps = 10"], "hj.energy"),
        ("hj-compare", ["compare.scenario = free", "hj.energy = 1e308"], "hj.energy"),
        ("madelung", ["madelung.energy = 1e308"], "madelung.energy"),
    ],
    ids=["hj-p0", "hj-x0", "hj-dt", "hj-s0-energy", "hj-compare-energy", "madelung-energy"],
)
def test_finite_values_whose_derived_values_overflow_exit_2(
    tmp_path, capsys, subcommand, lines, key
):
    # each value parses as a finite float, but p^2/2m, V(x) or sqrt(2mE)
    # overflows; without the guard the report carries NaN and exits 1
    cfg = _write(tmp_path, "".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qclab: config error: ")
    assert key in err[0]
    assert not (out / "report.json").exists()


def test_a_large_finite_orbit_energy_still_runs(tmp_path):
    cfg = _write(tmp_path, "hj.p0 = 1e150\nhj.n_steps = 10\n")
    out = tmp_path / "out"
    assert main(["hj", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][0]["measured"] == 0.0


def test_a_large_omega_with_a_finite_square_still_runs(tmp_path):
    cfg = _write(tmp_path, SMALL_HARMONIC + "potential.omega = 1e150\n")
    out = tmp_path / "out"
    assert main(["eigen", "--config", str(cfg), "--out", str(out)]) == 0


def test_ensemble_quick_run(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC
        + "ensemble.k = 4\nensemble.n_samples = 100000\n"
        + "ensemble.n_steps = 200\nensemble.store_every = 100\n",
    )
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["tv_distance"] < 0.01
    assert sum(d["count"] for d in comparison["levels"]) == 100000
    p_classical = sum(d["p_classical"] for d in comparison["levels"])
    assert p_classical == pytest.approx(1.0)
    assert (out / "sample_energies.csv").exists()
    assert (out / "histogram_t0000.csv").exists()


def test_ensemble_histograms_carry_the_float_edge_text(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC
        + "ensemble.k = 2\nensemble.n_samples = 500\n"
        + "ensemble.n_steps = 315\nensemble.store_every = 5\n"
        + "tolerance.ensemble_tv_matched = 0.2\n",
    )
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 0
    edges = load_run_config(cfg).grid.x
    files = sorted(out.glob("histogram_t*.csv"))
    assert len(files) == 64
    for path in files:
        counts = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2, dtype=int)
        ref = tmp_path / "ref.csv"
        _csv_writer_columns(
            ref, ["bin_left", "bin_right", "count"], edges[:-1], edges[1:], counts
        )
        assert path.read_bytes() == ref.read_bytes()


def test_ensemble_refuses_a_draw_below_the_barrier_at_launch(tmp_path, capsys):
    # every sample launches at x = 0, the top of a unit barrier, and the
    # lowest levels of the 24-wide box lie below it
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC.replace("harmonic", "smooth_barrier")
        + "ensemble.k = 2\nensemble.n_samples = 100\nensemble.n_steps = 10\n",
    )
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(
        r"qclab: sample \d+: drawn energy \S+ lies below the potential 1\.0 "
        r"at its launch point",
        err[0],
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_ensemble_rejects_non_finite_dt(tmp_path, capsys, monkeypatch, dt):
    # the config parse rejects the value before the eigensolve is paid for
    calls = []
    solve = qclab.spectral.lowest_eigenpairs
    monkeypatch.setattr(
        qclab.spectral,
        "lowest_eigenpairs",
        lambda *args: calls.append(args) or solve(*args),
    )
    cfg = _write(
        tmp_path,
        "grid.x_min = -5\ngrid.x_max = 5\ngrid.n_points = 201\n"
        f"potential.kind = harmonic\nensemble.dt = {dt}\n",
    )
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("qclab: config error: ")
    assert err[0].endswith(f"run.config:5: key 'ensemble.dt' must be finite, got '{dt}'")
    assert not (out / "comparison.json").exists()
    assert calls == []


@pytest.mark.parametrize(
    "line, message",
    [
        ("ensemble.dt = 0", "qclab: dt must be finite and positive, got 0.0"),
        ("ensemble.n_steps = 0", "qclab: n_steps must be >= 1, got 0"),
        ("ensemble.store_every = 0", "qclab: store_every must be >= 1, got 0"),
        (
            "ensemble.n_samples = 0",
            "qclab: config error: ensemble.n_samples must be >= 1, got 0",
        ),
    ],
    ids=["dt", "n_steps", "store_every", "n_samples"],
)
def test_ensemble_refuses_run_arguments_before_the_eigensolve(
    tmp_path, capsys, monkeypatch, line, message
):
    calls = []
    monkeypatch.setattr(
        qclab.spectral, "lowest_eigenpairs", lambda *args: calls.append(args)
    )
    cfg = _write(tmp_path, SMALL_HARMONIC + line + "\n")
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert calls == []


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_HARMONIC
        + "ensemble.k = 2\nensemble.n_samples = 500\n"
        + "ensemble.n_steps = 5\nensemble.store_every = 5\n"
        # 500 samples is deliberately noisy; this test only pins the seed
        # plumbing, so park the TV gate out of the way
        + "tolerance.ensemble_tv_matched = 0.2\n",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out_a),
                 "--seed", "1"]) == 0
    assert main(["ensemble", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "2"]) == 0
    a = (out_a / "sample_energies.csv").read_text()
    b = (out_b / "sample_energies.csv").read_text()
    assert a != b
    report = json.loads((out_a / "report.json").read_text())
    assert report["metadata"]["seed"] == 1


@pytest.mark.parametrize(
    "subcommand, config_text, flags",
    [
        ("verify-all", "", ["--seed", "-1"]),
        ("ensemble", SMALL_HARMONIC + "run.seed = -1\n", []),
    ],
    ids=["seed-flag", "config-key"],
)
def test_negative_seed_is_a_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch, subcommand, config_text, flags
):
    calls = []
    monkeypatch.setattr(
        qclab.spectral, "lowest_eigenpairs", lambda *args: calls.append(args)
    )
    cfg = _write(tmp_path, config_text)
    out = tmp_path / "out"
    status = main([subcommand, "--config", str(cfg), "--out", str(out), *flags])
    assert status == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["qclab: config error: run.seed must be >= 0, got -1"]
    assert calls == []
    assert not (out / "report.json").exists()


def test_reports_are_byte_identical_modulo_volatile_fields(tmp_path):
    cfg = _write(tmp_path, SMALL_HARMONIC + "eigen.k = 3\n")
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["eigen", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        payload.pop("generated_at")
        payload.pop("timing")
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1]


def _wall_table(tmp_path: Path, n_points: int, wall: float) -> Path:
    """Config for `eigen` on a tabulated well: V = wall for |x| > 4."""
    x = build_grid(-5.0, 5.0, n_points).x
    table = tmp_path / "walls.csv"
    table.write_text(
        "x,V\n"
        + "".join(f"{xi!r},{wall if abs(xi) > 4 else 0.0!r}\n" for xi in x.tolist())
    )
    return _write(
        tmp_path,
        f"grid.x_min = -5\ngrid.x_max = 5\ngrid.n_points = {n_points}\n"
        f"potential.kind = tabulated\npotential.csv = {table}\neigen.k = 3\n",
    )


@pytest.mark.parametrize(
    "n_points, wall, ground",
    [
        # dense np.linalg.eigvalsh of the interior matrix gives the same
        (101, 1e308, 0.0733819),
        # next to the 1e6-wall level 0.0752114
        (201, 1e10, 0.0752118),
    ],
)
def test_eigen_solves_hard_wall_tables(tmp_path, n_points, wall, ground):
    cfg = _wall_table(tmp_path, n_points, wall)
    out = tmp_path / "o"
    assert main(["eigen", "--config", str(cfg), "--out", str(out)]) == 0
    energies = json.loads((out / "eigenvalues.json").read_text())
    assert energies[0] == pytest.approx(ground, abs=1e-7)


def test_solver_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # a failed eigensolve must surface as a one-line error, not a traceback
    def fail(diag, off, k):
        raise EigensolverError("LAPACK stebz/stein failed: 1 eigenvector")

    monkeypatch.setattr(qclab.spectral, "lowest_eigenpairs", fail)
    cfg = _wall_table(tmp_path, 101, 1.0)
    status = main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["qclab: LAPACK stebz/stein failed: 1 eigenvector"]


@pytest.mark.parametrize("column", [0, 1], ids=["x", "V"])
@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_tabulated_csv_rejects_non_finite_cells(tmp_path, capsys, cell, column):
    cfg = _wall_table(tmp_path, 101, 1e6)
    table = tmp_path / "walls.csv"
    lines = table.read_text().splitlines()
    cells = lines[51].split(",")  # row 52 of the file: x = 0
    cells[column] = cell
    lines[51] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n")
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"qclab: config error: {table}: row 52: non-finite x or V: {cells!r}"
    ]


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_wavefunction_csv_rejects_non_finite_cells(tmp_path, capsys, cell):
    x = build_grid(-5.0, 5.0, 101).x.tolist()
    rows = [f"{xi!r},{math.exp(-xi * xi)!r},0.0" for xi in x]
    rows[50] = f"{x[50]!r},{cell},0.0"
    state = tmp_path / "psi.csv"
    state.write_text("x,re,im\n" + "\n".join(rows) + "\n")
    cfg = _write(
        tmp_path,
        "grid.x_min = -5\ngrid.x_max = 5\ngrid.n_points = 101\n"
        f"evolve.state = csv\nevolve.csv = {state}\nevolve.n_steps = 5\n",
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("qclab: config error: ")
    assert err[0].endswith(f"non-finite re/im value at x = {x[50]!r}")


# --- CSV artifacts ----------------------------------------------------------


def _csv_writer_columns(path: Path, header: list[str], *columns) -> None:
    """The reference _write_columns must match byte for byte: csv.writer's
    default dialect over each column's tolist(), bools as ints."""
    cells = [
        (c.astype(int) if c.dtype == bool else c).tolist()
        for c in map(np.asarray, columns)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e16, 1e-5, 0.1,
]
# printable ASCII without the two characters csv.writer would quote
_CELL_TEXT = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"'),
    min_size=1,
    max_size=8,
)


@st.composite
def _csv_columns(draw) -> list[np.ndarray]:
    n = draw(st.integers(0, 24))
    columns = []
    for kind in draw(st.lists(st.sampled_from("fibs"), min_size=1, max_size=4)):
        if kind == "f":
            # the edge values repeat within a column
            cell, dtype = st.sampled_from(_EDGE_FLOATS) | st.floats(), np.float64
        elif kind == "i":
            cell, dtype = st.integers(-(2**63), 2**63 - 1), np.int64
        elif kind == "b":
            cell, dtype = st.booleans(), bool
        else:
            cell, dtype = _CELL_TEXT, str
        columns.append(np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=dtype))
    return columns


def _chunk_crossing_columns() -> list[np.ndarray]:
    """2 x chunk + 1 rows, the last alone in the third chunk; repeated
    floats throughout, and both zeros and nan on either side of a boundary."""
    n = 2 * _CHUNK_ROWS + 1
    floats = np.tile([0.1, 1e16, 2.5e-310, -1.5], n // 4 + 1)[:n]
    floats[_CHUNK_ROWS - 2 : _CHUNK_ROWS + 2] = [0.0, math.nan, -0.0, math.nan]
    floats[-3:] = [-0.0, math.nan, 0.0]
    return [
        floats,
        np.arange(n, dtype=np.int64) % 7 - 3,
        np.arange(n) % 3 == 0,
        np.array([f"r{k % 5}" for k in range(n)]),
    ]


@settings(deadline=None, max_examples=200)
@example(columns=[np.array([], dtype=np.float64), np.array([], dtype=bool)])
@example(columns=_chunk_crossing_columns())
@given(columns=_csv_columns())
def test_write_columns_matches_csv_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "out.csv", Path(tmp) / "ref.csv"
        _write_columns(path, header, *columns)
        _csv_writer_columns(ref, header, *columns)
        assert path.read_bytes() == ref.read_bytes()


def test_write_columns_holds_one_chunk_of_text(tmp_path):
    # 1e5 rows of 1000 distinct floats: the whole file's text and row
    # strings would take ~4.9 MB, one chunk's take ~0.2 MB
    column = np.repeat(np.linspace(0.0, 1.0, 1000), 100)
    tracemalloc.start()
    try:
        _write_columns(tmp_path / "long.csv", ["v"], column)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column.size > 2 * _CHUNK_ROWS
    assert peak < column.nbytes


def test_write_columns_keeps_the_sign_of_zero(tmp_path):
    path = tmp_path / "zeros.csv"
    _write_columns(path, ["v"], np.array([0.0, -0.0, 0.0]))
    assert path.read_bytes() == b"v\r\n0.0\r\n-0.0\r\n0.0\r\n"


def test_write_columns_of_unequal_length_leave_no_file(tmp_path):
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError):
        _write_columns(path, ["a", "b"], np.arange(3.0), np.arange(2.0))
    assert not path.exists()


@pytest.mark.parametrize(
    "subcommand, lines",
    [
        ("eigen", "eigen.k = 4\n"),
        (
            "evolve",
            "evolve.center = 1.0\nevolve.momentum = 0.5\n"
            "evolve.n_steps = 40\nevolve.store_every = 20\n",
        ),
        ("madelung", "madelung.state = harmonic\nmadelung.n = 2\n"),
        (
            "hj",
            "hj.x0 = 2.0\nhj.p0 = 0.0\nhj.dt = 5e-3\nhj.n_steps = 600\n"
            "hj.s0 = zero\nhj.store_every = 80\n",
        ),
        ("superpose", "superpose.coefficients = 0.6, 0.8j\n"),
        (
            "ensemble",
            "ensemble.k = 2\nensemble.n_samples = 500\n"
            "ensemble.n_steps = 100\nensemble.store_every = 50\n",
        ),
    ],
)
def test_subcommand_artifacts_match_the_csv_writer(
    tmp_path, capsys, monkeypatch, subcommand, lines
):
    cfg = _write(tmp_path, SMALL_HARMONIC + lines)
    status = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "new")])
    stdout = capsys.readouterr().out
    # with _cells a pass-through, shared columns reach the reference as floats
    monkeypatch.setattr(qclab.cli, "_cells", np.asarray)
    monkeypatch.setattr(qclab.cli, "_write_columns", _csv_writer_columns)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "ref")]) == status
    assert capsys.readouterr().out == stdout

    new = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert new == sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert any(name.endswith(".csv") for name in new)
    for name in new:
        a, b = (tmp_path / side / name for side in ("new", "ref"))
        if name == "report.json":
            reports = [json.loads(p.read_text()) for p in (a, b)]
            for report in reports:
                del report["generated_at"], report["timing"]
            assert reports[0] == reports[1]
        else:
            assert a.read_bytes() == b.read_bytes(), name
