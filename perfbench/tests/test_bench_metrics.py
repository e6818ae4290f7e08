"""Metric reduction on fixed inputs, and the tracer on a small CLI run.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def test_quartiles_match_statistics_quantiles():
    values = [7.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0, 10.0, 6.0, 5.0]
    assert metrics.quartiles(values) == (2.75, 5.5, 8.25)
    assert metrics.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert metrics.quartiles([3.5]) == (3.5, 3.5, 3.5)
    assert metrics.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_ratio_keeps_its_base():
    assert metrics.ratio(3.0, 12.0) == {"value": 0.25, "base": 12.0}
    assert metrics.ratio(3.0, 0.0) == {"value": 0.0, "base": 0.0}


def _span(sid, parent, name, start, end, counts=None, minflt=0, sys_s=0.0):
    layer = name.split(".")[0]
    return [sid, parent, name, layer, start, end, minflt, sys_s, counts]


def test_layer_metrics_on_a_fixed_span_tree():
    spans = [
        _span(0, None, "cli.main", 1.0, 11.0, {"subcommand": "ensemble"}),
        _span(1, 0, "verification.harmonic-spectrum", 2.0, 4.0),
        _span(2, 1, "verification.shared.harmonic_pairs", 2.5, 3.5),
        _span(3, 2, "spectral.solve_lowest_eigenpairs", 2.5, 3.4,
              {"pairs": 8, "residual_to_gate": 0.01}),
        _span(4, 3, "tridiagonal.lowest_eigenpairs", 2.6, 3.3, {"n": 2401, "iterations": 17}),
        _span(5, 4, "tridiagonal.sturm_count", 2.6, 2.7),
        _span(6, 4, "tridiagonal.sturm_count", 2.7, 2.8),
        _span(7, 0, "ensemble.run_classical_ensemble", 5.0, 9.0,
              {"sample_steps": 1000, "max_energy_drift": 2e-7}, minflt=500, sys_s=0.5),
        _span(8, 7, "hamilton_jacobi.verlet_step", 5.0, 8.0),
        _span(9, 8, "potentials.potential_force", 6.0, 7.0),
        _span(10, 0, "report.to_json", 10.0, 10.5, {"bytes": 100}),
    ]
    m = metrics.layer_metrics([{"spans": spans, "wall_s": 12.0, "artifact_bytes": 600}])
    assert m["verification.harmonic-spectrum.busy_s"] == pytest.approx(1.0)
    assert m["verification.shared.busy_s"] == pytest.approx(1.0)
    assert m["tridiagonal.busy_s"] == pytest.approx(0.7)
    assert m["tridiagonal.n2401.busy_s"] == pytest.approx(0.7)
    assert m["tridiagonal.sturm_counts"] == 2
    assert m["tridiagonal.inverse_iterations"] == 17
    assert m["spectral.self_s"] == pytest.approx(0.2)
    assert m["spectral.pairs_per_s"] == pytest.approx(8 / 0.9)
    assert m["ensemble.busy_s"] == pytest.approx(4.0)
    assert m["ensemble.self_s"] == pytest.approx(1.0)
    assert m["ensemble.sample_steps_per_s"] == pytest.approx(250.0)
    assert m["ensemble.minflt"] == 500
    assert m["hamilton_jacobi.self_s"] == pytest.approx(2.0)
    assert m["potentials.force_calls"] == 1
    # cli.main minus its direct children (2 + 4 + 0.5 s)
    assert m["cli.self_s"] == pytest.approx(3.5)
    assert m["cli.ensemble.busy_s"] == pytest.approx(10.0)
    assert m["cli.write_bytes_per_s"] == pytest.approx(600 / 3.5)
    assert m["report.bytes"] == 100
    assert m["trace.uncovered_share"] == pytest.approx(2.0 / 12.0)


def test_traced_child_records_layer_spans(tmp_path):
    config = tmp_path / "small.config"
    config.write_text(
        "grid.x_min = -8\ngrid.x_max = 8\ngrid.n_points = 401\n"
        "potential.kind = harmonic\neigen.k = 3\n"
    )
    spans_path = tmp_path / "spans.json"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--trace", str(spans_path), "run-1",
         "cli", "eigen", "--config", str(config), "--out", str(out)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(spans_path.read_text())
    assert dump["run_id"] == "run-1"
    by_name = {}
    for row in dump["spans"]:
        by_name.setdefault(row[metrics.NAME], []).append(row)
    (main,) = by_name["cli.main"]
    assert main[metrics.PARENT] is None and main[metrics.COUNTS] == {"subcommand": "eigen"}
    (eigen,) = by_name["tridiagonal.lowest_eigenpairs"]
    assert eigen[metrics.COUNTS]["n"] == 401
    assert len(by_name["tridiagonal.sturm_count"]) > 0
    assert by_name["report.to_json"][0][metrics.COUNTS]["bytes"] > 0
    m = metrics.layer_metrics([{"spans": dump["spans"], "wall_s": 10.0, "artifact_bytes": 0}])
    assert 0 < m["tridiagonal.busy_s"] < m["spectral.busy_s"] < m["cli.busy_s"]
    assert m["spectral.pairs"] == 3
