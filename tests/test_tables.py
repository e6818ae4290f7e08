"""The CSV tables a config names, all read by config.read_csv, and the
strict JSON every run writes, all encoded by report.canonical_json."""
import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclab
from qclab.cli import _load_wavefunction_csv, main
from qclab.config import RunConfig, load_tabulated_csv, read_csv
from qclab.grids import build_grid
from qclab.report import VerificationReport, canonical_json, check_against

PLANE_WAVE_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "plane_wave.csv"
# a small grid for hand-written tables: 11 points on [-1, 1]
SMALL_GRID = {"grid.x_min": -1.0, "grid.x_max": 1.0, "grid.n_points": 11}
SMALL_X = build_grid(-1.0, 1.0, 11).x.tolist()


def _config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _run(tmp_path: Path, subcommand: str, values: dict) -> tuple[int, list[str]]:
    """Exit status and stderr lines of one in-process run."""
    cfg = tmp_path / "run.config"
    cfg.write_text(_config_text(values))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / subcommand)])
    return status, err.getvalue().splitlines()


def _state_rows(columns=("x", "re", "im")) -> list[str]:
    """Rows of a Gaussian that vanishes at the walls of SMALL_X, cells in
    repr text, columns in the given order."""
    cells = {"x": SMALL_X, "re": [math.exp(-x * x / 0.05) for x in SMALL_X]}
    cells["im"] = [0.5 * x * v for x, v in zip(SMALL_X, cells["re"])]
    cells["note"] = [float(k) for k in range(len(SMALL_X))]
    return [",".join(repr(cells[c][k]) for c in columns) for k in range(len(SMALL_X))]


# --- read_csv ---------------------------------------------------------------


def test_read_csv_skips_comments_and_blank_lines_and_strips_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(
        b"# made by hand\r\n\r\n x , V \r\n1.0,2.5\r\n  \r\n# between\r\n-3,4e-3 # note\r\n"
    )
    header, data, rows = read_csv(path)
    assert header == ["x", "V"]
    assert data.tolist() == [[1.0, 2.5], [-3.0, 0.004]]
    assert rows == [(4, "1.0,2.5"), (7, "-3,4e-3 # note")]


def test_read_csv_reads_quoted_and_non_finite_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('"0.5",nan\n-inf,"1e400"\n')
    header, data, _ = read_csv(path)
    assert header is None
    assert data[0, 0] == 0.5 and np.isnan(data[0, 1])
    assert data[1, 0] == -np.inf and data[1, 1] == np.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, header, width",
    [("x,re,im\n", ["x", "re", "im"], 3), ("", None, 0), ("# a comment\n\n", None, 0)],
    ids=["header-only", "empty", "comment-only"],
)
def test_read_csv_of_a_table_without_data_warns_nothing(tmp_path, text, header, width):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert read_csv(path)[0] == header
    assert read_csv(path)[1].shape == (0, width)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,V\n1,2\n3,4,5\n", "row 3: expected 2 numbers, got ['3', '4', '5']"),
        ("x,re,im\n1,2\n", "row 2: expected 3 numbers, got ['1', '2']"),
        ("1,2\n\n# note\n3,abc\n", "row 4: expected 2 numbers, got ['3', 'abc']"),
        ("x,V\r\n1,2\r\n3,\r\n", "row 3: expected 2 numbers, got ['3', '']"),
    ],
    ids=["longer", "shorter-than-the-header", "text", "empty-cell"],
)
def test_read_csv_names_the_line_of_a_malformed_row(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_tabulated_csv_is_still_exported_from_qclab():
    assert qclab.load_tabulated_csv is load_tabulated_csv


# --- inputs read before read_csv load to the same doubles ---------------------


def _genfromtxt_state(path: Path) -> np.ndarray:
    """The state as np.genfromtxt(names=True) read it before read_csv."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data["re"] + 1j * data["im"]


def _csv_reader_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(x, V) as the csv.reader loop read them before read_csv."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        float(rows[0][0]), float(rows[0][1])
    except ValueError:
        rows = rows[1:]  # the header
    return tuple(np.array([float(row[i]) for row in rows]) for i in (0, 1))


def _cli_slice(tmp_path: Path) -> Path:
    values = {**SMALL_GRID, "evolve.center": 0.0, "evolve.width": 0.2, "evolve.n_steps": 4,
              "evolve.store_every": 2}
    assert _run(tmp_path, "evolve", values)[0] in (0, 1)
    return tmp_path / "evolve" / "slice_0001.csv"


def _written(tmp_path: Path, header: str, rows: list[str]) -> Path:
    path = tmp_path / "state.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


@pytest.mark.parametrize(
    "state",
    [
        lambda tmp_path: PLANE_WAVE_FIXTURE,
        _cli_slice,
        lambda tmp_path: _written(tmp_path, " x , re , im ", _state_rows()),
        lambda tmp_path: _written(
            tmp_path, "im,note,x,re", _state_rows(("im", "note", "x", "re"))
        ),
    ],
    ids=["shipped-fixture", "cli-slice", "spaces-around-names", "reordered-and-extra"],
)
def test_a_state_table_loads_to_the_doubles_genfromtxt_read(tmp_path, state):
    path = state(tmp_path)
    grid = {} if path == PLANE_WAVE_FIXTURE else SMALL_GRID
    psi = _load_wavefunction_csv(RunConfig({**grid, "evolve.csv": str(path)}), "evolve")
    assert psi.values.tobytes() == _genfromtxt_state(path).tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "x,V\n" + "".join(f"{x!r},{x * x!r}\n" for x in SMALL_X),
        "".join(f"{x!r},{x * x!r}\n" for x in SMALL_X),
        '"x","V"\n' + "".join(f'"{x!r}","{x * x!r}"\n' for x in SMALL_X),
    ],
    ids=["header", "no-header", "quoted"],
)
def test_a_potential_table_loads_to_the_doubles_csv_reader_read(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_text(text)
    potential = load_tabulated_csv(path)
    x, v = _csv_reader_table(path)
    assert potential.x.tobytes() == x.tobytes()
    assert potential.values.tobytes() == v.tobytes()


# --- malformed tables through the CLI -----------------------------------------


@pytest.mark.parametrize("subcommand", ["madelung", "evolve"])
def test_a_leading_comment_line_is_skipped(tmp_path, subcommand):
    # np.genfromtxt took such a line for the header: exit 2, one line per row
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    plain.write_text("x,re,im\n" + "\n".join(_state_rows()) + "\n")
    commented.write_text("# a Gaussian\n" + plain.read_text())
    outputs = []
    for path in (plain, commented):
        values = {**SMALL_GRID, f"{subcommand}.state": "csv", f"{subcommand}.csv": path,
                  "evolve.n_steps": 2, "evolve.store_every": 1}
        run = tmp_path / path.stem
        run.mkdir()
        assert _run(run, subcommand, values) == (0, [])
        outputs.append(
            {p.name: p.read_bytes() for p in (run / subcommand).iterdir() if p.suffix == ".csv"}
        )
    assert outputs[0] == outputs[1] and outputs[0]


@pytest.mark.parametrize("subcommand", ["madelung", "evolve"])
@pytest.mark.parametrize(
    "k, edit, message",
    [
        # np.genfromtxt's message had a second line naming the row
        (4, lambda c: c[:2], "row 6: expected 3 numbers, got {cells!r}"),
        # np.genfromtxt read a text cell as nan: "non-finite re/im value"
        (3, lambda c: [c[0], "abc", c[2]], "row 5: expected 3 numbers, got {cells!r}"),
        # the grid message named no x: "(11 points vs 11)"
        (6, lambda c: ["0.25", *c[1:]], "row 8: x = 0.25 where the grid has " + repr(SMALL_X[6])),
    ],
    ids=["ragged", "text", "off-the-grid"],
)
def test_a_malformed_state_table_exits_2_with_one_line(tmp_path, subcommand, k, edit, message):
    rows = _state_rows()  # data row k is line k + 2, below the header
    cells = edit(rows[k].split(","))
    rows[k] = ",".join(cells)
    path = _written(tmp_path, "x,re,im", rows)
    values = {**SMALL_GRID, f"{subcommand}.state": "csv", f"{subcommand}.csv": path}
    status, err = _run(tmp_path, subcommand, values)
    assert (status, err) == (2, [f"qclab: config error: {path}: {message.format(cells=cells)}"])


# --- the one-line property ----------------------------------------------------

_X5 = build_grid(-1.0, 1.0, 5).x.tolist()
_GRID5 = {"grid.x_min": -1.0, "grid.x_max": 1.0, "grid.n_points": 5}
_NUMBER = st.floats(-4.0, 4.0).map(repr)
_ODD = st.sampled_from(["nan", "inf", "-inf", "abc", "", '"0.5"', " 1.5 ", "1e400"])
_TABLE_RUNS = {
    "madelung": {"madelung.state": "csv"},
    "evolve": {"evolve.state": "csv", "evolve.n_steps": 2, "evolve.store_every": 1},
    "eigen": {"potential.kind": "tabulated", "eigen.k": 1},
}


@st.composite
def _tables(draw) -> str:
    """A state or potential table on _X5: columns x, re, im in any order and
    maybe an extra one, a header or none, comment and blank lines, LF or
    CRLF ends, and up to two defects: an odd cell (text, empty, nan, inf,
    quoted, padded), a row a cell shorter or longer, or a row gone."""
    columns = draw(st.permutations(["x", "re", "im", "extra"]))
    if draw(st.booleans()):
        columns.remove("extra")
    rows = [[repr(x) if name == "x" else draw(_NUMBER) for name in columns] for x in _X5]
    for row in (rows[0], rows[-1]):  # evolve refuses a state that reaches the walls
        for name in ("re", "im"):
            row[columns.index(name)] = "0.0"
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        defect = draw(st.sampled_from(["cell", "shorter", "longer", "gone"]))
        if defect == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD)
        elif defect == "shorter":
            row.pop()
        elif defect == "longer":
            row.append(draw(_NUMBER))
        else:
            rows.remove(row)
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        pad = draw(st.sampled_from(["", " "]))
        lines.insert(0, ",".join(f"{pad}{name}{pad}" for name in columns))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# c", "", " "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@settings(deadline=None, max_examples=50)
@given(table=_tables())
def test_any_table_runs_or_exits_2_with_one_line(table):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "table.csv"
        path.write_bytes(table.encode())
        for subcommand, values in _TABLE_RUNS.items():
            csv_key = "potential.csv" if subcommand == "eigen" else f"{subcommand}.csv"
            # a warning would be a second stderr line of a real process
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                status, err = _run(tmp, subcommand, {**_GRID5, **values, csv_key: path})
            if status == 2:
                assert len(err) == 1 and err[0].startswith("qclab: ") and not caught, err
            else:
                assert status in (0, 1) and err == [], (status, err)


# --- strict JSON --------------------------------------------------------------


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_a_report_with_an_infinite_measure_is_strict_json():
    # verify-all records inf when no caustic forms
    report = VerificationReport("characteristics-solver", metadata={"spread": [math.nan, -1e999]})
    report.checks.append(check_against("caustic_time_error_steps", math.inf, 1.0, "caustic"))
    payload = json.loads(report.to_json(), parse_constant=_refuse_constant)
    assert payload["schema_version"] == 2
    assert payload["checks"][0]["measured"] == "inf"
    assert payload["metadata"] == {"spread": ["nan", "-inf"]}


def test_canonical_json_writes_finite_payloads_as_json_dumps_did():
    payload = {"b": [0.1 + 0.2, -0.0, 1e308, 5e-324, np.float64(2.5), 3], "a": {"z": True,
               "y": None, "x": "text", "w": (1.5, 2)}}
    assert canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_a_cli_artifact_with_an_overflowing_value_is_strict_json(tmp_path):
    # on a 1e308 wall, 2m(E - V) overflows: the residual is inf, and no
    # overflow warning reaches stderr
    x = build_grid(-5.0, 5.0, 101).x.tolist()
    table = tmp_path / "walls.csv"
    table.write_text("".join(f"{xi!r},{1e308 if abs(xi) > 4 else 0.0!r}\n" for xi in x))
    values = {"grid.x_min": -5, "grid.x_max": 5, "grid.n_points": 101,
              "potential.kind": "tabulated", "potential.csv": table, "madelung.energy": 0.5}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(tmp_path, "madelung", values) == (0, [])
    assert [str(w.message) for w in caught] == []
    for name in ("summary.json", "report.json"):
        text = (tmp_path / "madelung" / name).read_text()
        payload = json.loads(text, parse_constant=_refuse_constant)
        summary = payload.get("metadata", payload)
        assert summary["modified_hj_residual"] == "inf"
