"""Tests for the command-line interface.

Everything goes through main(argv) so the tests exercise exactly what a
shell invocation would: argument parsing, file output, exit codes.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mirrorclone.cli as cli
from mirrorclone.cli import MAX_OPTIMIZE_RUNS, MAX_STEPS, build_parser, check_grid, main, uniform_grid
from mirrorclone.circuits import circuit_mpcc_v1, circuit_mpcc_v2, parse_circuit
from mirrorclone.cloners import FIDELITY_MINIMUM_ANGLE, mpcc_fidelity, mpcc_params, pcc_fidelity
from mirrorclone.optimality import certificate


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- configuration ----------------------------------------------------------


def exit_code(argv) -> int:
    """main(argv)'s exit code, counting argparse's own exit 2."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_sweep_config_defaults():
    args = build_parser().parse_args(["sweep"])
    assert args.steps == 181
    assert args.theta_min == 0.0 and args.theta_max == math.pi
    assert args.format == "csv" and args.output is None
    assert build_parser().parse_args(["certify"]).format == "json"
    assert build_parser().parse_args(["circuits"]).seed == 42


@pytest.mark.parametrize(
    "kwargs",
    [
        {"theta_min": -0.1},
        {"theta_max": 3.2},
        {"theta_min": 2.0, "theta_max": 1.0},
        {"steps": 1},
        {"tol": 0.0},
        {"tol": math.nan},
        {"format": "xml"},
        {"theta_min": math.inf},
        {"steps": MAX_STEPS + 1},
    ],
)
def test_sweep_config_rejects(kwargs, capsys):
    # the grid flags every subcommand shares, and --tol, which none takes
    argv = ["certify"]
    for name, value in kwargs.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""


def test_uniform_grid_endpoints():
    grid = uniform_grid(build_parser().parse_args(["sweep", "--steps", "5"]))
    assert grid[0] == 0.0 and grid[-1] == math.pi
    assert len(grid) == 5
    assert all(type(theta) is float for theta in grid)


def test_check_grid_adds_minimum_angles():
    grid = check_grid(build_parser().parse_args(["certify", "--steps", "5"]))
    assert len(grid) == 7
    assert FIDELITY_MINIMUM_ANGLE in grid
    assert math.pi - FIDELITY_MINIMUM_ANGLE in grid
    assert np.all(np.diff(grid) > 0)
    # outside a narrow window the extras are dropped
    narrow = check_grid(build_parser().parse_args(["certify", "--theta-max", "0.5", "--steps", "3"]))
    assert len(narrow) == 3
    assert all(type(theta) is float for theta in grid + narrow)


@pytest.mark.parametrize("command", ["sweep", "bloch", "certify", "circuits", "optimize"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta-min", "2", "--theta-max", "1"], "need theta-min <= theta-max"),
        (["--steps", "1"], "steps 1 is not an integer from 2 to 100001"),
        (["--steps", "100002"], "steps 100002 is not an integer from 2 to 100001"),
        (["--theta-max", "nan"], "polar angle nan is not finite or not a real number"),
    ],
)
def test_every_subcommand_checks_the_grid_flags(command, flags, message, capsys):
    assert main([command, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mirror-clone: error: {message}\n"


# --- sweep --------------------------------------------------------------------


def test_sweep_csv_contents(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--steps", "19", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 19
    assert list(rows[0]) == ["theta", "F_mpcc", "F_pcc", "F_uc", "Lambda", "A", "B", "C"]
    for row in rows[::3]:
        theta = float(row["theta"])
        # the 17-digit rendering round-trips doubles exactly
        assert float(row["F_mpcc"]) == mpcc_fidelity(theta)
        assert float(row["F_pcc"]) == pcc_fidelity(theta)
        assert float(row["F_uc"]) == 5.0 / 6.0
        assert float(row["Lambda"]) == mpcc_params(theta).lam
    assert float(rows[0]["F_mpcc"]) == 1.0
    assert float(rows[-1]["theta"]) == math.pi


def test_sweep_stdout(capsys):
    assert main(["sweep", "--steps", "3"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0] == "theta,F_mpcc,F_pcc,F_uc,Lambda,A,B,C"
    assert len(lines) == 4


def test_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--steps", "4", "--format", "json", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert isinstance(rows, list) and len(rows) == 4
    assert rows[0]["theta"] == 0.0
    assert abs(rows[0]["F_mpcc"] - 1.0) < 1e-15


def test_sweep_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--steps", "31", "--output", str(a)])
    main(["sweep", "--steps", "31", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


# --- bloch ----------------------------------------------------------------------


def test_bloch_perfect_columns(tmp_path):
    out = tmp_path / "bloch.csv"
    assert main(["bloch", "--steps", "9", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 9
    for row in rows:
        theta = float(row["theta"])
        assert float(row["rx_perfect"]) == math.sin(theta)
        assert float(row["rz_perfect"]) == math.cos(theta)
        # universal clone shrinks the input by 2/3
        assert abs(float(row["rx_uc"]) - 2.0 / 3.0 * math.sin(theta)) < 1e-15


def test_bloch_output_is_azimuth_covariant(tmp_path):
    # all three machines are phase covariant, so rotating the cut plane
    # rotates the clone vectors with it and the projections never change
    out0 = tmp_path / "b0.csv"
    out1 = tmp_path / "b1.csv"
    main(["bloch", "--steps", "5", "--output", str(out0)])
    main(["bloch", "--steps", "5", "--phi", "1.0", "--output", str(out1)])
    for row0, row1 in zip(read_csv(out0), read_csv(out1)):
        for key in row0:
            assert abs(float(row0[key]) - float(row1[key])) < 1e-14, key
    with pytest.raises(SystemExit):
        main(["bloch", "--phi"])  # missing value


# --- the JSON row writer --------------------------------------------------------------

_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 0.1 + 0.2, 1.2345678901234567e-89]),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.text(max_size=10),
    st.sampled_from([", ", "a\nb", "100%", '"', "%s %%", "\u00e9\u65e5\u672c\U0001f600", "\\"]),
)
_KEYS = st.one_of(
    st.sampled_from(["theta", "F_mpcc", "delta_spectrum", "psd_ok"]),
    st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=10).filter(str.isidentifier),
)
_LAYOUTS = st.dictionaries(_KEYS, st.one_of(st.none(), st.integers(1, 8)), min_size=1, max_size=5)


def _columns(rows: list[dict]) -> dict:
    """The named columns of rows of one layout, as a subcommand hands them to the writer."""
    return {key: [row[key] for row in rows] for key in rows[0]}


def _written(columns: dict, fmt: str) -> str:
    """What the writer prints for named columns in format fmt."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_table(columns, argparse.Namespace(format=fmt, output=None))
    return out.getvalue()


@st.composite
def _tables(draw, scalars=_SCALARS):
    """Rows of one layout, as the subcommands write them: each column a scalar or a tuple of 1-8 scalars."""
    layout = draw(_LAYOUTS)
    return [
        {key: draw(scalars) if size is None else tuple(draw(scalars) for _ in range(size))
         for key, size in layout.items()}
        for _ in range(draw(st.integers(1, 6)))
    ]


@settings(max_examples=100, deadline=None)
@given(rows=_tables(), chunk=st.integers(1, 6))
@example(rows=[{"t": 0.5}], chunk=1)
@example(rows=[{"t": (1.5,), "ok": True}, {"t": (-0.0,), "ok": None}, {"t": (2,), "ok": False}], chunk=2)
@example(rows=[{"t": (i, -0.0), "ok": i % 3 == 0} for i in range(cli._JSON_CHUNK + 2)], chunk=6)
def test_json_rows_are_the_bytes_of_json_dumps_with_indent_2(rows, chunk):
    # the last example crosses the writer's own chunk boundary
    assert cli._json_text(_columns(rows)) == json.dumps(rows, indent=2)
    # in encoder chunks of `chunk` rows, so that chunk boundaries fall between any two drawn rows
    with mock.patch.object(cli, "_JSON_CHUNK", chunk):
        assert cli._json_text(_columns(rows)) == json.dumps(rows, indent=2)


# few values, so that columns repeat them and many hold only floats: -0.0 beside 0.0, nan and inf,
# and 1 beside 1.0 and True, which the writer must keep apart
_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 5e-324, math.nan, -math.nan, math.inf, -math.inf])
_REPEATS = st.one_of(_FLOATS, st.sampled_from([1, True, False, 0, "1.0", None]))


def _csv_reference(rows: list[dict]) -> str:
    """The CSV text of rows, cell by cell: .17g for a float, true/false for a bool, str otherwise."""

    def text(value):
        if isinstance(value, float):
            return f"{value:.17g}"
        return ("true" if value else "false") if isinstance(value, bool) else str(value)

    spread = [[v for value in row.values() for v in (value if isinstance(value, tuple) else (value,))] for row in rows]
    header = [
        name for key, value in rows[0].items()
        for name in ([f"{key}_{i}" for i in range(len(value))] if isinstance(value, tuple) else [key])
    ]
    return "\n".join([",".join(header), *(",".join(map(text, cells)) for cells in spread)]) + "\n"


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(_tables(), _tables(_FLOATS), _tables(_REPEATS)))
@example(rows=[{"x": -0.0, "y": (1, 1.0, True)}, {"x": 0.0, "y": (1.0, True, 1)}, {"x": -0.0, "y": (True, 1, 1.0)}])
@example(rows=[{"t": v, "u": 5.0 / 6.0} for v in (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0)])
def test_csv_rows_are_the_bytes_of_the_per_cell_format(rows):
    assert _written(_columns(rows), "csv") == _csv_reference(rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_array_columns_write_as_their_lists(fmt):
    # as cmd_sweep, cmd_bloch, cmd_circuits and cmd_optimize hand them over: a bool
    # array cell is an np.bool_, which CSV would print as True and JSON would refuse
    for column in (np.array([0.5, -0.0, 0.5, math.nan, 1e300]), np.array([3, -1, 0, 2**40]),
                   np.array([True, False, True])):
        rows = [{"x": value} for value in column.tolist()]
        want = _csv_reference(rows) if fmt == "csv" else json.dumps(rows, indent=2) + "\n"
        assert _written({"x": column}, fmt) == _written({"x": column.tolist()}, fmt) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "columns",
    [
        {"x": [0.5, 1.0], "y": [1.0]},
        {"x": [0.5], "y": ["a", "b"]},  # a short first column must not cut the table short
        {"x": ["a", "b"], "y": np.array([True])},
        {"x": np.arange(4.0), "t": [(1.0, 2.0)] * 3},
        {"t": [(1.0, 2.0), (3.0,)]},  # tuples of unequal length
    ],
)
def test_ragged_columns_raise(columns, fmt):
    with mock.patch.object(cli, "_JSON_CHUNK", 1):
        with pytest.raises(ValueError):
            _written(columns, fmt)


@pytest.mark.parametrize("value", [[[1.0]], {"a": 1}, ({},), (1.0, []), [(2, 3)], {}])
def test_json_rows_refuse_a_nested_container(value):
    with pytest.raises(TypeError, match="flat tuple of scalars"):
        cli._json_text(_columns([{"theta": 0.5, "cell": value}]))


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--steps", "3"],
        ["bloch", "--steps", "3", "--phi", "0.4"],
        ["certify", "--steps", "3"],
        ["circuits", "--steps", "2"],
        ["optimize", "--steps", "2", "--seeds", "1"],
    ],
)
def test_json_and_csv_carry_the_same_cells(argv, capsys):
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert out == json.dumps(rows, indent=2) + "\n"
    assert main([*argv, "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split(",") == [
        name
        for key, value in rows[0].items()
        for name in ([f"{key}_{i}" for i in range(len(value))] if isinstance(value, list) else [key])
    ]
    assert len(lines) == len(rows) and all(list(row) == list(rows[0]) for row in rows)
    for line, row in zip(lines, rows):
        cells = [cell for value in row.values() for cell in (value if isinstance(value, list) else [value])]
        texts = line.split(",")
        assert len(texts) == len(cells)
        for text, cell in zip(texts, cells):
            if isinstance(cell, float):
                assert repr(float(text)) == repr(cell)
            elif isinstance(cell, bool):
                assert text == ("true" if cell else "false")
            else:
                assert text == str(cell)


# --- certify ---------------------------------------------------------------------


def test_certify_json(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--steps", "7", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 9  # grid plus both minimum angles
    for row in rows:
        assert row["psd_ok"] is True
        assert row["saturation_ok"] is True
        assert len(row["delta_spectrum"]) == 8
        assert len(row["delta_closed_form"]) == 4
        assert abs(row["trace_gap"]) <= 1e-10
        assert row["fidelity_identity_residual"] <= 1e-10


def test_certify_csv_flattens_arrays(tmp_path):
    out = tmp_path / "cert.csv"
    assert main(["certify", "--steps", "5", "--format", "csv", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == [
        "theta",
        "lambda_scalar",
        "trace_gap",
        "fidelity_identity_residual",
        "spectrum_residual",
        "proportionality",
        "weights_form_residual",
        "half_fidelity_residual",
        "psd_ok",
        "saturation_ok",
        *(f"delta_spectrum_{i}" for i in range(8)),
        *(f"delta_closed_form_{i}" for i in range(4)),
    ]
    assert rows[0]["psd_ok"] == "true"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_certify_on_a_one_angle_grid_writes_the_lone_certificate(tmp_path, fmt):
    # theta-min = theta-max collapses the grid to one angle: a column of one
    out = tmp_path / f"cert.{fmt}"
    argv = ["certify", "--theta-min", "1", "--theta-max", "1", "--steps", "2", "--format", fmt, "--output", str(out)]
    assert main(argv) == 0
    cert = certificate(1.0)
    if fmt == "json":
        (row,) = json.loads(out.read_text())
        assert row == {name: list(v) if isinstance(v, tuple) else v for name, v in vars(cert).items()}
    else:
        (row,) = read_csv(out)
        cells = [x for v in vars(cert).values() for x in (v if isinstance(v, tuple) else (v,))]
        assert list(row.values()) == [str(x).lower() if isinstance(x, bool) else f"{x:.17g}" for x in cells]


# --- circuits ----------------------------------------------------------------------


def test_circuits_rows_and_residuals(tmp_path):
    out = tmp_path / "circ.csv"
    assert main(["circuits", "--steps", "3", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 50  # (3 grid + 2 extras) angles x 5 inputs x 2 variants
    assert {row["variant"] for row in rows} == {"v1", "v2"}
    assert max(float(row["residual"]) for row in rows) <= 1e-10


def test_circuits_dump_round_trips(tmp_path):
    out = tmp_path / "circ.csv"
    dump = tmp_path / "gates.txt"
    assert main(
        ["circuits", "--steps", "2", "--theta-min", "0.2", "--theta-max", "0.5",
         "--output", str(out), "--dump", str(dump)]
    ) == 0
    chunks = {}
    current = None
    for line in dump.read_text().splitlines():
        if line.startswith("# theta "):
            tokens = line.split()
            current = (float(tokens[2]), tokens[4])
            chunks[current] = []
        elif line.strip():
            chunks[current].append(line)
    assert len(chunks) == 4  # 2 angles x 2 variants
    for (theta, variant), lines in chunks.items():
        want = circuit_mpcc_v1(theta) if variant == "v1" else circuit_mpcc_v2(theta)
        assert parse_circuit("\n".join(lines)) == want


# --- optimize ----------------------------------------------------------------------


def test_optimize_small_grid(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(
        ["optimize", "--theta-min", "0.0", "--theta-max", "0.6", "--steps", "3",
         "--seeds", "2", "--output", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row["gap"])) <= 1e-6
        assert row["converged"] == "true"
        assert float(row["F_star"]) <= float(row["F_mpcc"]) + 1e-9


def test_optimize_gap_independent_of_seed_count(tmp_path):
    # every start converges to the optimum within the 1e-8 compared here,
    # so best-of-1 and best-of-8 report the same gap
    gaps = {}
    for seeds in ("1", "8"):
        out = tmp_path / f"opt{seeds}.csv"
        code = main(
            ["optimize", "--theta-min", "0.7", "--theta-max", "1.2", "--steps", "2",
             "--seeds", seeds, "--output", str(out)]
        )
        assert code == 0
        gaps[seeds] = [float(row["gap"]) for row in read_csv(out)]
    assert len(gaps["1"]) == 3  # the fidelity-minimum angle joins the grid
    for g1, g8 in zip(gaps["1"], gaps["8"], strict=True):
        assert abs(g1 - g8) < 1e-8


def test_optimize_formerly_capped_seed_passes(tmp_path):
    # at this seed both starts at theta = 20 deg and its mirror used to stop
    # at the 4000-iteration cap more than 1e-6 short, and the command exited 1
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--steps", "19", "--seeds", "2", "--seed", "34", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 21
    assert all(row["converged"] == "true" and abs(float(row["gap"])) <= 1e-6 for row in rows)


def test_optimize_rejects_bad_seed_count(capsys):
    assert main(["optimize", "--seeds", "0", "--steps", "2"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "bloch", "certify", "circuits", "optimize"])
def test_steps_above_the_cap_exit_2(command, capsys):
    assert main([command, "--steps", str(MAX_STEPS + 1)]) == 2
    assert "steps" in capsys.readouterr().err


def test_optimize_runs_above_the_cap_exit_2(capsys):
    # rejected before any score is built or run is stacked
    steps = MAX_OPTIMIZE_RUNS // 4 + 1
    assert main(["optimize", "--steps", str(steps), "--seeds", "4"]) == 2
    assert "steps x seeds" in capsys.readouterr().err


# --- failed checks exit 1 ------------------------------------------------------------


def test_certify_failure_exits_1(monkeypatch, capsys):
    real = cli.certificate

    def certificate(thetas):
        cert = real(thetas)
        return dataclasses.replace(cert, psd_ok=[ok and t != 0.5 for t, ok in zip(cert.theta, cert.psd_ok)])

    monkeypatch.setattr(cli, "certificate", certificate)
    assert main(["certify", "--theta-min", "0.0", "--theta-max", "1.0", "--steps", "3"]) == 1
    assert "certificate failed at theta: 0.5" in capsys.readouterr().err


def test_circuits_failure_exits_1(monkeypatch, tmp_path):
    # one input reported unequal at a residual inside 1e-10: the exit code
    # follows the equal flag, not a second threshold on the residual
    calls = []
    real = cli.equal_up_to_global_phase

    def equal_up_to_global_phase(a, b):
        equal, residual = real(a, b)  # one call per variant, over the (angles, inputs) stack
        calls.append(residual)
        if len(calls) == 1:
            equal = equal.copy()
            equal.flat[6] = False  # the 7th input of the first variant
        return equal, residual

    monkeypatch.setattr(cli, "equal_up_to_global_phase", equal_up_to_global_phase)
    assert main(["circuits", "--steps", "2", "--output", str(tmp_path / "c.csv")]) == 1
    assert len(calls) == 2 and calls[0].flat[6] <= 1e-10 and max(r.max() for r in calls) <= 1e-10


def test_optimize_failure_exits_1(monkeypatch, tmp_path):
    # a closed form moved by 1e-5 at one angle puts that row outside the 1e-6 gap
    real = cli.mpcc_fidelity
    monkeypatch.setattr(cli, "mpcc_fidelity", lambda theta: real(theta) + np.where(np.equal(theta, 0.0), 1e-5, 0.0))
    argv = ["optimize", "--theta-max", "0.6", "--steps", "2", "--seeds", "1"]
    assert main([*argv, "--output", str(tmp_path / "o.csv")]) == 1


# --- error handling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--seed", "1"],
        ["sweep", "--tol", "1e-9"],
        ["bloch", "--seed", "1"],
        ["bloch", "--tol", "1e-9"],
        ["certify", "--seed", "1"],
        ["optimize", "--tol", "1e-12"],
        ["certify", "--tol", "1e-9"],
        ["circuits", "--tol", "1e-9"],
        ["circuits", "--variant", "v1"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_flags_are_accepted(tmp_path):
    out = str(tmp_path / "out")
    assert main(["circuits", "--steps", "2", "--seed", "3", "--output", out]) == 0
    argv = ["optimize", "--theta-max", "0.0", "--steps", "2", "--seeds", "1", "--seed", "3"]
    assert main([*argv, "--output", out]) == 0


def test_invalid_config_exits_2(tmp_path, capsys):
    assert main(["sweep", "--steps", "1"]) == 2
    assert main(["sweep", "--theta-min", "2.0", "--theta-max", "1.0"]) == 2
    assert main(["sweep", "--theta-max", "9.0"]) == 2
    assert main(["bloch", "--steps", "3", "--phi", "nan"]) == 2
    assert main(["bloch", "--steps", "3", "--phi", "inf"]) == 2
    assert main(["circuits", "--steps", "3", "--dump", str(tmp_path / "no" / "such" / "g.txt")]) == 2
    # a bad --output leaves the dump empty, not a partial result
    dump = tmp_path / "g.txt"
    assert main(["circuits", "--steps", "2", "--dump", str(dump), "--output", str(tmp_path / "no" / "o.csv")]) == 2
    assert dump.read_bytes() == b""
    # one file named twice, here once through "./": rejected before anything is written
    same = tmp_path / "same.txt"
    assert main(["circuits", "--steps", "2", "--dump", str(same), "--output", f"{tmp_path}/./same.txt"]) == 2
    assert not same.exists()
    captured = capsys.readouterr()
    assert "mirror-clone: error" in captured.err
    assert "azimuth inf is not finite" in captured.err
    assert "math domain error" not in captured.err
    assert captured.out == ""  # every error comes before the first row is written


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["sweep", "--steps", "3", "--output", str(missing)]) == 2
    assert "error" in capsys.readouterr().err
