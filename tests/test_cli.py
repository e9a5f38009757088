"""Command line behavior: payloads, precedence, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import startorus
from startorus import (
    SingularMetricError,
    SpacetimeGrid,
    basis_matrix,
    ChiralModel,
    chiral_model,
)
from startorus.cli import ContractViolation, main
from startorus.sine_basis import matrix_from_json


def run(capsys, *argv):
    code = main(list(argv))  # usage errors and --help return too, not exit()
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# payloads

def test_star_single_modes(capsys):
    code, out, _ = run(
        capsys,
        "star", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]",
        "--op", "star", "--hbar", repr(float(np.pi)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "star"
    (mode,) = payload["result"]["modes"]
    assert mode[:2] == [1, 1]  # i E_(1,1) up to the cos(pi/2) dust
    assert abs(mode[2]) < 1e-15 and mode[3] == 1.0


def test_star_defaults_to_moyal(capsys):
    code, out, _ = run(capsys, "star", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "moyal"
    assert payload["hbar"] == 1.0
    mode = payload["result"]["modes"][0]
    assert mode[:2] == [1, 1]
    assert abs(mode[2] - 2.0 * np.sin(0.5)) < 1e-15


def test_star_poisson_and_missing_input(capsys):
    code, out, _ = run(capsys, "star", "--op", "poisson",
                       "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]")
    assert code == 0
    payload = json.loads(out)
    assert "hbar" not in payload
    code, _, err = run(capsys, "star", "--f", "[[1,0,1,0]]")
    assert code == 1
    assert "error" in err


def test_basis_report_payload(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["passed"] is True
    flags = [v for k, v in payload.items() if k.endswith("_ok")]
    assert len(flags) == 8 and all(flags)
    # keys arrive sorted and the text ends with one newline
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_project_payload(capsys):
    code, out, _ = run(capsys, "project", "--n", "4", "--modes", "[[1,1,0.5,0]]")
    assert code == 0
    mat = matrix_from_json(out)
    assert np.max(np.abs(mat - 0.5 * basis_matrix(4, 1, 1))) < 1e-15


def test_solve_past_the_factorial_range(capsys):
    # 171! leaves the float range; z^k / k! is a running product of z / k
    code, out, err = run(capsys, "solve", "--terms", "200")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload["order_norms"]) == 200
    values = payload["order_norms"] + [payload["tail_estimate"]]
    values += [x for row in payload["field"]["modes"] for x in row[2:]]
    assert all(math.isfinite(x) for x in values)


def test_coefficient_past_the_float_range_exits_one_with_one_line(capsys):
    huge = "1" + "0" * 400
    code, out, err = run(capsys, "star", "--f", f"[[1,0,{huge},0]]", "--g", "[[0,1,1,0]]")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: mode row [1, 0, {huge}, 0] has a non-finite coefficient")
    assert err.count("\n") == 1, err


def test_solve_payload(capsys):
    code, out, _ = run(capsys, "solve", "--terms", "6", "--hbar", "0.3",
                       "--w", "0.2", "--z", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == 6
    assert len(payload["order_norms"]) == 6
    assert payload["tail_estimate"] < 1e-2
    assert payload["field"]["modes"]


# stdout of mode-field and matrix payloads, recorded before they were built
# from whole arrays (`FourierField.payload`, `matrix_to_json` on `tolist()`)
RECORDED_STDOUT = {
    ("star", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]"):
        '{"hbar": 1.0, "op": "moyal", "result": {"band_limit": 1, '
        '"modes": [[1, 1, 0.958851077208406, 0.0]]}}\n',
    ("star", "--op", "star", "--hbar", "0.5", "--f", "[[1,0,1,0],[0,-1,-0.0,2]]",
     "--g", "[[0,1,0.5,-0.0],[-2,0,1,0]]"):
        '{"hbar": 0.5, "op": "star", "result": {"band_limit": 2, "modes": '
        '[[-2, -1, 0.958851077208406, 1.7551651237807455], [-1, 0, 1.0, 0.0], '
        '[0, 0, 0.0, 1.0], [1, 1, 0.48445621085532237, 0.12370197962726147]]}}\n',
    ("star", "--op", "poisson", "--f", "[[2,1,-0.0,1]]", "--g", "[[1,-1,1,-0.0]]"):
        '{"op": "poisson", "result": {"band_limit": 3, "modes": [[3, 0, 0.0, -3.0]]}}\n',
    ("solve", "--terms", "3"):
        '{"field": {"band_limit": 1, "modes": [[-1, -1, 0.7653981633974483, 0.0], '
        '[-1, 0, 0.0, -0.2], [-1, 1, -0.020000000000000004, -0.0], '
        '[1, -1, -0.020000000000000004, -0.0], [1, 0, 0.0, 0.2], '
        '[1, 1, 0.7653981633974483, 0.0]]}, "hbar": 0.0, "order_norms": '
        '[1.1107207345395915, 0.7071067811865476, 0.5], '
        '"tail_estimate": 0.04000000000000001, "terms": 3, "w": 0.0, "z": 0.4}\n',
    ("project", "--n", "4", "--modes", "[[1,1,0.5,0]]"):
        '{"im": [[0.0, 1.9490859162596877e-17, 0.0, 0.0], [0.0, 0.0, -0.3183098861837907, 0.0], '
        '[0.0, 0.0, 0.0, -5.847257748779064e-17], [-0.3183098861837907, 0.0, 0.0, 0.0]], '
        '"n": 4, "re": [[0.0, -0.3183098861837907, 0.0, 0.0], '
        '[0.0, 0.0, -3.8981718325193755e-17, 0.0], [0.0, 0.0, 0.0, 0.3183098861837907], '
        '[-3.8981718325193755e-17, 0.0, 0.0, 0.0]]}\n',
}


@pytest.mark.parametrize("argv", list(RECORDED_STDOUT), ids=lambda argv: " ".join(argv[:3]))
def test_field_and_matrix_payloads_print_the_recorded_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == RECORDED_STDOUT[argv]


def test_verify_me_report(capsys):
    code, out, _ = run(capsys, "verify-me", "--hbar", "0.001", "--h", "0.1",
                       "--band-limit", "16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hbar,h,sup_residual,rms_residual,observed_order"
    assert len(lines) == 3
    order = float(lines[2].rsplit(",", 1)[1])
    assert 1.7 <= order <= 2.3


def test_verify_chiral_and_dump(capsys, tmp_path):
    dump = tmp_path / "per_point.csv"
    code, out, _ = run(capsys, "verify-chiral", "--n", "2", "--h", "0.125",
                       "--dump", str(dump))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,h,sup_residual,rms_residual,observed_order"
    order = float(lines[2].rsplit(",", 1)[1])
    assert 1.7 <= order <= 2.3
    dumped = dump.read_text().splitlines()
    assert dumped[0].startswith("w,z,residual,m00_re,m00_im")
    assert len(dumped[0].split(",")) == 3 + 8
    assert len(dumped) == 1 + 15 * 15  # interior of 17x17 coarse nodes


def test_verify_chiral_dump_matches_a_per_cell_loop(capsys, tmp_path):
    # the dump as a per-cell loop over the interior nodes wrote it, frozen here
    dump = tmp_path / "per_point.csv"
    code, _, _ = run(capsys, "verify-chiral", "--n", "2", "--h", "0.125", "--dump", str(dump))
    assert code == 0
    grid = SpacetimeGrid.regular({"w": (-1.0, 1.0), "z": (0.0, 2.0)}, 0.125)
    field = chiral_model(2).matrix_field(grid)
    report = chiral_model(2).residual(grid)
    header = ["w", "z", "residual"]
    for i in range(2):
        for j in range(2):
            header += [f"m{i}{j}_re", f"m{i}{j}_im"]
    lines = [",".join(header)]
    ws, zs = grid.axis("w"), grid.axis("z")
    for i in range(1, ws.size - 1):
        for j in range(1, zs.size - 1):
            mat = field.values[i, j]
            row = [ws[i], zs[j], report.per_point[i - 1, j - 1]]
            for a in range(2):
                for b in range(2):
                    row += [mat[a, b].real, mat[a, b].imag]
            lines.append(",".join(repr(float(cell)) for cell in row))
    assert dump.read_text() == "\n".join(lines) + "\n"


def test_verify_chiral_past_the_bessel_cut_off_names_x(capsys):
    # past x = 425.26 (z = 668) the cut-off needs more than 301 periods
    code, out, err = run(capsys, "verify-chiral", "--n", "2", "--h", "4",
                         "--grid-w=-4:4", "--grid-z", "0:4096")
    assert code == 1
    assert out == ""
    assert "x = 425.26200794154437" in err, err


def test_verify_chiral_dump_reuses_the_coarse_report(capsys, tmp_path, monkeypatch):
    reports = []
    residual = ChiralModel.residual

    def counted(model, grid):
        reports.append(residual(model, grid))
        return reports[-1]

    monkeypatch.setattr(ChiralModel, "residual", counted)
    dump = tmp_path / "per_point.csv"
    code, out, _ = run(capsys, "verify-chiral", "--n", "2", "--h", "0.125",
                       "--dump", str(dump))
    assert code == 0
    assert len(reports) == 2  # the coarse and the fine grid, none for the dump
    residuals = [float(line.split(",")[2]) for line in dump.read_text().splitlines()[1:]]
    assert residuals == reports[0].per_point.ravel().tolist()
    assert float(out.splitlines()[1].split(",")[2]) == max(residuals)


def test_curvature_csv(capsys):
    code, out, _ = run(capsys, "curvature", "--points", "2", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w,z,p,q,C1_re,C1_im,dotted_norm,structure_residual"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = [float(tok) for tok in line.split(",")]
        assert cells[5] == 0.0  # estimates are real by construction
        assert cells[6] < 1e-4
        assert cells[7] < 1e-12


def test_converge_csv(capsys):
    code, out, _ = run(capsys, "converge", "--n-list", "2,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d,fitted_exponent"
    assert len(lines) == 3
    d2 = float(lines[1].split(",")[1])
    d4 = float(lines[2].split(",")[1])
    assert d2 > d4 > 0.0


def test_bessel_check_payload(capsys):
    code, out, _ = run(capsys, "bessel-check")
    assert code == 0
    payload = json.loads(out)
    assert payload["second_dev"] <= 1e-12
    assert payload["standard_first_dev"] <= 1e-10
    assert payload["printed_first_dev"] > 0.5
    assert payload["first_identity_form"] == "standard"


# ---------------------------------------------------------------------------
# parameter resolution

def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\n# comment line\n\n")
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["n"] == 5
    # an explicit flag wins over the file
    code, out, _ = run(capsys, "basis", "--config", str(cfg), "--n", "3")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_config_dashed_keys_and_malformed(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("zeta-max = 2.0\nterms = 12\n")
    code, out, _ = run(capsys, "bessel-check", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta_max"] == 2.0
    assert payload["terms"] == 12
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    code, _, err = run(capsys, "bessel-check", "--config", str(bad))
    assert code == 1
    assert "malformed" in err


# quick inputs for each subcommand, and a value other than the default for
# every parameter of cli.PARAMETERS; "DUMP" stands for a file under tmp_path
QUICK = {
    "star": {"f": "[[1,0,1,0]]", "g": "[[0,1,1,0]]"},
    "basis": {},
    "project": {"modes": "[[1,1,0.5,0]]"},
    "solve": {"terms": "4"},
    "verify-me": {"h": "0.1", "band_limit": "16"},
    "verify-chiral": {"h": "0.125"},
    "curvature": {"points": "1"},
    "converge": {"n_list": "2,4"},
    "bessel-check": {},
}
OTHER = {
    "star": {"f": "[[2,1,0.5,0]]", "g": "[[1,-1,0,2]]", "op": "star", "hbar": "0.25"},
    "basis": {"n": "4"},
    "project": {"n": "3", "modes": "[[2,1,0.25,1]]"},
    "solve": {"terms": "5", "hbar": "0.3", "w": "0.1", "z": "0.3"},
    "verify-me": {"hbar": "0.002", "h": "0.2", "band_limit": "12"},
    "verify-chiral": {
        "n": "3", "h": "0.25", "grid_w": "-0.5:0.5", "grid_z": "0:1", "dump": "DUMP",
    },
    "curvature": {"points": "2", "seed": "3", "step": "0.002"},
    # a band below the largest rank exits 1; every band that passes that
    # check prints the same, as no point's rows depend on the table's extent
    "converge": {"n_list": "2,3", "band_limit": "3", "hbar_ref": "1e-7"},
    "bessel-check": {"zeta_max": "3.0", "terms": "20"},
}


def test_every_parameter_has_a_test_value():
    import startorus.cli as cli

    assert {name: set(spec) for name, spec in cli.PARAMETERS.items()} == {
        name: set(values) for name, values in OTHER.items()
    }


@pytest.mark.parametrize(
    "command,key", [(name, key) for name, values in OTHER.items() for key in values]
)
def test_flag_and_config_key_give_the_same_output(capsys, tmp_path, command, key):
    dump = tmp_path / "dump.csv"
    value = OTHER[command][key].replace("DUMP", str(dump))
    quick = {k: v for k, v in QUICK[command].items() if k != key}
    argv = [command] + [tok for k, v in quick.items() for tok in ("--" + k.replace("_", "-"), v)]

    def outputs(*extra):
        code, out, _ = run(capsys, *argv, *extra)
        text = dump.read_text() if dump.exists() else None
        dump.unlink(missing_ok=True)
        return code, out, text

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key.replace('_', '-')} = {value}\n")
    by_flag = outputs("--" + key.replace("_", "-"), value)
    assert by_flag == outputs("--config", str(cfg))
    assert by_flag != outputs()  # the value was read, not the default


@pytest.mark.parametrize("command", list(OTHER))
def test_help_lists_the_table_flags(capsys, command):
    import startorus.cli as cli

    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    flags = {"--" + key.replace("_", "-") for key in cli.PARAMETERS[command]}
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == flags | {"--help", "--config", "--out"}


def test_main_finds_the_subcommand_when_called(capsys, monkeypatch):
    import startorus.cli as cli

    seen = []
    plain = cli.cmd_basis

    def wrapper(p, out):
        seen.append(p)
        return plain(p, out)

    monkeypatch.setattr(cli, "cmd_basis", wrapper)
    code, out, _ = run(capsys, "basis")
    assert code == 0
    assert seen == [{"n": 3}]
    assert json.loads(out)["n"] == 3


def test_unknown_config_key_exits_one(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\nbogus_key = 7\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "bogus_key" in err
    # a key of another subcommand is unknown here too
    cfg.write_text("zeta-max = 2.0\n")
    code, _, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 1
    assert "zeta-max" in err


def test_out_file_and_env_redirect(capsys, tmp_path, monkeypatch):
    target = tmp_path / "sub" / "report.json"
    code, out, _ = run(capsys, "basis", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    direct = target.read_text()
    assert json.loads(direct)["n"] == 2

    monkeypatch.setenv("STARTORUS_OUT", str(tmp_path))
    code, _, _ = run(capsys, "basis", "--n", "2", "--out", "nested/env.json")
    assert code == 0
    assert (tmp_path / "nested" / "env.json").read_text() == direct


def test_negative_span_value_forms(capsys):
    for form in (["--grid-w", "-1:1"], ["--grid-w=-1:1"]):
        code, _, _ = run(capsys, "verify-chiral", "--n", "2", "--h", "0.25", *form)
        assert code == 0


# each value starts with "-"; the next token after a flag is its value all
# the same, in the `--flag value` and the `--flag=value` form
DASH_VALUES = [
    ("verify-chiral", "grid_w", "-1:-0.5"),
    ("verify-chiral", "grid_z", "-inf:0"),
    ("verify-chiral", "grid_w", "-nan:1"),
    ("solve", "w", "-1e-3"),
    ("solve", "hbar", "-0.25"),
    ("solve", "z", "-inf"),
]


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("command,key,value", DASH_VALUES)
def test_dash_led_value_reaches_the_command(capsys, monkeypatch, command, key, value, joined):
    import startorus.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda p, out: seen.append(p) or 0)
    flag = "--" + key.replace("_", "-")
    later = {"verify-chiral": "n", "solve": "terms"}[command]  # a flag after the value
    argv = [f"{flag}={value}"] if joined else [flag, value]
    code, out, err = run(capsys, command, *argv, "--" + later, "3")
    assert (code, out, err) == (0, "", "")
    cast = cli.PARAMETERS[command][key][1]
    assert repr(seen[0][key]) == repr(cast(value))  # a span as typed, a float as float() reads it
    assert seen[0][later] == 3


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["basis", "--bogus", "1"],
        ["basis", "--n", "3", "4"],  # a stray token after a value
        ["verify-chiral", "--", "-1:1"],
        ["basis", "--n"],  # a flag with no value at the end
        ["basis", "--n", "x"],
        ["solve", "--term", "4"],  # flags are spelled in full
        ["basis", "-n", "3"],
    ],
)
def test_usage_errors_exit_one_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["basis", "-h"], ["solve", "--w", "0.1", "--help"]]
)
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: startorus ") and err == ""


def test_negative_float_after_flag_reaches_the_command(capsys):
    code, out, _ = run(capsys, "solve", "--terms", "4", "--w", "-1e-3")
    assert code == 0
    assert json.loads(out)["w"] == -1e-3
    code, _, err = run(capsys, "star", "--hbar", "-inf", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]")
    assert code == 1
    assert "finite hbar" in err


# ---------------------------------------------------------------------------
# exit codes

# modes past |m1|, |m2| <= 2**30: past int64, a float, and two whose int64
# cross product (2**62 x 4 wraps to 0) or sum (2**63 - 1 + 1) would wrap
MODES_PAST_THE_BOUND = [
    ["star", "--f", "[[99999999999999999999,0,1,0]]", "--g", "[[0,1,1,0]]"],
    ["star", "--f", "[[1e30,0,1,0]]", "--g", "[[0,1,1,0]]"],
    ["star", "--op", "poisson", "--f", "[[4611686018427387904,0,1,0]]", "--g", "[[0,4,1,0]]"],
    ["star", "--op", "star", "--hbar", "1",
     "--f", "[[9223372036854775807,0,1,0]]", "--g", "[[1,0,1,0]]"],
]


def test_validation_errors_exit_one(capsys):
    cases = [
        ["basis", "--n", "1"],
        ["basis", "--n", "not-a-number"],
        ["project", "--n", "3"],  # missing --modes
        ["verify-chiral", "--n", "2", "--grid-w", "oops"],
        ["verify-chiral", "--n", "2", "--grid-w", "1:0.5"],
        ["verify-me", "--h", "0.07"],  # span not a multiple of h
        ["converge", "--n-list", "2,x"],
        ["bessel-check", "--terms", "3"],
        ["bessel-check", "--zeta-max", "inf"],
        ["star", "--op", "junk", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]"],
        ["star", "--hbar", "inf", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]"],
        ["star", "--op", "star", "--hbar", "nan", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]"],
        ["star", "--f", "[[0,0,NaN,0]]", "--g", "[[0,1,1,0]]"],
        ["star", "--hbar", "-inf", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]"],
        ["star", "--op", "star", "--hbar", "-1e400", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]"],
        ["solve", "--terms", "-inf"],
        ["curvature", "--points", "0"],
        ["no-such-command"],
        # malformed mode lists are the library's ValueError, not a traceback
        ["star", "--f", "[[1,0,1]]", "--g", "[[0,1,1,0]]"],
        ["project", "--modes", "[[1,0]]"],
        ["star", "--f", "5", "--g", "[[0,1,1,0]]"],
        ["star", "--f", '"abc"', "--g", "[[0,1,1,0]]"],
        ["star", "--f", "null", "--g", "[[0,1,1,0]]"],
        ["project", "--modes", "[[1.5,0,1,0]]"],
        ["converge", "--n-list", "4,4"],
    ] + MODES_PAST_THE_BOUND
    for argv in cases:
        code, _, _ = run(capsys, *argv)
        assert code == 1, argv


@pytest.mark.parametrize("argv", MODES_PAST_THE_BOUND)
def test_modes_past_the_bound_exit_one_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: mode (") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-me", "--h", "0"],
        ["verify-me", "--h", "nan"],
        ["verify-me", "--hbar", "nan"],
        ["verify-chiral", "--h", "0"],
        ["verify-chiral", "--h", "nan"],
        ["verify-chiral", "--grid-w", "0:nan"],
        ["verify-chiral", "--grid-z", "0:inf"],
        ["verify-chiral", "--grid-z", "-inf:0"],
        ["verify-chiral", "--grid-w", "-nan:1"],
        ["curvature", "--step", "nan"],
        ["curvature", "--step", "inf"],
        ["curvature", "--step", "0"],
    ],
)
def test_zero_or_non_finite_steps_and_hbar_exit_one(capfd, argv):
    # the library's own finiteness check answers: one error line on the
    # descriptor, with no traceback, numpy warning or LAPACK message first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capfd, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "finite" in err, err


def test_contract_violation_exits_two(capsys, monkeypatch):
    import startorus.cli as cli

    monkeypatch.setattr(cli, "ORDER_BAND", (2.5, 3.0))
    code, _, err = run(capsys, "verify-chiral", "--n", "2", "--h", "0.25")
    assert code == 2
    assert "contract violation" in err


def test_singular_metric_exits_two(capsys, monkeypatch):
    import startorus.cli as cli

    def boom(*args, **kwargs):
        raise SingularMetricError("branch locus hit", location=(0, 0, 0, 0))

    monkeypatch.setattr(cli, "weyl_report", boom)
    code, _, err = run(capsys, "curvature", "--points", "1")
    assert code == 2
    assert "contract violation" in err


# ---------------------------------------------------------------------------
# determinism and the installed entry point

def test_repeated_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "basis", "--n", "4")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "solve", "--terms", "8", "--hbar", "0.3")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "startorus.cli", "basis", "--n", "2"],
        capture_output=True, text=True, timeout=120,
        # the child finds the package where this process did, installed or not
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(startorus.__file__))),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
