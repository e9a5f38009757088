"""Command line front end.

Subcommands: star, basis, project, solve, verify-me, verify-chiral,
curvature, converge, bessel-check.  Each parameter in PARAMETERS is a flag
and a config key; its value comes from the flag first, then an optional
config file of `key = value` lines, then the built-in default.
Output is deterministic: sorted JSON keys, shortest round-trip floats,
CSV with a header row and LF endings.  Exit status 0 on success, 1 on
validation errors, 2 when a numerical contract is violated.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from .chiral import bessel_identity_check, chiral_model, convergence_study
from .fourier import FourierField, moyal_bracket, poisson_bracket, star_product
from .geometry import admissible_points, weyl_report
from .grids import SpacetimeGrid
from .master_equation import (
    example_cauchy_data,
    example_solution,
    kowalewska_series,
    residual_moyal_hp,
)
from .numerics import SingularMetricError, richardson_order
from .projection import chi_project
from .sine_basis import matrix_to_json, verify_basis_properties

ORDER_BAND = (1.7, 2.3)
OUT_DIR_ENV = "STARTORUS_OUT"

# subcommand -> {parameter: (default, type)}.  Each parameter is the flag
# --name (dashes for underscores) and the config key name; a flag wins over
# the config file, the file over the default.
PARAMETERS = {
    "star": {"f": (None, str), "g": (None, str), "op": ("moyal", str), "hbar": (1.0, float)},
    "basis": {"n": (3, int)},
    "project": {"n": (2, int), "modes": (None, str)},
    "solve": {"terms": (12, int), "hbar": (0.0, float), "w": (0.0, float), "z": (0.4, float)},
    "verify-me": {"hbar": (1e-3, float), "h": (0.05, float), "band_limit": (24, int)},
    "verify-chiral": {
        "n": (2, int),
        "h": (0.03125, float),
        "grid_w": ("-1:1", str),
        "grid_z": ("0:2", str),
        "dump": (None, str),
    },
    "curvature": {"points": (8, int), "seed": (0, int), "step": (1e-3, float)},
    "converge": {
        "n_list": ("2,4,8,16,32", str),
        "band_limit": (40, int),
        "hbar_ref": (1e-8, float),
    },
    "bessel-check": {"zeta_max": (4.0, float), "terms": (40, int)},
}


class ContractViolation(Exception):
    """A numerical check failed; maps to exit status 2."""


def _fmt(x) -> str:
    return repr(float(x))


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(out_path):
        out_path = os.path.join(base, out_path)
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


def _load_config(path: str) -> dict:
    table = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.strip()!r}")
            key, value = line.split("=", 1)
            table[key.strip()] = value.strip()
    return table


def _settle(command: str, flags: dict) -> dict:
    """Resolve the subcommand's PARAMETERS: flag > config file > default."""
    spec = PARAMETERS[command]
    cfg = _load_config(flags["config"]) if flags.get("config") else {}
    unknown = [key for key in cfg if key.replace("-", "_") not in spec]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} for {command}")
    cfg = {key.replace("-", "_"): value for key, value in cfg.items()}
    out = {}
    for key, (default, cast) in spec.items():
        text = flags.get(key, cfg.get(key))
        try:
            out[key] = default if text is None else cast(text)
        except ValueError:
            raise ValueError(f"{_flag(key)}: invalid {cast.__name__} value {text!r}") from None
    return out


def _parse_field(text: str) -> FourierField:
    data = json.loads(text)
    return FourierField.from_payload({"modes": data} if isinstance(data, list) else data)


# -- subcommands --------------------------------------------------------


def cmd_star(p, out) -> int:
    if p["f"] is None or p["g"] is None:
        raise ValueError("star needs --f and --g mode lists")
    f = _parse_field(p["f"])
    g = _parse_field(p["g"])
    op = p["op"]
    if op == "star":
        result = star_product(f, g, p["hbar"])
    elif op == "moyal":
        result = moyal_bracket(f, g, p["hbar"])
    elif op == "poisson":
        result = poisson_bracket(f, g)
    else:
        raise ValueError(f"unknown op {op!r} (use star, moyal, poisson)")
    payload = {"op": op, "result": result.payload()}
    if op != "poisson":
        payload["hbar"] = p["hbar"]
    _emit(_json_text(payload), out)
    return 0


def cmd_basis(p, out) -> int:
    report = verify_basis_properties(p["n"])
    _emit(_json_text(report.to_dict()), out)
    return 0


def cmd_project(p, out) -> int:
    if p["modes"] is None:
        raise ValueError("project needs --modes")
    mat = chi_project(_parse_field(p["modes"]), p["n"])
    _emit(matrix_to_json(mat) + "\n", out)
    return 0


def cmd_solve(p, out) -> int:
    theta0, theta1 = example_cauchy_data()
    series = kowalewska_series(theta0, theta1, p["hbar"], p["terms"])
    field = series.field_at(p["w"], p["z"])
    payload = {
        "terms": p["terms"],
        "hbar": p["hbar"],
        "w": p["w"],
        "z": p["z"],
        "order_norms": [series.order_field(k, p["w"]).l2_norm() for k in range(p["terms"])],
        "tail_estimate": series.tail_estimate(p["w"], p["z"]),
        "field": field.payload(),
    }
    _emit(_json_text(payload), out)
    return 0


def _refinement_rows(make_report, h: float, prefix):
    coarse = make_report(h)
    fine = make_report(h / 2.0)
    order = richardson_order(coarse.sup, fine.sup)
    rows = [
        prefix + [h, coarse.sup, coarse.rms, ""],
        prefix + [h / 2.0, fine.sup, fine.rms, order],
    ]
    return rows, order


def _check_order(order: float):
    if not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
        raise ContractViolation(
            f"residual order {order:.3f} outside {ORDER_BAND[0]}..{ORDER_BAND[1]}"
        )


def cmd_verify_me(p, out) -> int:
    solution = example_solution(p["hbar"])
    w_axis = np.linspace(-0.3, 0.3, 3)

    def make_report(h):
        z_axis = SpacetimeGrid.regular({"z": (0.1, 0.9)}, h).axis("z")
        gridded = solution.gridded(SpacetimeGrid({"w": w_axis, "z": z_axis}), p["band_limit"])
        return residual_moyal_hp(gridded)

    rows, order = _refinement_rows(make_report, p["h"], [p["hbar"]])
    _emit(_csv(["hbar", "h", "sup_residual", "rms_residual", "observed_order"], rows), out)
    _check_order(order)
    return 0


def cmd_verify_chiral(p, out) -> int:
    spans = {}
    for name in ("w", "z"):
        text = p["grid_" + name]
        lo, _, hi = text.partition(":")
        try:
            spans[name] = (float(lo), float(hi))
        except ValueError:
            raise ValueError(f"--grid-{name} must look like lo:hi, got {text!r}") from None
    model = chiral_model(p["n"])
    kept = {}  # h -> (grid, report), only the coarse grid's and only for --dump

    def make_report(h):
        grid = SpacetimeGrid.regular(spans, h)
        report = model.residual(grid)
        if p["dump"] is not None and h == p["h"]:
            kept[h] = (grid, report)
        return report

    rows, order = _refinement_rows(make_report, p["h"], [p["n"]])
    _emit(_csv(["n", "h", "sup_residual", "rms_residual", "observed_order"], rows), out)
    if p["dump"] is not None:
        grid, report = kept[p["h"]]
        nd = p["n"]
        header = ["w", "z", "residual"]
        header += [f"m{i}{j}_{part}" for i in range(nd) for j in range(nd) for part in ("re", "im")]
        # one row per interior node, w-major; each entry's re, im side by side
        inner = model.matrix_field(grid).values[1:-1, 1:-1]
        ws, zs = np.meshgrid(grid.axis("w")[1:-1], grid.axis("z")[1:-1], indexing="ij")
        parts = np.stack([inner.real, inner.imag], axis=-1).reshape(ws.size, -1)
        table = np.column_stack([ws.ravel(), zs.ravel(), report.per_point.ravel(), parts])
        _emit(_csv(header, table.tolist()), p["dump"])
    _check_order(order)
    return 0


def cmd_curvature(p, out) -> int:
    points = admissible_points(p["points"], seed=p["seed"])
    report = weyl_report(points, step=p["step"], extracted=True)
    rows = [
        list(pt) + [s.c1_estimate, 0.0, s.dotted_norm, s.structure_residual]
        for pt, s in zip(points, report.samples)
    ]
    header = ["w", "z", "p", "q", "C1_re", "C1_im", "dotted_norm", "structure_residual"]
    _emit(_csv(header, rows), out)
    return 0


def cmd_converge(p, out) -> int:
    try:
        ns = [int(tok) for tok in p["n_list"].split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {p['n_list']!r}") from None
    report = convergence_study(ns, band_limit=p["band_limit"], hbar_ref=p["hbar_ref"])
    exponent = _fmt(report.exponent)
    rows = [[str(int(n)), _fmt(d), exponent] for n, d in zip(report.n_values, report.distances)]
    _emit(_csv(["n", "d", "fitted_exponent"], rows), out)
    return 0


def cmd_bessel_check(p, out) -> int:
    report = bessel_identity_check(zeta_max=p["zeta_max"], terms=p["terms"])
    _emit(_json_text(report.to_dict()), out)
    return 0


# -- wiring --------------------------------------------------------------


_SHARED = {"config": (None, str), "out": (None, str)}  # every subcommand's flags too


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _usage(command=None) -> str:
    if command is None:
        return f"usage: startorus {{{','.join(PARAMETERS)}}} [--NAME VALUE ...]\n\n{__doc__}"
    spec = {**_SHARED, **PARAMETERS[command]}
    lines = [f"usage: startorus {command} [-h | --help] [--NAME VALUE ...]"]
    lines += [f"  {_flag(k)} {cast.__name__.upper()} (default {d})" for k, (d, cast) in spec.items()]
    return "\n".join(lines) + "\n"


def _read_argv(argv) -> tuple:
    """(subcommand, {flag: value text}) of argv; the flags are None on -h/--help.

    A flag is `--name value` or `--name=value`, spelled in full; its value is
    the next token, whatever it looks like (-1:1, -inf, -1e-3).
    """
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return None, None
    if command not in PARAMETERS:
        raise ValueError(f"unknown subcommand {command!r} (use {', '.join(PARAMETERS)})")
    known = {_flag(key): key for key in {**_SHARED, **PARAMETERS[command]}}
    flags = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        name, eq, value = token.partition("=")
        if name not in known:
            kind = "flag" if token.startswith("-") else "argument"
            raise ValueError(f"unknown {kind} {token!r} for {command}")
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"{name} needs a value")
        flags[known[name]] = value
    return command, flags


def main(argv=None) -> int:
    try:
        command, flags = _read_argv(sys.argv[1:] if argv is None else argv)
        if flags is None:
            sys.stdout.write(_usage(command))
            return 0
        # looked up per call, so a rebound cmd_* (a wrapper, a tracer) runs
        cmd = globals()["cmd_" + command.replace("-", "_")]
        return cmd(_settle(command, flags), flags.get("out"))
    except (ContractViolation, SingularMetricError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
