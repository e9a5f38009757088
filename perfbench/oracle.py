"""Correctness oracle for every operation of the benchmark.

Checks run outside the timed region.  A failed check is counted against
the operation, it never aborts the run.

* Fixed-input steps are compared with outputs recorded at the commit that
  defined the benchmark (`references.json`), number by number within
  REF_RTOL relative (plus REF_ATOL absolute, for round-off-sized entries).
  The subcommands whose values a workload draws per pass have no
  reference; they, and the fixed ones too, must pass the identities below.
* Seeded steps are checked against identities that hold for every seed:
  the fold homomorphism chi_n({f,g}_{2 pi/n}) = [chi_n f, chi_n g], the
  brackets against an independent pairwise sum, the star commutator
  against the bracket, curvature C1 against the closed form, residual
  orders inside 1.7..2.3 (refinement and convergence rate), the series
  against the closed-form solution, and the two standard Bessel
  resummations to round-off.
  Exact antisymmetry {f,g} = -{g,f} costs a second library bracket, so it
  is checked on the first pass of a run (``exact=True``).

The fold and the brackets used here are written from their definitions
(clock-and-shift powers of L_m; the sum over mode pairs), not taken from
startorus, so a wrong folded matrix or bracket is caught.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import sections
import steps

REF_RTOL = 1e-6
REF_ATOL = 1e-12
FOLD_RTOL = 1e-10  # fold entries and the fold homomorphism, relative to max entry
STAR_RTOL = 1e-9  # (f*g - g*f)/(i hbar) against the bracket
BRACKET_RTOL = 1e-10  # a bracket against the pairwise sum, relative to its largest coefficient
CURVATURE_RTOL = 1e-4  # C1 from Cartan solves against the closed form
KAHLER_RTOL = 1e-4  # potential route (differenced metric) against the closed-form block
SERIES_ATOL = 1e-8  # Kowalewska series against the closed-form solution
BESSEL_ATOL = 1e-12  # the standard-form Bessel resummations against sin and cos
ORDER_BAND = (1.7, 2.3)

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- independent reference computations ----------------------------------


def fold(rows, n: int) -> np.ndarray:
    """chi_n of a mode list [[m1, m2, re, im], ...] from the definition.

    L_m = (i n / 2 pi) e^{i pi m1 m2 / n} S^m1 T^m2 with
    (S^m1 T^m2)[k, (k + m2) mod n] = e^{i pi m1 (2k + 1) / n} (-1)^floor((k + m2)/n);
    modes with m = 0 mod n in both slots are dropped.
    """
    data = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    m1 = data[:, 0].astype(np.int64)
    m2 = data[:, 1].astype(np.int64)
    keep = (m1 % n != 0) | (m2 % n != 0)
    m1, m2, c = m1[keep], m2[keep], (data[keep, 2] + 1j * data[keep, 3])
    k = np.arange(n)
    expo = (m1[:, None] * m2[:, None] + m1[:, None] * (2 * k[None, :] + 1)) % (2 * n)
    wraps = np.floor_divide(k[None, :] + m2[:, None], n)
    sign = np.where(wraps % 2 == 0, 1.0, -1.0)
    vals = (1j * n / (2.0 * np.pi)) * c[:, None] * sign * np.exp(1j * np.pi * expo / n)
    out = np.zeros((n, n), dtype=np.complex128)
    cols = (k[None, :] + m2[:, None]) % n
    np.add.at(out, (np.broadcast_to(k, cols.shape), cols), vals)
    return out


def pairwise(f_rows, g_rows, weight) -> dict:
    """sum_{m,n} weight(m x n) f_m g_n on mode m + n, as {mode: coeff}."""
    f = np.asarray(f_rows, dtype=np.float64).reshape(-1, 4)
    g = np.asarray(g_rows, dtype=np.float64).reshape(-1, 4)
    fm, gm = f[:, :2].astype(np.int64), g[:, :2].astype(np.int64)
    cross = fm[:, 0][:, None] * gm[:, 1][None, :] - fm[:, 1][:, None] * gm[:, 0][None, :]
    vals = ((f[:, 2] + 1j * f[:, 3])[:, None] * (g[:, 2] + 1j * g[:, 3])[None, :]
            * weight(cross.astype(np.float64))).reshape(-1)
    modes = (fm[:, None, :] + gm[None, :, :]).reshape(-1, 2)
    lo = modes.min(axis=0)
    width = int(modes[:, 1].max() - lo[1]) + 1
    key = (modes[:, 0] - lo[0]) * width + (modes[:, 1] - lo[1])
    size = int(key.max()) + 1
    total = np.bincount(key, vals.real, size) + 1j * np.bincount(key, vals.imag, size)
    hit = np.flatnonzero(np.bincount(key, minlength=size))
    return {(int(k // width + lo[0]), int(k % width + lo[1])): total[k] for k in hit}


def moyal_weight(hbar):
    return lambda x: (2.0 / hbar) * np.sin(0.5 * hbar * x)


def poisson_weight(x):
    return x


def weyl_c1(w, z, p, q) -> float:
    """C1 = 4 Phi [(1 + 2 sin^2 q)/cos^2 q + Phi^2 (1 + 2 sin^2 a)/cos^2 a]."""
    a = z * math.cos(q) + p
    phi = math.cos(q) / math.cos(a)
    return 4.0 * phi * (
        (1.0 + 2.0 * math.sin(q) ** 2) / math.cos(q) ** 2
        + phi * phi * (1.0 + 2.0 * math.sin(a) ** 2) / math.cos(a) ** 2
    )


def _max_rel(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    return float(np.max(np.abs(got - want))) / scale if want.size else 0.0


def _matrix(payload) -> np.ndarray:
    return np.asarray(payload["re"], dtype=np.float64) + 1j * np.asarray(payload["im"])


def _rows_dict(rows):
    return {(int(r[0]), int(r[1])): complex(r[2], r[3]) for r in rows}


# -- reference comparison -------------------------------------------------


def _parse(text: str):
    """JSON object, or CSV as a list of rows."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows), "malformed CSV")
    return rows


def _as_number(x):
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def compare(got, want, path="$"):
    """Raise CheckFailed at the first entry outside REF_RTOL / REF_ATOL."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ")
        for key in want:
            compare(got[key], want[key], f"{path}.{key}")
        return
    if isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want), f"{path}: length differs")
        for i, (a, b) in enumerate(zip(got, want)):
            compare(a, b, f"{path}[{i}]")
        return
    a, b = _as_number(got), _as_number(want)
    if a is None or b is None:
        _require(got == want, f"{path}: {got!r} != {want!r}")
        return
    _require(
        abs(a - b) <= REF_RTOL * max(abs(a), abs(b)) + REF_ATOL,
        f"{path}: {a!r} differs from reference {b!r}",
    )


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def reference_key(argv) -> str:
    return " ".join(argv)


# -- per-operation checks -------------------------------------------------


def _csv_order(rows):
    header, _, fine = rows[0], rows[1], rows[2]
    order = float(fine[header.index("observed_order")])
    _require(ORDER_BAND[0] <= order <= ORDER_BAND[1], f"observed order {order} outside band")


def _series_gap(series_field, hbar, w, z):
    """Largest coefficient gap between a series field and the closed form."""
    from startorus import example_solution

    got = _rows_dict(series_field["modes"])
    want = example_solution(hbar).mode_field(w, z, band_limit=16, torus_n=48).to_dict()
    return max(abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want))


def check_identities(op, text):
    """Seed-independent checks of the subcommands that may lack a reference."""
    if op in ("verify-me", "verify-chiral"):
        _csv_order(_parse(text))
    elif op == "converge":
        rows = _parse(text)
        rate = float(rows[1][rows[0].index("fitted_exponent")])
        _require(ORDER_BAND[0] <= rate <= ORDER_BAND[1], f"convergence rate {rate} outside band")
    elif op == "bessel-check":
        out = json.loads(text)
        worst = max(out["standard_first_dev"], out["second_dev"])
        _require(worst <= BESSEL_ATOL, f"Bessel resummation off by {worst:.3e}")
    elif op == "solve":
        out = json.loads(text)
        gap = _series_gap(out["field"], out["hbar"], out["w"], out["z"])
        _require(gap <= SERIES_ATOL, f"series off the closed form by {gap:.3e}")
    elif op == "basis":
        _require(json.loads(text)["passed"] is True, "basis report did not pass")


def _check_bracket(name, rows, inp, weight, library_op, exact):
    """A bracket's mode rows against the pairwise sum and, when `exact`,
    against -{g,f} from the library, bit for bit."""
    got = _rows_dict(rows)
    want = pairwise(inp["f"], inp["g"], weight)
    scale = max(abs(c) for c in want.values())
    worst = max(abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want))
    _require(worst <= BRACKET_RTOL * scale, f"{name}: off the pairwise sum by {worst / scale:.3e}")
    if exact:
        swapped = library_op(sections._field(inp["g"]), sections._field(inp["f"]))
        _require(
            [[int(r[0]), int(r[1])] for r in rows] == swapped.modes.tolist()
            and all(complex(r[2], r[3]) == -c for r, c in zip(rows, swapped.coeffs)),
            f"{name}: {{f,g}} != -{{g,f}} exactly",
        )


def check_star(text, inp, exact=True):
    from startorus import moyal_bracket

    rows = json.loads(text)["result"]["modes"]
    hbar = inp["hbar"]
    _check_bracket(
        "moyal", rows, inp, moyal_weight(hbar), lambda a, b: moyal_bracket(a, b, hbar), exact
    )
    _check_homomorphism(fold(rows, inp["n"]), fold(inp["f"], inp["n"]), fold(inp["g"], inp["n"]))


def _check_homomorphism(lhs, pf, pg):
    rhs = pf @ pg - pg @ pf
    defect = _max_rel(lhs, rhs)
    _require(defect <= FOLD_RTOL, f"fold homomorphism defect {defect:.3e}")


def check_project(text, inp):
    payload = json.loads(text)
    _require(payload["n"] == inp["n"], "wrong matrix size")
    dev = _max_rel(_matrix(payload), fold(inp["f"], inp["n"]))
    _require(dev <= FOLD_RTOL, f"folded matrix off by {dev:.3e}")


def check_curvature(text, points):
    rows = _parse(text)
    header = rows[0]
    _require(len(rows) - 1 == points, "wrong number of curvature rows")
    for row in rows[1:]:
        vals = dict(zip(header, map(float, row)))
        want = weyl_c1(vals["w"], vals["z"], vals["p"], vals["q"])
        _require(
            abs(vals["C1_re"] - want) <= CURVATURE_RTOL * abs(want),
            f"C1 {vals['C1_re']!r} vs closed form {want!r}",
        )
        _require(vals["C1_im"] == 0.0 and vals["dotted_norm"] < 1e-3, "spurious curvature")


def check_bracket(text, inp, exact=True):
    from startorus import moyal_bracket, poisson_bracket

    out = json.loads(text)
    n, hbar = inp["n"], inp["hbar"]
    _check_bracket(
        "moyal", out["moyal"]["modes"], inp, moyal_weight(hbar),
        lambda a, b: moyal_bracket(a, b, hbar), exact,
    )
    _check_bracket("poisson", out["poisson"]["modes"], inp, poisson_weight, poisson_bracket, exact)
    # (f*g - g*f)/(i hbar) is the Moyal bracket
    fg, gf, mb = (_rows_dict(out[k]["modes"]) for k in ("star_fg", "star_gf", "moyal"))
    keys = set(fg) | set(gf) | set(mb)
    scale = max(abs(c) for c in mb.values())
    worst = max(
        abs((fg.get(k, 0) - gf.get(k, 0)) / (1j * hbar) - mb.get(k, 0)) for k in keys
    )
    _require(worst <= STAR_RTOL * scale, f"star commutator vs bracket {worst / scale:.3e}")
    pf, pg, pm = (_matrix(out[k]) for k in ("fold_f", "fold_g", "fold_moyal"))
    for name, got, rows in (("f", pf, inp["f"]), ("g", pg, inp["g"]), ("moyal", pm, out["moyal"]["modes"])):
        dev = _max_rel(got, fold(rows, n))
        _require(dev <= FOLD_RTOL, f"fold of {name} off by {dev:.3e}")
    _check_homomorphism(pm, pf, pg)


def check_doubled(text, inp):
    from startorus import (
        GriddedFourierField,
        KahlerBackground,
        example_solution,
        residual_me_kahler,
        richardson_order,
    )

    out = json.loads(text)
    order = richardson_order(*out["flat_sup"])
    _require(ORDER_BAND[0] <= order <= ORDER_BAND[1], f"flat residual order {order:.3f}")
    hbar = steps.matched_hbar(inp["n"])
    sol = example_solution(hbar)
    field = GriddedFourierField.sample(
        sections.kahler_grid(inp),
        lambda pt, P, Q: sol.evaluate(pt[0], pt[2] + pt[3], P, Q),
        inp["band"],
        hbar,
        torus_n=inp["torus_n"],
    )
    closed = residual_me_kahler(field, KahlerBackground(metric_fn=sections.kahler_block)).sup
    _require(
        abs(out["kahler_sup"] - closed) <= KAHLER_RTOL * closed,
        f"Kahler residual {out['kahler_sup']!r} vs closed-form block {closed!r}",
    )
    gap = _series_gap(out["series_field"], hbar, inp["series_w"], inp["series_z"])
    _require(gap <= SERIES_ATOL, f"series off the closed form by {gap:.3e}")


def check(op: str, workload: str, seed: int, argv, text: str, refs: dict, pass_index=0,
          exact=True):
    """Return None when the output of `op` in pass `pass_index` is right,
    else the reason.  `exact` adds the exact antisymmetry checks."""
    try:
        _parse(text)
        if op == "bracket":
            check_bracket(text, steps.bracket_inputs(workload, seed, pass_index), exact)
        elif op == "doubled_me":
            check_doubled(text, steps.doubled_inputs(workload, seed, pass_index))
        elif op == "star":
            check_star(text, steps.star_inputs(workload, seed, pass_index), exact)
        elif op == "project":
            check_project(text, steps.star_inputs(workload, seed, pass_index))
        elif op == "curvature":
            check_curvature(text, int(argv[argv.index("--points") + 1]) if "--points" in argv else 8)
        else:
            key = reference_key(argv)
            if op not in steps.seeded(workload):
                _require(key in refs, f"no reference recorded for {key!r}")
                compare(_parse(text), _parse(refs[key]))
            check_identities(op, text)
        return None
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a malformed output must count as a failure, not end the run
        return f"unreadable output: {type(exc).__name__}: {exc}"
