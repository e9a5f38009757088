"""The two library sections a notebook user runs: `bracket` and `doubled_me`.

`run_*` is the timed call into startorus and returns the raw results;
`dump_*` turns them into canonical JSON text outside the timed region, so
the oracle and the traced/untraced comparison see exactly the same bytes.
"""

from __future__ import annotations

import json

import numpy as np

import steps


def _field(rows):
    from startorus import FourierField

    data = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    return FourierField(data[:, :2].astype(np.int64), data[:, 2] + 1j * data[:, 3], prune=0.0)


def prepare(section: str, workload: str, seed: int, pass_index: int = 0):
    """Seeded inputs of one pass as library objects (not timed as the section)."""
    if section == "bracket":
        raw = steps.bracket_inputs(workload, seed, pass_index)
        return {"f": _field(raw["f"]), "g": _field(raw["g"]), "n": raw["n"], "hbar": raw["hbar"]}
    if section == "doubled_me":
        return steps.doubled_inputs(workload, seed, pass_index)
    raise ValueError(f"unknown section {section!r}")


def run_bracket(inp):
    from startorus import chi_project, moyal_bracket, poisson_bracket, star_product

    f, g, n, hbar = inp["f"], inp["g"], inp["n"], inp["hbar"]
    out = {
        "star_fg": star_product(f, g, hbar),
        "star_gf": star_product(g, f, hbar),
        "moyal": moyal_bracket(f, g, hbar),
        "poisson": poisson_bracket(f, g),
    }
    out["fold_f"] = chi_project(f, n)
    out["fold_g"] = chi_project(g, n)
    out["fold_moyal"] = chi_project(out["moyal"], n)
    return out


def lifted_grid(inp, hz):
    """4-axis (w, z, wt, zt) grid around the seeded centre (w0, z0)."""
    from startorus import SpacetimeGrid

    w0, z0 = inp["w0"], inp["z0"]
    return SpacetimeGrid(
        {
            "w": w0 + np.linspace(-0.1, 0.1, 3),
            "z": z0 + np.arange(0.0, 0.2001, hz),
            "wt": np.linspace(-0.1, 0.1, 3),
            "zt": 0.1 + np.arange(0.0, 0.2001, hz),
        }
    )


def kahler_grid(inp):
    """(y, yt, z, zt) grid with kahler_nz nodes on each z axis."""
    from startorus import SpacetimeGrid

    nz = inp["kahler_nz"]
    return SpacetimeGrid(
        {
            "y": inp["w0"] + np.linspace(-0.1, 0.1, 3),
            "yt": np.linspace(-0.1, 0.1, 3),
            "z": inp["z0"] + np.linspace(0.0, 0.2, nz),
            "zt": np.linspace(0.1, 0.3, nz),
        }
    )


KAHLER_EPS = 0.3


def kahler_potential(pt):
    """K = w wt + z zt + eps (w wt)^2 + eps w z wt zt: a non-flat block."""
    w, z, wt, zt = pt
    return w * wt + z * zt + KAHLER_EPS * (w * wt) ** 2 + KAHLER_EPS * w * z * wt * zt


def kahler_block(pt):
    """Closed-form mixed Hessian d_a d_{b~} K of kahler_potential."""
    w, z, wt, zt = pt
    e = KAHLER_EPS
    return np.array(
        [[1.0 + 4.0 * e * w * wt + e * z * zt, e * z * wt], [e * w * zt, 1.0 + e * w * wt]]
    )


def run_doubled(inp):
    from startorus import (
        GriddedFourierField,
        KahlerBackground,
        example_cauchy_data,
        example_solution,
        kowalewska_series,
        residual_me_flat,
        residual_me_kahler,
    )

    hbar = steps.matched_hbar(inp["n"])
    sol = example_solution(hbar)

    def flat_vals(pt, P, Q):
        w, z, wt, zt = pt
        return sol.evaluate(w + wt, z + zt, P, Q)

    def kahler_vals(pt, P, Q):
        y, yt, z, zt = pt
        return sol.evaluate(y, z + zt, P, Q)

    flat = []
    for hz in (inp["hz"], inp["hz"] / 2.0):
        field = GriddedFourierField.sample(
            lifted_grid(inp, hz), flat_vals, inp["band"], hbar, torus_n=inp["torus_n"]
        )
        flat.append(residual_me_flat(field))
    kfield = GriddedFourierField.sample(
        kahler_grid(inp), kahler_vals, inp["band"], hbar, torus_n=inp["torus_n"]
    )
    kahler = residual_me_kahler(kfield, KahlerBackground(potential=kahler_potential))
    theta0, theta1 = example_cauchy_data()
    series = kowalewska_series(theta0, theta1, hbar, inp["terms"])
    return {
        "flat": flat,
        "kahler": kahler,
        "series_field": series.field_at(inp["series_w"], inp["series_z"]),
    }


def run(section: str, inp):
    return run_bracket(inp) if section == "bracket" else run_doubled(inp)


def _field_json(field):
    return json.loads(field.to_json())


def _matrix_json(mat):
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def dump(section: str, out) -> str:
    if section == "bracket":
        payload = {
            k: (_matrix_json(v) if k.startswith("fold") else _field_json(v))
            for k, v in out.items()
        }
    else:
        payload = {
            "flat_sup": [r.sup for r in out["flat"]],
            "flat_rms": [r.rms for r in out["flat"]],
            "kahler_sup": out["kahler"].sup,
            "kahler_rms": out["kahler"].rms,
            "series_field": _field_json(out["series_field"]),
        }
    return json.dumps(payload, sort_keys=True) + "\n"
