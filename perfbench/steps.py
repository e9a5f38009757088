"""Workload definitions: seeded inputs and the ordered steps of one pass.

A step is one operation of the closed loop.  Every workload runs the same
eleven operations (the nine CLI subcommands plus the two library sections
``bracket`` and ``doubled_me``), each at the size that gives the workload
its character:

* ``cli-studies`` refinement studies above their default sizes, every pass
  in a fresh interpreter, so each pass pays interpreter start and import;
  the sizes keep a pass at 4-6 s, so a run holds seven or more passes;
* ``lib-algebra`` one long-lived process: dense brackets and the doubled
  master equation at notebook size, the nine subcommands at their default
  sizes run in-process through ``startorus.cli.main`` so import is paid once.

Everything here is a pure function of the seed and the pass index, so the
same seed gives byte-identical inputs.  Each pass draws its own seeded
inputs from (seed, pass index), so no pass repeats another's arguments.
Only values change with the seed or the pass, never sizes, so the cost of
a pass does not depend on them.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

WORKLOADS = ("cli-studies", "lib-algebra")

# steps whose inputs come from the seed in every workload
SEEDED = ("star", "project", "curvature", "bracket", "doubled_me")

# fixed-size subcommands whose values are drawn per pass in a long-lived
# process, so no pass repeats another's call (see `value_args`)
PER_PASS_VALUES = {
    "lib-algebra": ("solve", "verify-me", "verify-chiral", "converge", "bessel-check"),
}

# operation name -> end-to-end metric name
OPS = {
    "star": "star_s",
    "basis": "basis_s",
    "project": "project_s",
    "solve": "solve_s",
    "verify-me": "verify_me_s",
    "verify-chiral": "verify_chiral_s",
    "curvature": "curvature_s",
    "converge": "converge_s",
    "bessel-check": "bessel_check_s",
    "bracket": "bracket_s",
    "doubled_me": "doubled_me_s",
}

# operations whose times are end-to-end metrics: the two that run long on
# both workloads and stay steady there.  The other step times are printed
# in the summary only; their spread over runs is too wide to gate (see
# perfbench/README.md, "End-to-end metrics").
TIMED = ("verify-me", "bracket")

# Sizes per workload.  star/project: `modes` random modes (out of the
# (2*band+1)^2 square) folded at rank `n`.  bracket: dense band fields of
# band R_f and R_g folded at rank n.  doubled_me: lifted-solution grids with
# z steps hz and hz/2 (flat form), one Kahler grid, band limit and torus
# grid of the projection, and Kowalewska series terms.
SIZES = {
    "cli-studies": {
        "star": {"band": 10, "modes": (360, 300), "n": 32},
        "cli": {
            "basis": ["--n", "10"],
            "solve": ["--terms", "48"],
            "verify-me": ["--h", "0.1"],
            "verify-chiral": ["--n", "8"],
            "curvature": ["--points", "32"],
            "converge": ["--n-list", "2,4,8,16,32,64,128", "--band-limit", "160"],
            "bessel-check": ["--zeta-max", "40", "--terms", "200"],
        },
        "bracket": {"R": (8, 7), "n": 8},
        "doubled_me": {"hz": 0.05, "band": 8, "torus_n": 20, "kahler_nz": 5, "terms": 11},
    },
    "lib-algebra": {
        "star": {"band": 3, "modes": (24, 20), "n": 5},
        "cli": {},
        "bracket": {"R": (13, 12), "n": 12},
        "doubled_me": {"hz": 0.05, "band": 10, "torus_n": 24, "kahler_nz": 5, "terms": 13},
    },
}

CLI_ORDER = (
    "star", "basis", "project", "solve", "verify-me",
    "verify-chiral", "curvature", "converge", "bessel-check",
)
SECTIONS = ("bracket", "doubled_me")


def another_pass(passes, elapsed: float, seconds: float, limit=None) -> bool:
    """Closed-loop pass policy: at least one pass, then another only if one
    more pass as long as the longest so far still ends within `seconds`."""
    if limit is not None:
        return len(passes) < limit
    return not passes or elapsed + max(p["wall_s"] for p in passes) <= seconds


def _rng(seed: int, label: str, pass_index: int) -> np.random.Generator:
    # independent stream per input and pass, stable under reordering of the steps
    return np.random.default_rng(
        [int(seed) % (2**63), zlib.crc32(label.encode()), int(pass_index)]
    )


def _coeffs(rng, count):
    re = np.round(rng.standard_normal(count), 6)
    im = np.round(rng.standard_normal(count), 6)
    return [complex(a, b) for a, b in zip(re, im)]


def sparse_modes(seed: int, label: str, band: int, count: int, pass_index: int = 0):
    """`count` distinct modes from the band square with N(0,1) parts."""
    rng = _rng(seed, label, pass_index)
    r = np.arange(-band, band + 1)
    square = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
    pick = np.sort(rng.choice(square.shape[0], size=count, replace=False))
    return [
        [int(m1), int(m2), c.real, c.imag]
        for (m1, m2), c in zip(square[pick], _coeffs(rng, count))
    ]


def dense_modes(seed: int, label: str, band: int, pass_index: int = 0):
    """Every mode of the band square, N(0,1) parts."""
    r = range(-band, band + 1)
    modes = [(m1, m2) for m1 in r for m2 in r]
    cs = _coeffs(_rng(seed, label, pass_index), len(modes))
    return [[m1, m2, c.real, c.imag] for (m1, m2), c in zip(modes, cs)]


def matched_hbar(n: int) -> float:
    return 2.0 * math.pi / n


def star_inputs(workload: str, seed: int, pass_index: int = 0) -> dict:
    size = SIZES[workload]["star"]
    f = sparse_modes(seed, "star-f", size["band"], size["modes"][0], pass_index)
    g = sparse_modes(seed, "star-g", size["band"], size["modes"][1], pass_index)
    return {"f": f, "g": g, "n": size["n"], "hbar": matched_hbar(size["n"])}


def bracket_inputs(workload: str, seed: int, pass_index: int = 0) -> dict:
    size = SIZES[workload]["bracket"]
    return {
        "f": dense_modes(seed, "bracket-f", size["R"][0], pass_index),
        "g": dense_modes(seed, "bracket-g", size["R"][1], pass_index),
        "n": size["n"],
        "hbar": matched_hbar(size["n"]),
    }


def doubled_inputs(workload: str, seed: int, pass_index: int = 0) -> dict:
    """Grid placement and series point drawn from the seed; sizes fixed."""
    size = dict(SIZES[workload]["doubled_me"])
    rng = _rng(seed, "doubled", pass_index)
    size.update(
        w0=round(float(rng.uniform(-0.2, 0.2)), 6),
        z0=round(float(rng.uniform(0.15, 0.3)), 6),
        series_w=round(float(rng.uniform(-0.3, 0.3)), 6),
        series_z=round(float(rng.uniform(0.2, 0.4)), 6),
        n=SIZES[workload]["bracket"]["n"],
    )
    return size


def seeded(workload: str) -> tuple:
    """Steps whose inputs come from (seed, pass); the others have fixed
    inputs and are checked against recorded reference outputs."""
    return SEEDED + PER_PASS_VALUES.get(workload, ())


def value_args(op: str, seed: int, pass_index: int) -> list:
    """Seeded values for a fixed-size subcommand: the solution point, hbar,
    the grid placement (by at most four steps of h = 1/32) or the zeta range."""
    rng = _rng(seed, op, pass_index)

    def draw(lo, hi):
        return repr(round(float(rng.uniform(lo, hi)), 6))

    if op == "solve":
        return ["--w", draw(-0.3, 0.3), "--z", draw(0.2, 0.4)]
    if op == "verify-me":
        return ["--hbar", draw(0.8e-3, 1.2e-3)]
    if op == "verify-chiral":
        w0, z0 = int(rng.integers(-4, 5)) / 32.0, int(rng.integers(0, 5)) / 32.0
        return ["--grid-w", f"{w0 - 1.0!r}:{w0 + 1.0!r}", "--grid-z", f"{z0!r}:{z0 + 2.0!r}"]
    if op == "converge":
        return ["--hbar-ref", repr(float(10.0 ** round(float(rng.uniform(-9.0, -7.0)), 6)))]
    if op == "bessel-check":
        return ["--zeta-max", draw(3.5, 4.5)]
    raise ValueError(f"{op} has no seeded values")


def cli_argv(workload: str, seed: int, pass_index: int = 0) -> dict:
    """Subcommand -> argv (without the program name) for one pass."""
    star = star_inputs(workload, seed, pass_index)
    extra = SIZES[workload]["cli"]
    argv = {
        "star": [
            "star", "--op", "moyal", "--hbar", repr(star["hbar"]),
            "--f", json.dumps(star["f"]), "--g", json.dumps(star["g"]),
        ],
        "project": ["project", "--n", str(star["n"]), "--modes", json.dumps(star["f"])],
    }
    for name in CLI_ORDER:
        if name in argv:
            continue
        argv[name] = [name] + list(extra.get(name, []))
        if name in PER_PASS_VALUES.get(workload, ()):
            argv[name] += value_args(name, seed, pass_index)
    curvature_seed = int(_rng(seed, "curvature", pass_index).integers(1_000_003))
    argv["curvature"] += ["--seed", str(curvature_seed)]
    return argv


def fixed_steps(workload: str) -> list:
    """argv of the CLI steps whose inputs do not depend on the seed."""
    argv = cli_argv(workload, 0)
    return [argv[name] for name in CLI_ORDER if name not in seeded(workload)]

