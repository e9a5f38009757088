"""Spans and counters around the public functions of each startorus layer.

`install()` replaces every public function of a layer module with a wrapper
and rebinds it in every ``startorus`` module namespace that imported it, so
calls between layers are caught too.  Coarse entry points get spans
(name, layer, start, end, parent); the hot helpers listed in HOT only bump
counters, and their time stays in the caller's self time.  Spans are kept
in memory and written out by `dump()` when the process is done.  Counts
of cached helpers (CACHE_MISSES) are the misses of their functools cache,
so they count real evaluations, not lookups.

`numerics` holds small finite-difference helpers and is not a layer: its
time counts toward the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "fourier", "grids", "sine_basis", "projection",
    "master_equation", "geometry", "chiral",
)

# called thousands of times per pass: counted, not timed
HOT = {
    "basis_matrix", "fold_mode", "fundamental_window", "structure_constant",
    "det_closed_form", "clock_matrix", "shift_matrix", "bessel_integral",
    "matched_hbar", "freq_factor", "weyl_c1",
}

METHODS = {
    "grids": (("GriddedFourierField", "sample"), ("GriddedFourierField", "map_values")),
    "master_equation": (
        ("ClosedFormSolution", "evaluate"),
        ("ClosedFormSolution", "gridded"),
        ("ClosedFormSolution", "mode_field"),
    ),
    "chiral": (("ChiralModel", "matrix_field"), ("ChiralModel", "field_matrix")),
}


# layer-specific work counts, computed from the bound arguments and result
def _pairs(args, result):
    return {"fourier.pairs": args["f"].size * args["g"].size, "fourier.out_modes": result.size}


def _grid_nodes(grid):
    return math.prod(grid.shape)


COUNTS = {
    "star_product": _pairs,
    "moyal_bracket": _pairs,
    "poisson_bracket": _pairs,
    "sample": lambda a, r: {"grids.torus_samples": _grid_nodes(a["grid"]) * a["torus_n"] ** 2},
    "verify_basis_properties": lambda a, r: {"sine_basis.pair_checks": (a["n"] ** 2 - 1) ** 2},
    "chi_project": lambda a, r: {"projection.modes_folded": a["field"].size},
    "evaluate": lambda a, r: {"master_equation.evaluate_points": max(1, getattr(r, "size", 1))},
    "residual_moyal_hp": lambda a, r: {"master_equation.residual_nodes": r.per_point.size},
    "residual_me_flat": lambda a, r: {"master_equation.residual_nodes": r.per_point.size},
    "residual_me_kahler": lambda a, r: {"master_equation.residual_nodes": r.per_point.size},
    "cartan_first": lambda a, r: {"geometry.cartan_solves": 1},
    "matrix_field": lambda a, r: {"chiral.grid_nodes": _grid_nodes(a["grid"])},
}

# cached helper -> counter of its cache misses (quadratures, not lookups)
CACHE_MISSES = {"bessel_integral": "chiral.bessel_calls"}

# the per-layer metrics a summary reports, in BENCHMARK.json order
COUNTERS = {
    "cli": (),
    "fourier": ("pairs", "out_modes"),
    "grids": ("torus_samples",),
    "sine_basis": ("pair_checks",),
    "projection": ("modes_folded",),
    "master_equation": ("evaluate_points", "residual_nodes"),
    "geometry": ("cartan_solves",),
    "chiral": ("bessel_calls", "grid_nodes"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.stack = []
        self.counters = defaultdict(int)
        self.cached = []  # (functools cache, counter name)

    def _wrap(self, layer, fn):
        name = fn.__name__
        count = COUNTS.get(name)
        counters = self.counters
        calls = f"{layer}.calls"

        if name in HOT:
            # hot helpers' counts do not depend on their arguments
            extra = list(count(None, None).items()) if count else []

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[calls] += 1
                for key, val in extra:
                    counters[key] += val
                return fn(*args, **kwargs)

            return counted

        sig = inspect.signature(fn) if count else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            record = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            counters[calls] += 1
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, val in count(bound.arguments, result).items():
                    counters[key] += val
            return result

        return spanned

    def install(self):
        """Wrap every layer's public functions; call after `import startorus`."""
        import startorus  # noqa: F401  (loads every layer but cli)
        import startorus.cli  # noqa: F401

        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"startorus.{layer}"]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if n == "main" or n.startswith("cmd_")
            ]
            for name in names:
                obj = getattr(mod, name)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name in CACHE_MISSES and hasattr(obj, "cache_info"):
                    self.cached.append((obj, CACHE_MISSES[name]))
                replaced[id(obj)] = (obj, self._wrap(layer, obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(layer, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(layer, raw))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "startorus" or mod_name.startswith("startorus.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def harvest(self):
        """Add the cache misses so far to the counters and empty those
        caches, which zeroes their statistics.  Call it between passes,
        where every cache is emptied anyway; `dump()` calls it last."""
        for fn, key in self.cached:
            self.counters[key] += fn.cache_info().misses
            fn.cache_clear()

    def dump(self, path):
        self.harvest()
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def summarize(spans, counters) -> dict:
    """Per-layer calls, self time (span minus its children) and counts."""
    child = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for index, (_, layer, start, end, _) in enumerate(spans):
        self_s[layer] += (end - start) - child[index]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = counters.get(f"{layer}.calls", 0)
        out[f"{layer}.self_s"] = self_s[layer]
        for name in COUNTERS[layer]:
            out[f"{layer}.{name}"] = counters.get(f"{layer}.{name}", 0)
    return out


def load_summary(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    return summarize(data["spans"], data["counters"])

