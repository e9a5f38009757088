"""Uniform spacetime grids whose nodes carry torus-mode fields.

A gridded mode field is one dense complex tensor: the grid axes first,
then a (2R + 1, 2R + 1) window of mode coefficients c_m at [R + m1, R + m2].
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .fourier import DEFAULT_PRUNE, FourierField, _fft_window

__all__ = ["SpacetimeGrid", "GriddedFourierField", "torus_nodes"]


def torus_nodes(n: int):
    """Meshgrid (P, Q) of the uniform n x n torus grid, ij indexing."""
    t = 2.0 * np.pi * np.arange(n) / n
    return np.meshgrid(t, t, indexing="ij")


class SpacetimeGrid:
    """Cartesian product of uniformly spaced named axes."""

    __slots__ = ("names", "axes")

    def __init__(self, axes: Mapping[str, Sequence[float]]):
        names = []
        arrays = []
        for name, samples in axes.items():
            arr = np.asarray(samples, dtype=np.float64)
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError(f"axis {name!r} must be 1d with >= 2 samples")
            d = np.diff(arr)
            if not np.allclose(d, d[0], rtol=1e-12, atol=1e-14):
                raise ValueError(f"axis {name!r} is not uniformly spaced")
            names.append(str(name))
            arrays.append(arr)
        if not arrays:
            raise ValueError("a grid needs at least one axis")
        self.names = tuple(names)
        self.axes = tuple(arrays)

    @classmethod
    def regular(cls, spans: Mapping[str, tuple], h: float) -> "SpacetimeGrid":
        """Axes covering [lo, hi], lo < hi, with step h; (hi - lo)/h must be integral."""
        if not (np.isfinite(h) and h > 0):
            raise ValueError(f"grid step must be finite and > 0, got {h!r}")
        axes = {}
        for name, (lo, hi) in spans.items():
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"span {name!r} needs finite ends, got {lo!r}:{hi!r}")
            if not lo < hi:
                raise ValueError(f"span {name!r} is empty, got {lo!r}:{hi!r}")
            count = (hi - lo) / h
            n = int(round(count))
            if abs(count - n) > 1e-9 or n < 1:
                raise ValueError(f"span {name!r} not an integer multiple of h")
            axes[name] = np.linspace(lo, hi, n + 1)
        return cls(axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def steps(self) -> dict:
        return {name: float(a[1] - a[0]) for name, a in zip(self.names, self.axes)}

    def axis(self, name: str) -> np.ndarray:
        try:
            return self.axes[self.names.index(name)]
        except ValueError:
            raise KeyError(f"grid has no axis {name!r}") from None

    def refined(self, factor: int = 2) -> "SpacetimeGrid":
        """Same spans with each step divided by factor (endpoints kept)."""
        axes = {}
        for name, a in zip(self.names, self.axes):
            axes[name] = np.linspace(a[0], a[-1], factor * (a.size - 1) + 1)
        return SpacetimeGrid(axes)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n}[{a.size}: {a[0]:g}..{a[-1]:g}]" for n, a in zip(self.names, self.axes)
        )
        return f"SpacetimeGrid({parts})"


# torus samples per evaluator call and batched FFT in
# GriddedFourierField.sample, held in one reused complex buffer of 512 KB
# (or one torus, if that is larger); a multi-MB batch slowed later,
# unrelated steps of the same process
_SAMPLE_BATCH = 1 << 15


class GriddedFourierField:
    """Band-limited mode fields on a SpacetimeGrid, held as one complex tensor.

    values has shape grid.shape + (2R + 1, 2R + 1), values[..., R + m1, R + m2]
    = c_m, and R is read from it.  Grid derivatives are slices of the leading
    axes (`numerics.grid_diff`); `node` gives one node as a sparse FourierField.
    """

    __slots__ = ("grid", "values", "hbar")

    def __init__(self, grid: SpacetimeGrid, values, hbar: float):
        values = np.asarray(values, dtype=np.complex128)
        side = values.shape[-1] if values.ndim > grid.ndim else 0
        if values.shape != grid.shape + (side, side) or side % 2 == 0:
            raise ValueError(f"values shape {values.shape} is not {grid.shape} + (2R+1, 2R+1)")
        if not (math.isfinite(hbar) and hbar >= 0):
            raise ValueError("hbar must be finite and >= 0")
        self.grid = grid
        self.values = values
        self.hbar = float(hbar)

    @property
    def band_limit(self) -> int:
        return (self.values.shape[-1] - 1) // 2

    @classmethod
    def sample(
        cls,
        grid: SpacetimeGrid,
        evaluator: Callable,
        band_limit: int,
        hbar: float,
        torus_n: int = 128,
    ) -> "GriddedFourierField":
        """Project evaluator(point, P, Q) onto modes at every grid node.

        P is the column (n, 1) of torus angles p_j = 2 pi j / n, n = torus_n,
        and Q the row (1, n) of the same angles q_k: the torus grid as two
        broadcasting axes, not meshgrids, so a term in q alone is computed
        once per q.  The nodes go in batches of B, at most _SAMPLE_BATCH // n^2
        (and at least 1), with one evaluator call each.  point is a tuple of
        the batch's node coordinates, one (B, 1, 1) array per axis (as for
        every callable on a grid, `KahlerBackground`'s too), and the result
        must broadcast to the batch's samples (B, n, n); a result of shape
        (n, n), (n, 1) or (1, n), or a scalar, holds for every node of it.
        |c| <= DEFAULT_PRUNE is zeroed, as in `fft_project`.  The windows are
        full (2R+1, 2R+1); the residuals then work on their occupied m1 rows.
        """
        if band_limit < 0:
            raise ValueError(f"band_limit must be >= 0, got {band_limit}")
        t = 2.0 * np.pi * np.arange(torus_n) / torus_n  # the angles of `torus_nodes`
        P, Q = t[:, None], t[None, :]
        count = math.prod(grid.shape)
        batch = min(count, max(1, _SAMPLE_BATCH // (torus_n * torus_n)))
        samples = np.empty((batch, torus_n, torus_n), dtype=np.complex128)
        side = 2 * band_limit + 1
        values = np.empty((count, side, side), dtype=np.complex128)
        for start in range(0, count, batch):
            stop = min(start + batch, count)
            index = np.unravel_index(np.arange(start, stop), grid.shape)
            point = tuple(a[i].reshape(-1, 1, 1) for a, i in zip(grid.axes, index))
            out = samples[: stop - start]
            result = evaluator(point, P, Q)
            try:
                out[...] = result
            except ValueError:
                raise ValueError(
                    f"evaluator returned shape {np.shape(result)}, which does not "
                    f"broadcast to the batch's samples {out.shape}"
                ) from None
            values[start:stop] = _fft_window(out, band_limit)
        values[np.abs(values) <= DEFAULT_PRUNE] = 0.0
        return cls(grid, values.reshape(grid.shape + (side, side)), hbar)

    def node(self, index: tuple) -> FourierField:
        """The mode field at one grid node."""
        return FourierField.from_window(self.values[index])

    def map_values(self, fn: Callable[[FourierField], FourierField]):
        """Apply fn node by node; the band limit becomes the widest result's."""
        fields = [fn(self.node(index)) for index in np.ndindex(*self.grid.shape)]
        band = max(f.band_limit for f in fields)
        windows = np.array([f.window(band) for f in fields])
        shape = self.grid.shape + windows.shape[1:]
        return GriddedFourierField(self.grid, windows.reshape(shape), self.hbar)

    def __repr__(self) -> str:
        return (
            f"GriddedFourierField(shape={self.grid.shape}, "
            f"band_limit={self.band_limit}, hbar={self.hbar})"
        )
