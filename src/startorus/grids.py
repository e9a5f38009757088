"""Uniform spacetime grids whose nodes carry torus-mode fields."""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .fourier import DEFAULT_PRUNE, FourierField, fft_project

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
        self.names = tuple(names)
        self.axes = tuple(arrays)

    @classmethod
    def regular(cls, spans: Mapping[str, tuple], h: float) -> "SpacetimeGrid":
        """Axes covering [lo, hi] with step h; (hi - lo)/h must be integral."""
        axes = {}
        for name, (lo, hi) in spans.items():
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

    def point(self, index: tuple) -> tuple:
        return tuple(float(a[i]) for a, i in zip(self.axes, index))

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


class GriddedFourierField:
    """A FourierField at every node of a SpacetimeGrid.

    All node fields are declared to share one projection band limit; the
    sparse per-node tables may store fewer modes when coefficients vanish.
    """

    __slots__ = ("grid", "values", "hbar", "band_limit")

    def __init__(self, grid: SpacetimeGrid, values, hbar: float, band_limit=None):
        values = np.asarray(values, dtype=object)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if hbar < 0:
            raise ValueError("hbar must be >= 0")
        if band_limit is None:
            band_limit = max((f.band_limit for f in values.flat), default=0)
        else:
            worst = max((f.band_limit for f in values.flat), default=0)
            if worst > band_limit:
                raise ValueError(
                    f"stored mode outside declared band_limit {band_limit}"
                )
        self.grid = grid
        self.values = values
        self.hbar = float(hbar)
        self.band_limit = int(band_limit)

    @classmethod
    def sample(
        cls,
        grid: SpacetimeGrid,
        evaluator: Callable,
        band_limit: int,
        hbar: float,
        torus_n: int = 128,
        prune: float = DEFAULT_PRUNE,
    ) -> "GriddedFourierField":
        """Project evaluator(point, P, Q) onto modes at every grid node.

        evaluator receives the node coordinates as a tuple plus torus
        meshgrids P, Q and must return the sampled values.
        """
        P, Q = torus_nodes(torus_n)
        values = np.empty(grid.shape, dtype=object)
        for index in np.ndindex(*grid.shape):
            pt = grid.point(index)
            values[index] = fft_project(
                np.asarray(evaluator(pt, P, Q), dtype=np.complex128),
                band_limit,
                prune,
            )
        return cls(grid, values, hbar, band_limit)

    def map_values(self, fn: Callable[[FourierField], FourierField]):
        out = np.empty(self.values.shape, dtype=object)
        for index in np.ndindex(*self.values.shape):
            out[index] = fn(self.values[index])
        return GriddedFourierField(self.grid, out, self.hbar, None)

    def __repr__(self) -> str:
        return (
            f"GriddedFourierField(shape={self.grid.shape}, "
            f"band_limit={self.band_limit}, hbar={self.hbar})"
        )
