"""Shared finite-difference and reporting helpers."""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMetricError",
    "richardson_order",
    "central_diff",
    "cross_diff",
    "checked_grid",
    "grid_diff",
    "grid_diff2",
    "grid_cross_diff",
]


class SingularMetricError(Exception):
    """Raised when a background metric degenerates at an evaluation point."""

    def __init__(self, message: str, location=None):
        super().__init__(message if location is None else f"{message} at {location}")
        self.location = location


def richardson_order(coarse: float, fine: float, factor: float = 2.0) -> float:
    """Observed convergence order from two residual sups at steps h, h/factor."""
    if coarse <= 0 or fine <= 0:
        raise ValueError("residual magnitudes must be positive")
    return float(np.log(coarse / fine) / np.log(factor))


def _shift(point, i, delta):
    p = list(point)
    p[i] = p[i] + delta
    return tuple(p)


def central_diff(fn, point, i, h):
    return (np.asarray(fn(_shift(point, i, h))) - np.asarray(fn(_shift(point, i, -h)))) / (2.0 * h)


def cross_diff(fn, point, i, j, h):
    pp = np.asarray(fn(_shift(_shift(point, i, h), j, h)))
    pm = np.asarray(fn(_shift(_shift(point, i, h), j, -h)))
    mp = np.asarray(fn(_shift(_shift(point, i, -h), j, h)))
    mm = np.asarray(fn(_shift(_shift(point, i, -h), j, -h)))
    return (pp - pm - mp + mm) / (4.0 * h * h)


# Interior stencils on gridded values v: the leading axes are the grid's and
# trailing value axes (mode windows, matrices) ride along.


def checked_grid(grid, names: tuple, nodes: int = 3):
    """grid, once its axes are `names` with at least `nodes` nodes each."""
    if grid.names != names:
        raise ValueError(f"expected a grid with axes {names}")
    if min(grid.shape) < nodes:
        raise ValueError(f"need at least {nodes} nodes per axis")
    return grid


def _moved(v, grid, **offset):
    """v on the interior nodes moved by offset[name] along the named axes."""
    shift = [offset.get(name, 0) for name in grid.names]
    return v[tuple(slice(1 + s, v.shape[a] - 1 + s) for a, s in enumerate(shift))]


def grid_diff(v, grid, axis: str):
    """Centered first difference along the named grid axis."""
    return (0.5 / grid.steps[axis]) * (_moved(v, grid, **{axis: 1}) - _moved(v, grid, **{axis: -1}))


def grid_diff2(v, grid, axis: str):
    """Three-point second difference along the named grid axis."""
    return (1.0 / grid.steps[axis] ** 2) * (
        _moved(v, grid, **{axis: 1}) - 2.0 * _moved(v, grid) + _moved(v, grid, **{axis: -1})
    )


def grid_cross_diff(v, grid, a: str, b: str):
    """Four-point mixed difference along two distinct named grid axes."""

    def at(sa, sb):
        return _moved(v, grid, **{a: sa, b: sb})

    h2 = grid.steps[a] * grid.steps[b]
    return (0.25 / h2) * (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1))
