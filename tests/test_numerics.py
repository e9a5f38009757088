"""Interior grid stencils on fields with trailing value axes."""

import itertools

import numpy as np

from startorus import SpacetimeGrid
from startorus.numerics import grid_cross_diff, grid_diff, grid_diff2


def quadratic(grid, value_shape, seed):
    """A random field quadratic in every grid axis, its gradient on the
    interior nodes, and its constant Hessian (axis, axis, *value_shape)."""
    rng = np.random.default_rng(seed)
    d = grid.ndim

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    const, lin, hess = cplx(*value_shape), cplx(d, *value_shape), cplx(d, d, *value_shape)
    hess = hess + hess.swapaxes(0, 1)
    x = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)
    v = (
        const
        + np.tensordot(x, lin, axes=(-1, 0))
        + 0.5 * np.tensordot(x[..., :, None] * x[..., None, :], hess, axes=([-2, -1], [0, 1]))
    )
    inner = x[(slice(1, -1),) * d]
    grad = lin + np.tensordot(inner, hess, axes=(-1, 1))
    return v, grad, hess


def test_stencils_are_exact_on_quadratic_fields():
    grid = SpacetimeGrid(
        {
            "a": np.linspace(-0.3, 0.0, 4),
            "b": np.linspace(0.5, 1.0, 3),
            "c": np.linspace(0.1, 0.3, 5),
            "d": np.linspace(-2.0, -1.0, 3),
        }
    )
    v, grad, hess = quadratic(grid, (5, 5), seed=4)  # a band-2 mode window per node
    assert v.shape == (4, 3, 5, 3, 5, 5)
    scale = np.max(np.abs(v))
    for a, name in enumerate(grid.names):
        got = grid_diff(v, grid, name)
        assert got.shape == (2, 1, 3, 1, 5, 5)
        assert np.max(np.abs(got - grad[..., a, :, :])) <= 1e-12 * scale
        assert np.max(np.abs(grid_diff2(v, grid, name) - hess[a, a])) <= 1e-12 * scale
    for (a, na), (b, nb) in itertools.combinations(enumerate(grid.names), 2):
        assert np.max(np.abs(grid_cross_diff(v, grid, na, nb) - hess[a, b])) <= 1e-12 * scale


def test_nested_stencils_on_matrix_values():
    # a difference of a difference shrinks the interior twice; on a
    # quadratic it is the exact second derivative, as chiral_system_check uses
    grid = SpacetimeGrid({"w": np.linspace(-1.0, 1.0, 6), "z": np.linspace(0.0, 0.5, 5)})
    v, _, hess = quadratic(grid, (3, 3), seed=9)
    scale = np.max(np.abs(v))
    ww = grid_diff(grid_diff(v, grid, "w"), grid, "w")
    wz = grid_diff(grid_diff(v, grid, "w"), grid, "z")
    assert ww.shape == (2, 1, 3, 3)
    assert np.max(np.abs(ww - hess[0, 0])) <= 1e-12 * scale
    assert np.max(np.abs(wz - hess[0, 1])) <= 1e-12 * scale
