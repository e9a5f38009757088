"""Grid container validation, the dense mode tensor, and batched projection."""

import re

import numpy as np
import pytest

from startorus import FourierField, GriddedFourierField, SpacetimeGrid, fft_project
from startorus import grids
from startorus.grids import torus_nodes


def test_torus_nodes_cover_the_period():
    P, Q = torus_nodes(8)
    assert P.shape == (8, 8)
    assert P[0, 0] == 0.0
    assert abs(P[-1, 0] - 2 * np.pi * 7 / 8) < 1e-15
    assert np.all(P[:, 0] == Q[0, :])


def test_grid_axes_and_lookups():
    grid = SpacetimeGrid({"w": [0.0, 0.5, 1.0], "z": [0.0, 0.25, 0.5, 0.75]})
    assert grid.names == ("w", "z")
    assert grid.ndim == 2
    assert grid.shape == (3, 4)
    assert grid.steps == {"w": 0.5, "z": 0.25}
    assert np.array_equal(grid.axis("z"), [0.0, 0.25, 0.5, 0.75])
    with pytest.raises(KeyError):
        grid.axis("missing")


def test_grid_rejects_bad_axes():
    with pytest.raises(ValueError):
        SpacetimeGrid({"w": [0.0]})
    with pytest.raises(ValueError):
        SpacetimeGrid({"w": [0.0, 0.1, 0.5]})  # non-uniform
    with pytest.raises(ValueError, match="at least one axis"):
        SpacetimeGrid({})


def test_regular_construction():
    grid = SpacetimeGrid.regular({"w": (-1.0, 1.0), "z": (0.0, 0.5)}, 0.25)
    assert grid.shape == (9, 3)
    assert grid.axis("w")[0] == -1.0 and grid.axis("w")[-1] == 1.0
    with pytest.raises(ValueError):
        SpacetimeGrid.regular({"w": (0.0, 1.0)}, 0.3)


@pytest.mark.parametrize("h", [0.0, -0.25, float("nan"), float("inf")])
def test_regular_rejects_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="finite and > 0"):
        SpacetimeGrid.regular({"w": (0.0, 1.0)}, h)


@pytest.mark.parametrize("span", [(0.0, float("nan")), (float("-inf"), 0.0), (0.0, float("inf"))])
def test_regular_rejects_non_finite_span_ends(span):
    with pytest.raises(ValueError, match="finite ends"):
        SpacetimeGrid.regular({"w": span}, 0.25)


@pytest.mark.parametrize("span", [(1.0, 0.5), (0.0, 0.0)])
def test_regular_names_an_empty_or_inverted_span(span):
    with pytest.raises(ValueError, match="span 'w' is empty"):
        SpacetimeGrid.regular({"w": span}, 0.25)


def test_refined_halves_the_step():
    grid = SpacetimeGrid.regular({"w": (0.0, 1.0)}, 0.5)
    fine = grid.refined()
    assert fine.shape == (5,)
    assert fine.steps["w"] == 0.25
    assert fine.axis("w")[0] == 0.0 and fine.axis("w")[-1] == 1.0
    assert grid.refined(4).shape == (9,)


def dense(grid, fields, band):
    """Mode tensor grid.shape + (2 band + 1,) * 2 of per-node sparse fields."""
    return np.stack([f.window(band) for f in fields]).reshape(
        grid.shape + (2 * band + 1, 2 * band + 1)
    )


def test_gridded_field_shape_and_band_checks():
    grid = SpacetimeGrid({"w": [0.0, 1.0]})
    fields = [FourierField.basis(1, 0), FourierField.basis(0, 2)]
    values = dense(grid, fields, 2)
    gf = GriddedFourierField(grid, values, hbar=0.5)
    assert gf.band_limit == 2
    assert gf.values.shape == (2, 5, 5) and gf.values.dtype == np.complex128
    assert gf.values[0, 2 + 1, 2 + 0] == 1.0 and gf.values[1, 2 + 0, 2 + 2] == 1.0
    for i, f in enumerate(fields):
        assert gf.node((i,)).to_dict() == f.to_dict()
    with pytest.raises(ValueError):
        FourierField.basis(0, 2).window(1)  # mode outside the window
    for shape in ((4, 4), (5, 3), (25,), (1, 5, 5)):
        with pytest.raises(ValueError, match=re.escape(f"window shape {shape}")):
            FourierField.from_window(np.zeros(shape))
    with pytest.raises(ValueError):
        GriddedFourierField(grid, values[:1], hbar=0.5)
    with pytest.raises(ValueError):
        GriddedFourierField(grid, values, hbar=-0.1)
    with pytest.raises(ValueError):
        GriddedFourierField(grid, np.zeros((2, 4, 4)), hbar=0.5)  # even window
    with pytest.raises(ValueError):
        GriddedFourierField(grid, np.zeros((2, 5, 3)), hbar=0.5)  # not square
    with pytest.raises(ValueError):
        GriddedFourierField(grid, np.zeros((2, 5)), hbar=0.5)  # no mode axes


def test_sample_projects_each_node():
    grid = SpacetimeGrid({"w": [0.0, 1.0, 2.0]})

    def evaluator(point, P, Q):
        (w,) = point
        return w * np.exp(1j * P) + np.exp(-2j * Q)

    gf = GriddedFourierField.sample(grid, evaluator, band_limit=3, hbar=0.3, torus_n=16)
    assert gf.grid.shape == (3,)
    assert gf.values.shape == (3, 7, 7)
    for i, w in enumerate([0.0, 1.0, 2.0]):
        node = gf.node((i,))
        assert abs(node.coeff(1, 0) - w) < 1e-13
        assert abs(node.coeff(0, -2) - 1.0) < 1e-13
        assert node.size <= 2


@pytest.mark.parametrize("batch", [None, 3 * 20 * 20, 5 * 20 * 20])
def test_sample_equals_per_node_fft_project(batch, monkeypatch):
    # three nodes per batch end batches mid-row; with five, the last batch
    # holds two nodes and stale rows of the reused sample buffer would show
    if batch is not None:
        monkeypatch.setattr(grids, "_SAMPLE_BATCH", batch)
    grid = SpacetimeGrid({"a": [0.0, 0.3, 0.6], "b": [-1.0, 0.0, 1.0, 2.0]})
    P, Q = torus_nodes(20)

    def evaluator(point, P, Q):
        a, b = point
        return np.exp(np.cos(P + a) + 1j * b * np.sin(2 * Q)) + 1e-16 * np.cos(Q)

    gf = GriddedFourierField.sample(grid, evaluator, band_limit=6, hbar=0.2, torus_n=20)
    for index in np.ndindex(*grid.shape):
        point = tuple(float(a[i]) for a, i in zip(grid.axes, index))
        want = fft_project(np.asarray(evaluator(point, P, Q)), 6)
        got = gf.node(index)
        assert np.array_equal(got.modes, want.modes)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(gf.values[index], want.window(6))


@pytest.mark.parametrize("batch, sizes", [(None, [12]), (5 * 20 * 20, [5, 5, 2])])
def test_sample_calls_the_evaluator_once_per_batch_on_column_coordinates(
    batch, sizes, monkeypatch
):
    if batch is not None:
        monkeypatch.setattr(grids, "_SAMPLE_BATCH", batch)
    grid = SpacetimeGrid({"a": [0.0, 0.3, 0.6], "b": [-1.0, 0.0, 1.0, 2.0]})
    calls = []

    def evaluator(point, P, Q):
        calls.append(point)
        a, b = point
        return a * np.cos(P) + b * np.sin(Q)

    gf = GriddedFourierField.sample(grid, evaluator, band_limit=2, hbar=0.0, torus_n=20)
    assert [tuple(np.shape(c) for c in point) for point in calls] == [
        ((size, 1, 1), (size, 1, 1)) for size in sizes
    ]
    nodes = [(a, b) for a in grid.axis("a").tolist() for b in grid.axis("b").tolist()]
    coordinates = [np.concatenate([point[k].ravel() for point in calls]) for k in range(2)]
    assert list(zip(*coordinates)) == nodes
    for index, (a, b) in zip(np.ndindex(*grid.shape), nodes):
        assert abs(gf.node(index).coeff(1, 0) - a / 2) < 1e-15
        assert abs(gf.node(index).coeff(0, 1) - b / 2j) < 1e-15


@pytest.mark.parametrize("batch", [None, 5 * 16 * 16])
def test_sample_broadcasts_an_evaluator_that_ignores_the_coordinates(batch, monkeypatch):
    if batch is not None:
        monkeypatch.setattr(grids, "_SAMPLE_BATCH", batch)
    grid = SpacetimeGrid({"a": [0.0, 0.3, 0.6], "b": [-1.0, 0.0, 1.0, 2.0]})
    P, Q = torus_nodes(16)
    constant = GriddedFourierField.sample(grid, lambda pt, P, Q: 2.0, 3, 0.1, torus_n=16)
    wave = GriddedFourierField.sample(grid, lambda pt, P, Q: np.cos(P + Q), 3, 0.1, torus_n=16)
    for index in np.ndindex(*grid.shape):
        assert constant.node(index).to_dict() == fft_project(np.full(P.shape, 2.0), 3).to_dict()
        assert np.array_equal(wave.values[index], fft_project(np.cos(P + Q), 3).window(3))


@pytest.mark.parametrize("batch", [None, 5 * 12 * 12])
def test_sample_passes_sparse_nodes_and_matches_full_meshgrids(batch, monkeypatch):
    # P is a column and Q a row; a broadcasting evaluator handed them gets the
    # same windows, to the bit, as one handed the full meshgrids
    if batch is not None:
        monkeypatch.setattr(grids, "_SAMPLE_BATCH", batch)
    grid = SpacetimeGrid({"a": [0.1, 0.3, 0.5], "b": [-1.0, 0.0, 1.0, 2.0]})
    seen = []

    def evaluator(point, P, Q):
        a, b = point
        c = 0.5 * a * np.cos(Q) * b
        return 0.5 * np.pi * np.cos(P + Q) - a * np.sin(Q) - b * np.sin(c + P) * np.sinc(c / np.pi)

    def sparse(point, P, Q):
        seen.append((P, Q))
        return evaluator(point, P, Q)

    def full(point, P, Q):
        return evaluator(point, *np.broadcast_arrays(P, Q))

    got = GriddedFourierField.sample(grid, sparse, 5, 0.3, torus_n=12)
    want = GriddedFourierField.sample(grid, full, 5, 0.3, torus_n=12)
    assert got.values.tobytes() == want.values.tobytes()
    mesh = torus_nodes(12)
    for P, Q in seen:
        assert P.shape == (12, 1) and Q.shape == (1, 12)
        assert all(np.array_equal(x, y) for x, y in zip(np.broadcast_arrays(P, Q), mesh))


def test_sample_rejects_a_result_that_does_not_broadcast_and_a_negative_band():
    grid = SpacetimeGrid({"a": [0.0, 0.3, 0.6], "b": [-1.0, 0.0, 1.0, 2.0]})
    both = re.escape("shape (3, 4)") + ".*" + re.escape("(12, 16, 16)")
    with pytest.raises(ValueError, match=both):
        GriddedFourierField.sample(grid, lambda pt, P, Q: np.ones((3, 4)), 3, 0.1, torus_n=16)
    with pytest.raises(ValueError, match="band_limit must be >= 0"):
        GriddedFourierField.sample(grid, lambda pt, P, Q: np.cos(P), -1, 0.1, torus_n=16)


def test_map_values_recomputes_band():
    grid = SpacetimeGrid({"w": [0.0, 1.0]})
    gf = GriddedFourierField(
        grid, dense(grid, [FourierField.basis(3, 0), FourierField.basis(1, 1)], 3), hbar=0.1
    )
    cut = gf.map_values(lambda f: f.restrict(1))
    assert cut.band_limit == 1
    assert cut.values.shape == (2, 3, 3)
    assert cut.node((0,)).size == 0
    assert cut.node((1,)).coeff(1, 1) == 1.0
    assert cut.hbar == 0.1
