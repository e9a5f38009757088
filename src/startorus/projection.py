r"""Projection of torus mode fields onto the finite matrix algebra.

chi_n sends the mode E_m to the window matrix sign(m) * L_{m mod n} and
drops every mode with m = 0 modulo n in both slots.  At the matched
deformation value hbar = 2 pi / n it intertwines the mode bracket with the
matrix commutator:

    chi_n({f, g}_{2 pi / n}) = [chi_n f, chi_n g].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierField, moyal_bracket
from .grids import GriddedFourierField, SpacetimeGrid
from .sine_basis import _monomial, fold_mode

__all__ = [
    "matched_hbar",
    "chi_project",
    "chi_project_gridded",
    "MatrixField",
    "commutator_defect",
]


def matched_hbar(n: int) -> float:
    """Deformation value 2 pi / n at which folding respects brackets."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2.0 * np.pi / n


def _bin(node, modes, coeffs, count: int, n: int) -> np.ndarray:
    """The [0, n)^2 windows, shape (count, n, n), of `count` fields given as
    flat rows (node, mode, coefficient): each coefficient times its fold sign
    summed at its mode's window representative mu (`fold_mode`), (0, 0) dropped."""
    (mu1, mu2), sign = fold_mode(n, modes[:, 0], modes[:, 1])
    window = np.zeros((count, n, n), dtype=np.complex128)
    np.add.at(window, (node, mu1, mu2), sign * coeffs)
    window[:, 0, 0] = 0.0
    return window


def _window_matrices(window: np.ndarray, n: int, rows=None) -> np.ndarray:
    """sum_mu window[..., mu] L_mu, shape window.shape[:-2] + (n, n), for
    windows holding the rows mu1 in `rows` (all n by default): the sum over
    mu1 of the monomial values, whose column col[mu2, k] follows from mu2 alone."""
    rows = np.arange(n) if rows is None else np.asarray(rows)
    col, val = _monomial(n, rows[:, None], np.arange(n))
    out = np.zeros(window.shape[:-2] + (n, n), dtype=np.complex128)
    out[..., np.arange(n), col] = np.einsum("...ab,abk->...bk", window, val)
    return out


def _fold(node, modes, coeffs, count: int, n: int) -> np.ndarray:
    """chi_n of `count` fields given as flat rows (node, mode, coefficient):
    their windows (`_bin`) as matrices (`_window_matrices`)."""
    return _window_matrices(_bin(node, modes, coeffs, count, n), n)


def chi_project(field: FourierField, n: int) -> np.ndarray:
    """Fold a mode field into an n x n matrix.

    Modes congruent to (0, 0) mod n are annihilated; every other mode m
    lands on its window representative with the periodicity sign.
    """
    return _fold(np.zeros(field.size, dtype=np.int64), field.modes, field.coeffs, 1, n)[0]


@dataclass
class MatrixField:
    """Matrix-valued samples over a spacetime grid.

    values has shape grid.shape + (n_dim, n_dim).
    """

    grid: SpacetimeGrid
    values: np.ndarray
    n_dim: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        expected = self.grid.shape + (self.n_dim, self.n_dim)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match {expected}"
            )

    def anti_hermitian_defect(self) -> float:
        """sup-norm of values + values^dagger over the grid."""
        swap = self.values.conj().swapaxes(-1, -2)
        return float(np.max(np.abs(self.values + swap))) if self.values.size else 0.0

    def trace_defect(self) -> float:
        tr = np.trace(self.values, axis1=-2, axis2=-1)
        return float(np.max(np.abs(tr))) if tr.size else 0.0


# how far a gridded field's hbar may sit from 2 pi / n for chi_project_gridded
_HBAR_TOL = 1e-12


def chi_project_gridded(field: GriddedFourierField, n: int) -> MatrixField:
    """Fold every node of a gridded mode field at the matched hbar.

    Refuses fields whose deformation value is not 2 pi / n, since folding
    only commutes with the bracket at the matched value.
    """
    target = matched_hbar(n)
    if abs(field.hbar - target) > _HBAR_TOL:
        raise ValueError(
            f"gridded field carries hbar={field.hbar!r}, expected 2*pi/{n}={target!r}"
        )
    side = field.values.shape[-1]
    modes = np.indices((side, side)).reshape(2, -1).T - field.band_limit
    coeffs = field.values.reshape(-1, side * side)
    node, k = np.nonzero(coeffs)
    out = _fold(node, modes[k], coeffs[node, k], len(coeffs), n)
    return MatrixField(field.grid, out.reshape(field.grid.shape + (n, n)), n)


def commutator_defect(f: FourierField, g: FourierField, n: int) -> float:
    """Max-abs entry of chi_n({f, g}_{2 pi/n}) - [chi_n f, chi_n g]."""
    hbar = matched_hbar(n)
    lhs = chi_project(moyal_bracket(f, g, hbar), n)
    pf = chi_project(f, n)
    pg = chi_project(g, n)
    rhs = pf @ pg - pg @ pf
    return float(np.max(np.abs(lhs - rhs)))
