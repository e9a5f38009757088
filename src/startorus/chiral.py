r"""Finite-rank chiral fields obtained by folding the deformed wave solution.

At the matched deformation hbar = 2 pi / n the torus solution folds to an
anti-hermitian n x n field: vartheta(w, z) is chi_n of the solution's mode
expansion (`_expansion_row`), whose modes (+-1, +-l) carry the Bessel
integrals

    I_ell(x) = int_0^x J_ell(t) dt,   x = z * sigma,   sigma = (n/pi) sin(pi/n),

besides pi/4 on (+-1, +-1) and the w term on (0, +-1).  So the field is
affine in w, and at each z it keeps the orders l below max(L(x), P), where
P is the fold period and L(x) the first order past |x| + 2 whose integral
is bounded below 1e-13 / 4 (`_kept_orders`).
The field solves vartheta_ww + vartheta_zz + [vartheta_w, vartheta_z] = 0
and encodes a principally embedded chiral model whose n -> infinity limit
recovers the torus solution at quadratic rate in 1/n.

The expansion and its Bessel numerics live in `master_equation`, next to
the solution they expand (`ClosedFormSolution.windows`): every Bessel value
comes from one recurrence there, `_bessel_table`, and the integrals I_ell
are reverse cumulative sums over every other order of it
(`_bessel_integrals`).  A batch of points is one vectorised pass, so
callers pass all their points at once for speed, as the chiral field does
with all z of a grid; a point's field is the same to the bit alone or in
any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .fourier import FourierField
from .grids import SpacetimeGrid
from .master_equation import (
    ClosedFormSolution,
    ResidualReport,
    _bessel_integrals,
    _bessel_table,
    _expansion_row,
    _finite_points,
    _i_bound,
    _report,
    freq_factor,
)
from .numerics import checked_grid, grid_diff, grid_diff2
from .projection import MatrixField, _fold, matched_hbar

__all__ = [
    "bessel_integral",
    "ChiralModel",
    "chiral_model",
    "ExpansionResult",
    "fourier_expansion_theta",
    "residual_chiral",
    "chiral_system_check",
    "ConvergenceReport",
    "convergence_study",
    "BesselIdentityReport",
    "bessel_identity_check",
]


@lru_cache(maxsize=1 << 14)
def bessel_integral(ell: int, x: float) -> float:
    """I_ell(x) = int_0^x J_ell(t) dt, one column of `_bessel_integrals`."""
    if x == 0.0:
        return 0.0
    return float(_bessel_integrals(ell, x)[ell])


# The explicit even/odd Bessel families this field replaced dropped every
# I_l(x) with 4 _i_bound(l, x) below this, and the field keeps that cut-off
# to the bit, so that verify-chiral's recorded figures stay put.  Deleting it
# waits on re-recording the benchmark's verify-chiral reference.
_CUT_OFF = 1e-13


def _kept_orders(n: int, x: np.ndarray) -> np.ndarray:
    """How many orders l = 0, 1, ... of the expansion the rank-n field keeps
    at each point of x: max(L(x), P), with P the fold period (n for even n,
    2n for odd n) and L(x) the least integer l > |x| + 2 with
    4 _i_bound(l, x) < _CUT_OFF.  It raises once L(x) passes 301 P, where
    the explicit families (the oracle in tests/test_chiral.py) give up on
    their 301 terms l = e, e + P, ..., e + 300 P, 0 <= e < P."""
    period = n if n % 2 == 0 else 2 * n
    limit = 301 * period
    ax, back = np.unique(np.abs(x), return_inverse=True)
    kept = np.empty(ax.size, dtype=np.int64)
    for i, a in enumerate(ax.tolist()):
        ell = math.floor(a + 2.0) + 1
        while ell <= limit and not 4.0 * _i_bound(ell, a) < _CUT_OFF:
            ell += 1
        if ell > limit:
            raise ValueError(f"no Bessel cut-off below order {limit} at x = {a!r}")
        kept[i] = max(ell, period)
    return kept[back].reshape(np.shape(x))


@dataclass
class ExpansionResult:
    """Torus-mode expansion of the deformed solution at fixed (w, z)."""

    field: FourierField
    tail_bound: float
    band_limit: int
    hbar: float
    w: float
    z: float


def fourier_expansion_theta(hbar: float, w: float, z: float, band_limit: int) -> ExpansionResult:
    """Mode expansion with Bessel-integral coefficients (`ClosedFormSolution.windows`);
    modes beyond band_limit in the second slot are dropped and bounded in
    the reported tail."""
    sol = ClosedFormSolution(hbar)
    field = FourierField.from_window(sol.windows(w, z, band_limit))
    x = z * sol.s
    tail = sum(2.0 * _i_bound(ell, x) / sol.s for ell in range(band_limit + 1, band_limit + 81))
    return ExpansionResult(
        field=field, tail_bound=float(tail), band_limit=band_limit,
        hbar=sol.hbar, w=float(w), z=float(z),
    )


@dataclass
class ChiralModel:
    """The rank-n chiral field: chi_n of the solution's mode expansion at
    hbar = 2 pi / n.  At each z, with x = z sigma, it keeps the orders
    l < max(L(x), P) of the modes (+-1, +-l) (`_kept_orders`).

    w_mat is chi_n of the w term on the modes (0, +-1), so the field is
    affine in w with slope w_mat."""

    n: int
    sigma: float
    w_mat: np.ndarray

    def field_matrix(self, w, z) -> np.ndarray:
        """The field at w and z broadcast together, shape (...) + (n, n).

        The z part is folded once at shape z.shape + (n, n) from the flat
        (node, mode, coefficient) rows of the modes (+-1, +-l), l below each
        node's cut-off, and pi/4 on (+-1, +-1); the w term is then added by
        broadcasting."""
        z = _finite_points(z)
        kept = _kept_orders(self.n, z.ravel() * self.sigma)
        row = _expansion_row(matched_hbar(self.n), z.ravel(), int(kept.max(initial=2)) - 1)
        node, ell = np.nonzero(np.arange(row.shape[1]) < kept[:, None])
        coeff, pos, every = row[node, ell], ell > 0, np.arange(z.size)
        # rows (1, l), (1, -l) with one coefficient and pi/4 on (1, 1), then
        # their mirrors (-1, -m2) with the conjugates
        node = np.concatenate([node, node[pos], every])
        m2 = np.concatenate([ell, -ell[pos], np.ones_like(every)])
        coeff = np.concatenate([coeff, coeff[pos], np.full(z.size, np.pi / 4.0)])
        modes = np.stack([np.repeat([1, -1], m2.size), np.concatenate([m2, -m2])], axis=1)
        zpart = _fold(np.tile(node, 2), modes, np.concatenate([coeff, coeff.conj()]), z.size, self.n)
        zpart = zpart.reshape(z.shape + (self.n, self.n))
        return zpart + np.asarray(w, dtype=np.float64)[..., None, None] * self.w_mat

    def matrix_field(self, grid: SpacetimeGrid) -> MatrixField:
        checked_grid(grid, ("w", "z"), nodes=2)
        values = self.field_matrix(grid.axis("w")[:, None], grid.axis("z")[None, :])
        return MatrixField(grid, values, self.n)


def chiral_model(n: int) -> ChiralModel:
    sigma = freq_factor(matched_hbar(n))
    w_term = np.array([0.5j, -0.5j])
    w_mat = _fold(np.zeros(2, dtype=np.int64), np.array([[0, 1], [0, -1]]), w_term, 1, n)[0]
    return ChiralModel(n=n, sigma=sigma, w_mat=w_mat)


def _frobenius(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(block) ** 2, axis=(-2, -1)))


# complex entries per w-slab of the stencil kernels' input (512 KB)
_SLAB = 1 << 15


def _per_w_slab(v: np.ndarray, halo: int, kernel: Callable) -> list:
    """The per-node arrays of a stencil kernel over the nodes of v at least
    `halo` rows and columns inside its edges, taken slab by slab along w.

    kernel maps a view v[a : b + 2 halo] to arrays over its own inner nodes,
    output rows a..b-1, and the slabs' arrays are joined along w.  Every
    node sees the same operations in the same order as on the whole of v,
    so the results are bit-identical to kernel(v), and the temporaries hold
    O(_SLAB) entries, not O(v.size)."""
    rows = max(1, _SLAB // v[0].size)
    starts = range(0, v.shape[0] - 2 * halo, rows)
    parts = [kernel(v[a : a + rows + 2 * halo]) for a in starts]
    return [np.concatenate(slabs) for slabs in zip(*parts)]


def residual_chiral(field: MatrixField) -> ResidualReport:
    """Residual of vartheta_ww + vartheta_zz + [vartheta_w, vartheta_z].

    Frobenius norm per interior node; the deformation value tied to the
    rank, 2 pi / n, is recorded in the report.  The stencils run per w-slab
    (`_per_w_slab`), so the memory used beyond the field is one slab's
    temporaries plus the per-node norms, and every figure is bit-identical
    to the same expression taken over the whole grid at once.
    """
    grid = checked_grid(field.grid, ("w", "z"))

    def kernel(v):
        dw = grid_diff(v, grid, "w")
        dz = grid_diff(v, grid, "z")
        res = grid_diff2(v, grid, "w") + grid_diff2(v, grid, "z") + dw @ dz - dz @ dw
        return (_frobenius(res),)

    (per_point,) = _per_w_slab(field.values, 1, kernel)
    return _report(per_point, grid.steps, matched_hbar(field.n_dim), "chiral")


@dataclass
class SystemCheckReport:
    curvature_sup: float
    divergence_sup: float
    steps: dict


def chiral_system_check(field: MatrixField) -> SystemCheckReport:
    """First-order reformulation residuals.

    With A_w = -vartheta_z and A_z = vartheta_w the second-order equation
    splits into a zero-curvature part d_w A_z - d_z A_w + [A_w, A_z] and a
    divergence part d_w A_w + d_z A_z; both are differenced centrally.  Like
    `residual_chiral` the stencils run per w-slab, here with a two-row halo,
    so the memory used beyond the field is O(one slab) and both sups are
    bit-identical to the whole-grid expressions.
    """
    grid = checked_grid(field.grid, ("w", "z"), nodes=5)

    def kernel(v):
        a_w = -grid_diff(v, grid, "z")
        a_z = grid_diff(v, grid, "w")
        aw_c = a_w[1:-1, 1:-1]
        az_c = a_z[1:-1, 1:-1]
        curv = grid_diff(a_z, grid, "w") - grid_diff(a_w, grid, "z") + aw_c @ az_c - az_c @ aw_c
        div = grid_diff(a_w, grid, "w") + grid_diff(a_z, grid, "z")
        return _frobenius(curv), _frobenius(div)

    curv, div = _per_w_slab(field.values, 2, kernel)
    return SystemCheckReport(
        curvature_sup=float(np.max(curv)),
        divergence_sup=float(np.max(div)),
        steps=grid.steps,
    )


@dataclass
class ConvergenceReport:
    n_values: list
    distances: list
    exponent: float

    @property
    def monotone(self) -> bool:
        return all(a > b for a, b in zip(self.distances, self.distances[1:]))

    def to_dict(self) -> dict:
        return {
            "n_values": [int(n) for n in self.n_values],
            "distances": [float(d) for d in self.distances],
            "exponent": self.exponent,
            "monotone": self.monotone,
        }


def convergence_study(
    n_values: Sequence[int],
    points: Optional[Sequence] = None,
    band_limit: int = 40,
    hbar_ref: float = 1e-8,
) -> ConvergenceReport:
    """Distance from the matched-deformation expansion to its limit.

    For each rank n the expansions at hbar = 2 pi / n and at hbar_ref are
    compared on the modes inside the fundamental window [0, n)^2; the
    largest gap over the sample points is d(n), and the log-log slope of
    d(n) gives the observed rate (quadratic for this family).
    """
    if points is None:
        points = [(0.0, 0.5), (0.3, 0.9), (-0.2, 1.3)]
    n_values = sorted(int(n) for n in n_values)
    if any(n < 2 for n in n_values) or len(n_values) < 2:
        raise ValueError("need at least two ranks, all >= 2")
    repeated = [n for n, nxt in zip(n_values, n_values[1:]) if n == nxt]
    if repeated:
        raise ValueError(f"rank {repeated[0]} is repeated; the fit needs distinct ranks")
    if band_limit < max(n_values):
        raise ValueError("band_limit must cover the largest window")
    z = np.asarray(points, dtype=np.float64)[:, 1]
    hbars = np.array([matched_hbar(n) for n in n_values] + [hbar_ref])
    # inside the window [0, n)^2 the two expansions differ only on the modes
    # (1, 0..n-1): the w term on (0, 1) and pi/4 on (1, 1) do not depend on hbar
    rows = _expansion_row(hbars[:, None], z, band_limit)
    gaps = np.abs(rows[:-1] - rows[-1])
    distances = [float(gap[:, :n].max()) for n, gap in zip(n_values, gaps)]
    slope = np.polyfit(np.log(n_values), np.log(distances), 1)[0]
    return ConvergenceReport(
        n_values=list(n_values), distances=distances, exponent=float(-slope)
    )


@dataclass
class BesselIdentityReport:
    """Deviations of two printed Bessel resummations against a dense grid.

    The second identity holds as printed; the first only holds in its
    standard normalization 2 sum_{k>=0} (-1)^k J_{2k+1}(x) = sin x, and the
    as-printed variant is kept for the record.
    """

    printed_first_dev: float
    standard_first_dev: float
    second_dev: float
    zeta_max: float
    terms: int

    @property
    def first_identity_form(self) -> str:
        return "standard" if self.standard_first_dev < 1e-10 else "printed"

    def to_dict(self) -> dict:
        return {
            "printed_first_dev": self.printed_first_dev,
            "standard_first_dev": self.standard_first_dev,
            "second_dev": self.second_dev,
            "first_identity_form": self.first_identity_form,
            "zeta_max": self.zeta_max,
            "terms": self.terms,
        }


# zeta nodes of bessel_identity_check on [0, zeta_max]
_BESSEL_SAMPLES = 401


def bessel_identity_check(zeta_max: float = 4.0, terms: int = 40) -> BesselIdentityReport:
    if not (np.isfinite(zeta_max) and zeta_max > 0) or terms < 5:
        raise ValueError("need a finite zeta_max > 0 and terms >= 5")
    zeta = np.linspace(0.0, zeta_max, _BESSEL_SAMPLES)
    table = _bessel_table(2 * terms + 1, zeta)
    signs = (-1.0) ** np.arange(terms + 1)
    odd_sum = signs @ table[1::2]  # sum_k (-1)^k J_{2k+1}, k = 0..terms
    odd_from_one = odd_sum - table[1]
    even_sum = table[0] + 2.0 * (signs[1:] @ table[2::2])
    printed = float(np.max(np.abs(odd_from_one - np.sinc(zeta / np.pi))))
    standard = float(np.max(np.abs(2.0 * odd_sum - np.sin(zeta))))
    second = float(np.max(np.abs(even_sum - np.cos(zeta))))
    return BesselIdentityReport(
        printed_first_dev=printed,
        standard_first_dev=standard,
        second_dev=second,
        zeta_max=zeta_max,
        terms=terms,
    )
