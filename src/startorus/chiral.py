r"""Finite-rank chiral fields obtained by folding the deformed wave solution.

At the matched deformation hbar = 2 pi / n the torus solution folds to an
anti-hermitian n x n field: vartheta(w, z) is chi_n of the solution's mode
expansion (`_expansion_row`), whose modes (+-1, +-l) carry the Bessel
integrals

    I_ell(x) = int_0^x J_ell(t) dt,   x = z * sigma,   sigma = (n/pi) sin(pi/n),

besides pi/4 on (+-1, +-1) and the w term on (0, +-1).  So the field is
affine in w, and at each z it keeps the orders l below max(L(x), P), where
P is the fold period and L(x) the first order past |x| + 2 whose integral
`_i_bound` bounds below 1e-13 / 4 (`_kept_orders`).  The fold sends (1, l)
to window row 1 and (-1, l) to row n - 1, where the z part is summed a
block of n orders at a time (`ChiralModel._z_windows`).
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

The residual vartheta_ww + vartheta_zz + [vartheta_w, vartheta_z] is taken
in two ways.  `residual_chiral` and `chiral_system_check` take any
`MatrixField`: centred stencils on the n x n values, the commutator as
matrix products, and the Frobenius norm of each node's matrix; they are the
generic oracles.  `ChiralModel.residual` and `ChiralModel.system_check` take
the model's own field on its window coefficients a_mu(w, z), mu in [0, n)^2,
of which only the rows mu1 = 0, 1, n - 1 are occupied: the stencils are
linear, so they run on the coefficients; the commutator comes from the
structure constants [L_mu, L_nu] = (n/pi) sin(pi mu x nu / n) L_(mu+nu)
(Fairlie, Fletcher and Zachos, Phys. Lett. B 218 (1989) 203) with the fold
signs; and the norm from trace-orthogonality: every L_mu is monomial with n
entries of modulus n / 2 pi and distinct mu are orthogonal, so
|sum_mu a_mu L_mu|_F = sqrt(n) (n / 2 pi) |a|_2.  Each node then holds O(n)
values, not n^2.  The rows split by variable (row 0 holds only w, rows 1
and n - 1 only z), so the equation depends on z alone and is taken on one
strip of w rows (`ChiralModel._on_windows`).  The two paths agree to rounding.
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
from .projection import MatrixField, _window_matrices, matched_hbar
from .sine_basis import fold_mode

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
    their 301 terms l = e, e + P, ..., e + 300 P, 0 <= e < P.

    L(x) is bisected between floor(|x| + 2) and min(ceil(e^2 |x| / 2) + 42,
    301 P + 1): past |x| + 2 the bound more than halves per order, and as
    lgamma(l + 2) >= (l + 1) (log(l + 1) - 1) it is below 2 e^-43 at the top."""
    period = n if n % 2 == 0 else 2 * n
    limit = 301 * period
    ax, back = np.unique(np.abs(x), return_inverse=True)
    with np.errstate(over="ignore"):  # an infinite bound is not below; an infinite e^2 |x| is clipped
        lo = np.floor(np.minimum(ax, limit) + 2.0).astype(np.int64)
        hi = np.minimum(np.ceil(math.e**2 * ax / 2.0) + 42.0, limit + 1).astype(np.int64)
        while (open_ := np.flatnonzero(hi - lo > 1)).size:
            mid = (lo[open_] + hi[open_]) // 2
            below = 4.0 * _i_bound(mid, ax[open_]) < _CUT_OFF
            lo[open_], hi[open_] = np.where(below, lo[open_], mid), np.where(below, mid, hi[open_])
    if (hi > limit).any():
        raise ValueError(f"no Bessel cut-off below order {limit} at x = {float(ax[hi > limit][0])!r}")
    return np.maximum(hi, period)[back].reshape(np.shape(x))


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
    tail = np.sum(2.0 * _i_bound(np.arange(band_limit + 1, band_limit + 81), z * sol.s) / sol.s)
    return ExpansionResult(
        field=field, tail_bound=float(tail), band_limit=band_limit,
        hbar=sol.hbar, w=float(w), z=float(z),
    )


@dataclass
class ChiralModel:
    """The rank-n chiral field: chi_n of the solution's mode expansion at
    hbar = 2 pi / n.  At each z, with x = z sigma, it keeps the orders
    l < max(L(x), P) of the modes (+-1, +-l) (`_kept_orders`).

    Its [0, n)^2 window coefficients occupy the rows mu1 in `rows` only: the
    w term on (0, +-1) sits in row 0 (w_window), the z part in rows 1 and
    n - 1, summed there from the fold's closed form (`_z_windows`).  So the
    field is affine in w with slope w_mat, and `residual` and `system_check`
    take the equation on those rows, with no n x n matrix."""

    n: int
    sigma: float
    rows: tuple
    w_window: np.ndarray

    @property
    def w_mat(self) -> np.ndarray:
        return _window_matrices(self.w_window, self.n, self.rows)

    def _z_windows(self, z) -> np.ndarray:
        """The z part's window rows at every z, shape z.shape + (len(rows), n).

        fold_mode takes (1, m2) to (1, m2 mod n) with sign +1 and (-1, m2) to
        (n - 1, m2 mod n) with sign (-1)^(mu2 + 1), so each row sums blocks of
        n orders of `_expansion_row`, 0 past a node's cut-off.  Row 1 adds, a
        block at a time from 0, the modes (1, l), then (1, -l), l > 0, then
        pi/4 on (1, 1); then row n - 1 (row 1 again at n = 2) their mirrors
        (-1, -l), (-1, l), (-1, -1), of coefficients sign conj(c).  That map
        flips signs only, so it is taken on the sum, in place, rounded the same."""
        z = _finite_points(z)
        n, col = self.n, np.arange(self.n)
        kept = _kept_orders(n, z.ravel() * self.sigma)
        width = int(kept.max(initial=2))
        blocks, live = -(-width // n), np.arange(width) < kept[:, None]
        orders = np.zeros((z.size, blocks * n), dtype=np.complex128)
        np.copyto(orders[:, :width], _expansion_row(matched_hbar(n), z.ravel(), width - 1), where=live)
        orders = orders.reshape(z.size, blocks, n).swapaxes(0, 1)
        lead = orders[0, :, 0].copy()
        orders[0, :, 0] = 0.0  # the modes (1, -l) and (-1, l) start at l = 1
        neg, sign = -col % n, (-1.0) ** (col + 1)
        window = np.zeros((z.size, len(self.rows), n), dtype=np.complex128)
        mirror = lambda v: np.multiply(np.conjugate(v, out=v), sign, out=v)  # noqa: E731
        for mu1, image, cols in ((1, lambda v: v, (col, neg)), (n - 1, mirror, (neg, col))):
            acc = image(window[:, self.rows.index(mu1)])  # a view: each row is summed in place
            acc[:, 0] += lead
            for c in cols:
                for block in orders[..., c]:
                    acc += block
            acc[:, mu1] += np.pi / 4.0
            np.add(image(acc), 0.0, out=acc)  # no -0.0, as if added from 0
        return window.reshape(z.shape + window.shape[1:])

    def field_matrix(self, w, z) -> np.ndarray:
        """The field at w and z broadcast together, shape (...) + (n, n): the
        z part's windows as matrices, taken once at shape z.shape + (n, n),
        plus w w_mat by broadcasting."""
        zpart = _window_matrices(self._z_windows(z), self.n, self.rows)
        return zpart + np.asarray(w, dtype=np.float64)[..., None, None] * self.w_mat

    def matrix_field(self, grid: SpacetimeGrid) -> MatrixField:
        checked_grid(grid, ("w", "z"), nodes=2)
        values = self.field_matrix(grid.axis("w")[:, None], grid.axis("z")[None, :])
        return MatrixField(grid, values, self.n)

    def _on_windows(self, grid: SpacetimeGrid, halo: int, equations) -> list:
        """The kernel equations(grid, add_commutator, norm) over the field's
        window coefficients on the first 2 halo + 1 w rows of grid, its one
        output row repeated over every interior w row.  That is exact: row 0
        holds only w w_window and rows 1, n - 1 only z, so the z rows' w- and
        row 0's z-differences are 0, and row 0's w-differences are the same
        on every row of a dyadic w axis (w_window's entries are +-i/2 or i),
        and on any other to the axis' rounding."""
        rows, n = self.rows, self.n
        kernel = equations(
            grid,
            lambda acc, a, b: _add_commutator(acc, a, b, rows, n),
            lambda c: _window_norm(c, n),
        )
        w = grid.axis("w")[: 2 * halo + 1, None, None, None]
        strip = kernel(self._z_windows(grid.axis("z")) + w * self.w_window)
        return [np.repeat(row, grid.shape[0] - 2 * halo, axis=0) for row in strip]

    def residual(self, grid: SpacetimeGrid) -> ResidualReport:
        """`residual_chiral` of the field on grid, taken on its window rows:
        the stencils on the coefficients, the commutator from the structure
        constants (`_add_commutator`) and the Frobenius norm from
        trace-orthogonality (`_window_norm`).  Each node holds O(n) values, and
        one strip of three w rows holds every w row's residual (`_on_windows`)."""
        grid = checked_grid(grid, ("w", "z"))
        (per_point,) = self._on_windows(grid, 1, _residual_kernel)
        return _report(per_point, grid.steps, matched_hbar(self.n), "chiral")

    def system_check(self, grid: SpacetimeGrid) -> "SystemCheckReport":
        """`chiral_system_check` of the field on grid, on its window rows and
        one strip of five w rows (`_on_windows`)."""
        grid = checked_grid(grid, ("w", "z"), nodes=5)
        curv, div = self._on_windows(grid, 2, _system_kernel)
        return _system_report(curv, div, grid.steps)


def chiral_model(n: int) -> ChiralModel:
    sigma = freq_factor(matched_hbar(n))
    rows = tuple(sorted({0, 1, n - 1}))
    w_window = np.zeros((len(rows), n), dtype=np.complex128)
    (_, mu2), sign = fold_mode(n, 0, np.array([1, -1]))  # the w term on (0, +-1)
    np.add.at(w_window[0], mu2, sign * np.array([0.5j, -0.5j]))
    return ChiralModel(n=n, sigma=sigma, rows=rows, w_window=w_window)


def _frobenius(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(block) ** 2, axis=(-2, -1)))


def _window_norm(window: np.ndarray, n: int) -> np.ndarray:
    """Frobenius norm of sum_mu window[..., mu] L_mu over the last two axes.
    Each L_mu is monomial with n entries of modulus n / 2 pi, and distinct mu
    in [0, n)^2 are trace-orthogonal, so the norm is sqrt(n) (n / 2 pi) |window|_2."""
    return (math.sqrt(n) * n / (2.0 * np.pi)) * _frobenius(window)


def _add_commutator(acc, a, b, rows, n: int) -> np.ndarray:
    """acc + [sum_mu a_mu L_mu, sum_nu b_nu L_nu] on window rows, added into
    acc in place: all three of shape (..., len(rows), n) over the window rows
    mu1 in `rows`, acc of the full broadcast shape.

    [L_mu, L_nu] = (n/pi) sin(pi mu x nu / n) L_(mu+nu), with mu + nu folded
    into [0, n)^2 with its sign (`fold_mode`), and the (0, 0) part, which
    only rounding makes nonzero, is dropped.  The terms run over the entries
    (mu1, mu2) at which a is nonzero at some node, each against every row of
    b nonzero at some node (the operands swapped, with the sign, when b has
    fewer entries): one row of b, weighted and shifted along mu2, batched
    over the nodes.  So the work per node is O(n) per (entry, row) pair and
    no n x n matrix is formed.  A term off the rows in `rows` raises."""
    rows = np.asarray(rows)
    entries = [np.argwhere(x.reshape((-1,) + x.shape[-2:]).any(axis=0)) for x in (a, b)]
    sign = 1.0
    if len(entries[1]) < len(entries[0]):
        a, b, sign = b, a, -1.0
        entries.reverse()
    slot = np.full(n, -1)
    slot[rows] = np.arange(rows.size)
    trace = acc[..., slot[0], 0].copy() if slot[0] >= 0 else None
    nu2, rows_b = np.arange(n), np.unique(entries[1][:, 0])
    for i, mu2 in entries[0]:
        for j in rows_b:
            (row, _), fold = fold_mode(n, rows[i] + rows[j], mu2 + nu2)
            if slot[row] < 0:
                raise ValueError(f"a commutator term lands on window row {row}, outside {rows.tolist()}")
            cross = (rows[i] * nu2 - mu2 * rows[j]) % (2 * n)
            weight = (sign * n / np.pi) * np.sin(np.pi * cross / n) * fold
            term = a[..., i, mu2, None] * (weight * b[..., j, :])
            # term[..., nu2] lands at column mu2 + nu2, wrapping at nu2 = n - mu2
            acc[..., slot[row], mu2:] += term[..., : n - mu2]
            acc[..., slot[row], :mu2] += term[..., n - mu2 :]
    if trace is not None:
        acc[..., slot[0], 0] = trace
    return acc


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


# The equation's stencil kernels, over matrices (per `_per_w_slab` slab) or
# window coefficients (on one w strip) alike: add_commutator(acc, a, b) is
# acc + [a, b], norm the per-node Frobenius norm of the values.


def _residual_kernel(grid, add_commutator, norm):
    """Per-node norm of v_ww + v_zz + [v_w, v_z]; halo 1."""

    def kernel(v):
        dw = grid_diff(v, grid, "w")
        dz = grid_diff(v, grid, "z")
        return (norm(add_commutator(grid_diff2(v, grid, "w") + grid_diff2(v, grid, "z"), dw, dz)),)

    return kernel


def _system_kernel(grid, add_commutator, norm):
    """Per-node norms of the first-order system's curvature and divergence
    (`chiral_system_check`); halo 2."""

    def kernel(v):
        a_w = -grid_diff(v, grid, "z")
        a_z = grid_diff(v, grid, "w")
        aw_c = a_w[1:-1, 1:-1]
        az_c = a_z[1:-1, 1:-1]
        curv = add_commutator(grid_diff(a_z, grid, "w") - grid_diff(a_w, grid, "z"), aw_c, az_c)
        div = grid_diff(a_w, grid, "w") + grid_diff(a_z, grid, "z")
        return norm(curv), norm(div)

    return kernel


def _add_matrix_commutator(acc, a, b):
    return acc + a @ b - b @ a


def residual_chiral(field: MatrixField) -> ResidualReport:
    """Residual of vartheta_ww + vartheta_zz + [vartheta_w, vartheta_z].

    Frobenius norm per interior node; the deformation value tied to the
    rank, 2 pi / n, is recorded in the report.  The stencils run per w-slab
    (`_per_w_slab`), so the memory used beyond the field is one slab's
    temporaries plus the per-node norms, and every figure is bit-identical
    to the same expression taken over the whole grid at once.  This is the
    generic oracle on any matrix field; `ChiralModel.residual` takes the
    model's field on its window coefficients.
    """
    grid = checked_grid(field.grid, ("w", "z"))
    kernel = _residual_kernel(grid, _add_matrix_commutator, _frobenius)
    (per_point,) = _per_w_slab(field.values, 1, kernel)
    return _report(per_point, grid.steps, matched_hbar(field.n_dim), "chiral")


@dataclass
class SystemCheckReport:
    curvature_sup: float
    divergence_sup: float
    steps: dict


def _system_report(curv, div, steps) -> SystemCheckReport:
    return SystemCheckReport(
        curvature_sup=float(np.max(curv)), divergence_sup=float(np.max(div)), steps=steps
    )


def chiral_system_check(field: MatrixField) -> SystemCheckReport:
    """First-order reformulation residuals.

    With A_w = -vartheta_z and A_z = vartheta_w the second-order equation
    splits into a zero-curvature part d_w A_z - d_z A_w + [A_w, A_z] and a
    divergence part d_w A_w + d_z A_z; both are differenced centrally.  Like
    `residual_chiral` the stencils run per w-slab, here with a two-row halo,
    so the memory used beyond the field is O(one slab) and both sups are
    bit-identical to the whole-grid expressions.  The generic oracle;
    `ChiralModel.system_check` takes the model's field on its windows.
    """
    grid = checked_grid(field.grid, ("w", "z"), nodes=5)
    kernel = _system_kernel(grid, _add_matrix_commutator, _frobenius)
    curv, div = _per_w_slab(field.values, 2, kernel)
    return _system_report(curv, div, grid.steps)


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
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
        raise ValueError(f"points must be one or more rows (w, z), got shape {points.shape}")
    z = points[:, 1]
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
