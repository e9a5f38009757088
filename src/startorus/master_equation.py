r"""Deformed second-heavenly dynamics on the torus.

The scalar field Theta(w, z; p, q) is carried as a mode field over the
torus factor and a low-degree polynomial over w.  Everything here feeds on
the bracket

    {f, g}_hbar = (2/hbar) sin(hbar/2 (m x n)) f_m g_n E_{m+n},

which degenerates to the Poisson bracket as hbar -> 0.  The governing
equation in its symmetric-slice form reads

    Theta_ww + Theta_zz + {Theta_w, Theta_z}_hbar = 0,

and in doubled coordinates (w, z, wt, zt) on a Kahler background

    Theta_yy - Theta_ytyt
      + (1/g^{wt w}) [ g^{zt z} Theta_z zt + g^{zt w} (d_y + d_yt) Theta_zt
                       + g^{wt z} (d_y - d_yt) Theta_z ]
      + (1/(G g^{wt w})) {(d_y + d_yt) Theta, d_z Theta}_hbar = 0,

with w = (y + yt)/2 and wt = (y - yt)/2, which collapses to the flat form
Theta_w wt + Theta_z zt + {Theta_w, Theta_z}_hbar on the identity metric.

The example solution, `ClosedFormSolution`, is one closed form evaluated by
one branch-free formula.  Its torus modes are Bessel integrals
I_ell(x) = int_0^x J_ell, x = z s, from Miller's recurrence in ratio form
(`_bessel_table`, `_bessel_integrals`): one vectorised pass per batch of
points, elementwise, so no point's values depend on the rest of its batch.
`ClosedFormSolution.windows` lays them out as mode windows at any (w, z),
and `chiral` folds the same rows (`_expansion_row`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional, Sequence

import numpy as np

from .fourier import (
    DEFAULT_PRUNE,
    FourierField,
    _antisymmetrized,
    _bracket_weight,
    _fft_rows,
    _trimmed,
    fft_project,
)
from .grids import GriddedFourierField, SpacetimeGrid, torus_nodes
from .numerics import SingularMetricError, checked_grid, cross_diff
from .numerics import grid_cross_diff, grid_diff, grid_diff2

__all__ = [
    "freq_factor",
    "ClosedFormSolution",
    "example_solution",
    "example_cauchy_data",
    "WPolyField",
    "SeriesSolution",
    "kowalewska_series",
    "ResidualReport",
    "residual_moyal_hp",
    "residual_me_flat",
    "KahlerBackground",
    "residual_me_kahler",
]

_SMALL_HBAR = 1e-4


def freq_factor(hbar: float) -> float:
    """s(hbar) = (2/hbar) sin(hbar/2); the hbar -> 0 limit is 1.

    Below 1e-4 the closed form loses digits to cancellation, so a short
    even series takes over there.
    """
    if not (math.isfinite(hbar) and hbar >= 0):
        raise ValueError("hbar must be finite and >= 0")
    if hbar < _SMALL_HBAR:
        h2 = hbar * hbar
        return 1.0 - h2 / 24.0 + h2 * h2 / 1920.0
    return (2.0 / hbar) * math.sin(0.5 * hbar)


def _finite_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"Bessel functions need finite arguments, got {float(x[~np.isfinite(x)][0])}")
    return x


def _bessel_table(order, x) -> np.ndarray:
    """J_0(x)..J_L(x) at every point of x, shape (L + 1,) + x.shape, where
    `order` is an integer or an integer array broadcast against x and L its
    largest value; a point's entries above its own order are 0.

    Miller's algorithm in ratio form (Gautschi, SIAM Rev. 9 (1967) 24-82):
    the ratios r_k = J_k/J_{k-1} follow r_k = 1/(2k/|x| - r_{k+1}) (DLMF
    10.6.1) down from r = 0 past an even start N above max(order, |x|) plus
    a margin, each point from its own N.  Then J_k = J_0 r_1 ... r_k with
    J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4), summed in a fixed order.  Every
    step is elementwise, so a point's values never depend on the other
    points; no value can overflow, and x = 0 (2k/x = inf) gives J_0 = 1 and
    every other order 0 on the same path.  J_l(-x) = (-1)^l J_l(x).
    """
    x = _finite_points(x)
    ax = np.abs(x).ravel()
    rows = int(np.max(order, initial=0)) + 1
    order = np.broadcast_to(order, x.shape).ravel()
    top = np.maximum(order, np.ceil(ax))
    start = top + 20 + np.floor(np.sqrt(40.0 * top + 40.0))
    start += start % 2
    # initial=2: an empty x still has the row J_2 that the sum below reads
    k = np.arange(int(np.max(start, initial=2)) + 2)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = 2.0 * k / ax
    # 2k/|x| = inf above a point's start, like at x = 0, gives r_k = 0 there
    r[k > start] = np.inf
    r[-1] = 0.0
    row = list(r)  # views, indexed fast in the loop; each 2k/|x| becomes r_k
    for j in range(len(row) - 2, 0, -1):
        np.subtract(row[j], row[j + 1], out=row[j])
        np.reciprocal(row[j], out=row[j])
    r[0] = 1.0
    np.cumprod(r, axis=0, out=r)  # J_k / J_0
    j0 = 1.0 / (1.0 + 2.0 * np.cumsum(r[2::2], axis=0)[-1])
    out = r[:rows] * j0
    out[k[:rows] > order] = 0.0
    out[1::2, x.ravel() < 0] *= -1.0
    return out.reshape((rows,) + x.shape)


def _bessel_integrals(order: int, x) -> np.ndarray:
    """I_0(x)..I_order(x), I_l(x) = int_0^x J_l = 2 sum_k J_{l+2k+1}(x) (DLMF 10.22(i)),
    at every point of x, shape (order + 1,) + x.shape.

    Each point's table runs to its own order + 2 ceil|x| + 62, past which
    the rest is far below double precision, and is 0 above that; each I_l
    is twice a reverse cumulative sum over the orders of the other parity,
    so a point's integrals do not depend on the other points."""
    x = _finite_points(x)
    table = _bessel_table(order + 2 * np.ceil(np.abs(x)).astype(np.int64) + 62, x)
    tails = np.empty_like(table)
    for parity in (0, 1):
        tails[parity::2] = np.cumsum(table[parity::2][::-1], axis=0)[::-1]
    # the reshape keeps the shape (order + 1, 0) when x is empty
    return 2.0 * tails[1 : order + 2].reshape((order + 1,) + x.shape)


def _i_bound(ell, x) -> np.ndarray:
    """Crude but safe bound on |I_ell(x)| for truncation decisions, at ell
    and x broadcast together: |x| up to order |x| + 1 (|J_ell| <= 1), and
    past it 2 (|x|/2)^(ell+1) / (ell+1)!, as |J_ell(t)| <= (t/2)^ell / ell!,
    0 where |x|/2 underflows; one `math.lgamma` call per such entry."""
    ell, ax = np.broadcast_arrays(np.asarray(ell, dtype=np.float64), np.abs(x, dtype=np.float64))
    out = np.where(ell <= ax + 1.0, ax, 0.0)
    far = (ell > ax + 1.0) & (ax / 2.0 > 0.0)
    lgam = [math.lgamma(v) for v in (ell[far] + 2.0).tolist()]
    with np.errstate(over="ignore"):
        out[far] = np.exp((ell[far] + 1.0) * np.log(ax[far] / 2.0) - lgam + math.log(2.0))
    return out


def _expansion_row(hbar, z, band_limit: int) -> np.ndarray:
    """Bessel-integral modes c_(1, l), l = 0..band_limit, of the closed-form
    solution (its c_(1, -l) are the same and its c_(-1, +-l) their
    conjugates), broadcast over hbar and z, from one table.

    A_0 = -I_0(x)/s, A_{2m-1} = (-1)^m I_{2m-1}(x)/s,
    A_{2m} = (-1)^(m+1) I_{2m}(x)/s with x = z s; c_(1, l) is A_l/2 for
    odd l and A_l/(2i) for even l.
    """
    if band_limit < 1:
        raise ValueError("band_limit must be >= 1")
    s = np.vectorize(freq_factor, otypes=[float])(hbar)
    s, z = np.broadcast_arrays(s, np.asarray(z, dtype=np.float64))
    ell = np.arange(band_limit + 1)
    half = (ell + 1) // 2
    sign = np.where(ell % 2 == 1, (-1.0) ** half, (-1.0) ** (half + 1))
    amp = (sign / s[..., None]) * np.moveaxis(_bessel_integrals(band_limit, z * s), 0, -1)
    # odd columns 0.5 amp, even ones -0.5i amp, written into one complex array
    row = np.zeros(amp.shape, dtype=np.complex128)
    np.multiply(amp[..., 1::2], 0.5, out=row.real[..., 1::2])
    np.multiply(amp[..., ::2], -0.5, out=row.imag[..., ::2])
    return row


class ClosedFormSolution:
    """Exact deformed wave solution.

    Theta = (pi/2) cos(p+q) - w sin q + [cos(z s cos q + p) - cos p]/(s cos q)

    with s = freq_factor(hbar).  With a = z s cos q / 2 the last term is
    -z sin(a + p) sin(a)/a, and `evaluate` takes it in that form, with
    sin(a)/a = np.sinc(a/pi): one formula with no 0/0, cos q = 0 included.

    Its torus modes are known in closed form: Bessel integrals of z s on the
    modes (+-1, l) (`_expansion_row`).  `windows` lays them out as band-R
    mode windows at any (w, z), `gridded` fills a grid's windows from it,
    and `mode_field` projects sampled values by FFT: the reference the
    expansion is checked against.
    """

    def __init__(self, hbar: float):
        self.hbar = float(hbar)
        self.s = freq_factor(self.hbar)

    def evaluate(self, w, z, p, q):
        """Theta at w, z, p and q broadcast together; a float if all are scalars."""
        w, z, p, q = (np.asarray(x, dtype=np.float64) for x in (w, z, p, q))
        a = 0.5 * self.s * np.cos(q) * z
        out = 0.5 * np.pi * np.cos(p + q) - w * np.sin(q) - z * np.sin(a + p) * np.sinc(a / np.pi)
        return out if np.ndim(out) else float(out)

    def windows(self, w, z, band_limit: int) -> np.ndarray:
        """Mode windows [..., R + m1, R + m2], R = band_limit, at w and z
        broadcast together: (pi/4) (E_(1,1) + E_(-1,-1)), the w terms on
        (0, +-1) and `_expansion_row` on (+-1, +-l), from one Bessel table."""
        row = _expansion_row(self.hbar, z, band_limit)
        shape = np.broadcast_shapes(row.shape[:-1], np.shape(w))
        row = np.broadcast_to(row, shape + row.shape[-1:])
        w = np.broadcast_to(w, shape)
        r = band_limit
        cols = np.arange(r + 1)
        out = np.zeros(shape + (2 * r + 1, 2 * r + 1), dtype=np.complex128)
        for side in (r + cols, r - cols):
            out[..., r + 1, side] = row
            out[..., r - 1, side] = row.conj()
        out[..., r + 1, r + 1] += np.pi / 4.0
        out[..., r - 1, r - 1] += np.pi / 4.0
        out[..., r, r + 1] = 0.5j * w
        out[..., r, r - 1] = -0.5j * w
        return out

    def mode_field(self, w: float, z: float, band_limit: int, torus_n: int = 128) -> FourierField:
        """Torus-mode content at fixed (w, z) by FFT projection of sampled
        values: the reference the closed-form expansion is checked against."""
        pp, qq = torus_nodes(torus_n)
        samples = self.evaluate(w, z, pp, qq)
        return fft_project(np.asarray(samples, dtype=np.complex128), band_limit)

    def gridded(self, grid: SpacetimeGrid, band_limit: int) -> GriddedFourierField:
        """`windows` at every (w, z) node, with no torus sampling;
        |c| <= DEFAULT_PRUNE is zeroed, as in `GriddedFourierField.sample`, on
        the rows m1 = -1, 0, 1 that `windows` writes (the rest are 0)."""
        checked_grid(grid, ("w", "z"), nodes=2)
        values = self.windows(grid.axis("w")[:, None], grid.axis("z")[None, :], band_limit)
        written = values[..., band_limit - 1 : band_limit + 2, :]
        written[np.abs(written) <= DEFAULT_PRUNE] = 0.0
        return GriddedFourierField(grid, values, self.hbar)


def example_solution(hbar: float) -> ClosedFormSolution:
    """The reference solution at deformation hbar (0 gives the classical one)."""
    return ClosedFormSolution(hbar)


def _merged(terms) -> FourierField:
    """sum s f over the (s, f) pairs of terms in one sort-and-merge.

    Each term is taken as `s * f` takes it, complex(s) times f's
    coefficients with the entries |s c| <= DEFAULT_PRUNE dropped; the
    merge adds up each mode's entries and prunes the sums once."""
    modes, coeffs = [np.empty((0, 2), dtype=np.int64)], [np.empty(0, dtype=np.complex128)]
    for s, f in terms:
        c = f.coeffs * complex(s)
        keep = np.abs(c) > DEFAULT_PRUNE
        modes.append(f.modes[keep])
        coeffs.append(c[keep])
    return FourierField(np.concatenate(modes), np.concatenate(coeffs))


class WPolyField:
    """Polynomial in w with mode-field coefficients: sum_k w^k coeffs[k].

    Every sum of coefficients, in `at_w`, `bracket` and the series, is one
    `_merged` call per w-degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[FourierField]):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].size == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [FourierField.zero()]
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at_w(self, w: float) -> FourierField:
        return _merged((w**k, c) for k, c in enumerate(self.coeffs))

    def d_dw(self) -> "WPolyField":
        return WPolyField([float(k) * c for k, c in enumerate(self.coeffs[1:], 1)])

    def bracket(self, other: "WPolyField", hbar: float) -> "WPolyField":
        """Torus bracket (Poisson at hbar = 0), degree-wise in w."""
        weight = _bracket_weight(hbar)
        terms = [[] for _ in range(self.degree + other.degree + 1)]
        for a, ca in enumerate(self.coeffs):
            for b, cb in enumerate(other.coeffs):
                if ca.size and cb.size:
                    terms[a + b].append((1.0, _antisymmetrized(ca, cb, weight)))
        return WPolyField([_merged(t) for t in terms])

    def l2_norm(self) -> float:
        return math.sqrt(sum(c.l2_norm() ** 2 for c in self.coeffs))


def _as_wpoly(f) -> WPolyField:
    if isinstance(f, WPolyField):
        return f
    if isinstance(f, FourierField):
        return WPolyField([f])
    raise TypeError("cauchy data must be FourierField or WPolyField")


def example_cauchy_data():
    """(Theta|_{z=0}, d_z Theta|_{z=0}) of the reference solution.

    Theta0 = (pi/2) cos(p+q) - w sin q,  Theta1 = -sin p; both are
    independent of hbar.
    """
    cos_pq = FourierField.from_dict({(1, 1): 0.5, (-1, -1): 0.5})
    sin_q = FourierField.from_dict({(0, 1): -0.5j, (0, -1): 0.5j})
    sin_p = FourierField.from_dict({(1, 0): -0.5j, (-1, 0): 0.5j})
    theta0 = WPolyField([0.5 * np.pi * cos_pq, -1.0 * sin_q])
    theta1 = WPolyField([-1.0 * sin_p])
    return theta0, theta1


@dataclass
class SeriesSolution:
    """Power series in z: Theta = sum_k z^k / k! * orders[k](w; p, q)."""

    orders: list
    hbar: float

    def order_field(self, k: int, w: float) -> FourierField:
        return self.orders[k].at_w(w)

    def _weights(self, z: float) -> list:
        """z^k / k! for every order k, as the running product of z / k: it
        underflows to 0 where z^k and k! would leave the float range."""
        weights = [1.0]
        for k in range(1, len(self.orders)):
            weights.append(weights[-1] * z / k)
        return weights

    def field_at(self, w: float, z: float) -> FourierField:
        return _merged(zip(self._weights(z), (theta.at_w(w) for theta in self.orders)))

    def tail_estimate(self, w: float, z: float) -> float:
        """Magnitude of the last retained term; a heuristic truncation gauge."""
        return self._weights(abs(z))[-1] * self.orders[-1].at_w(w).l2_norm()


def kowalewska_series(theta0, theta1, hbar: float, terms: int) -> SeriesSolution:
    """Formal z-power-series solution from Cauchy data at z = 0.

    Each order is forced by the equation written as a Kowalewska system:

        Theta_k = -(d2w Theta_{k-2}
                    + sum_{j=0}^{k-2} C(k-2, j) {d_w Theta_j, Theta_{k-1-j}})

    for k >= 2, with Theta_0, Theta_1 the data: each w-degree of Theta_k is
    one `_merged` sum, negated.  terms counts the orders kept, so terms >= 2.
    """
    if terms < 2:
        raise ValueError("terms must be >= 2")
    if not (math.isfinite(hbar) and hbar >= 0):
        raise ValueError("hbar must be finite and >= 0")
    orders = [_as_wpoly(theta0), _as_wpoly(theta1)]
    d_w = [theta.d_dw() for theta in orders]  # d_w Theta_j, taken once per order
    for k in range(2, terms):
        parts = [(1.0, d_w[k - 2].d_dw())] + [
            (float(math.comb(k - 2, j)), d_w[j].bracket(orders[k - 1 - j], hbar))
            for j in range(k - 1)
            if d_w[j].degree or d_w[j].coeffs[0].size  # {0, .} = 0 adds nothing
        ]
        degree = max(p.degree for _, p in parts)
        theta = WPolyField(
            [
                -_merged((s, p.coeffs[d]) for s, p in parts if d <= p.degree)
                for d in range(degree + 1)
            ]
        )
        orders.append(theta)
        d_w.append(theta.d_dw())
    return SeriesSolution(orders=orders, hbar=hbar)


@dataclass
class ResidualReport:
    """Interior residual magnitudes of a discretized field equation."""

    sup: float
    rms: float
    steps: dict
    interior_shape: tuple
    hbar: float
    label: str = ""
    per_point: Optional[np.ndarray] = dataclass_field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "sup": self.sup,
            "rms": self.rms,
            "steps": {k: float(v) for k, v in sorted(self.steps.items())},
            "interior_shape": list(self.interior_shape),
            "hbar": self.hbar,
        }


def _report(per_point: np.ndarray, steps: dict, hbar: float, label: str) -> ResidualReport:
    return ResidualReport(
        sup=float(np.max(per_point)),
        rms=float(np.sqrt(np.mean(per_point**2))),
        steps=steps,
        interior_shape=per_point.shape,
        hbar=hbar,
        label=label,
        per_point=per_point,
    )


def _bracket_residual(field, label, first, linear, left, right, weight=1.0) -> ResidualReport:
    """Per-node l2 norm of linear + weight {left, right}_hbar, all three band-R
    mode tensors on the interior nodes held as row slabs (..., k, 2R+1) whose
    row i is m1 = first + i, and weight a scalar or per node.

    Every node's bracket is one pass P(left, right) of the FFT route's row
    kernel `fourier._fft_rows`, weighted by `fourier._bracket_weight`, with
    each operand trimmed to its own occupied rows (`fourier._trimmed`).  That
    weight is odd in m x n, so P(right, left) = -P(left, right) up to
    rounding; `moyal_bracket`'s exact antisymmetry, from a fixed operand
    order, is no use to a residual norm.  Only the m1 rows occupied by the
    bracket or the linear term are formed, so no node's band-2R window is built."""
    band = (linear.shape[-1] - 1) // 2
    (fw, f1), (gw, g1) = _trimmed(left, first), _trimmed(right, first)
    start, bracket = _fft_rows(fw, gw, _bracket_weight(field.hbar).split, f1, g1)
    linear, lin = _trimmed(linear, first)  # lin: m1 of the linear term's first row
    spans = [(a, a + k) for a, k in ((start, bracket.shape[-2]), (lin, linear.shape[-2])) if k]
    lo = min((s[0] for s in spans), default=0)
    hi = max((s[1] for s in spans), default=0)
    res = np.zeros(linear.shape[:-2] + (hi - lo, 4 * band + 1), dtype=np.complex128)
    res[..., start - lo : start - lo + bracket.shape[-2], :] = (
        np.asarray(weight)[..., None, None] * bracket
    )
    res[..., lin - lo : lin - lo + linear.shape[-2], band : 3 * band + 1] += linear
    per = np.sqrt(np.sum(np.abs(res) ** 2, axis=(-2, -1)))
    return _report(per, field.grid.steps, field.hbar, label)


def residual_moyal_hp(field: GriddedFourierField) -> ResidualReport:
    """Residual of Theta_ww + Theta_zz + {Theta_w, Theta_z}_hbar on a (w, z) grid.

    Second derivatives use the 3-point stencil, first derivatives the
    centered 2-point one; hbar = 0 falls back to the Poisson bracket.
    Per-node magnitude is the mode-space l2 norm.  The stencils and the
    bracket run on the field's occupied m1 rows only (`fourier._trimmed`).
    """
    grid = checked_grid(field.grid, ("w", "z"))
    v, first = _trimmed(field.values, -field.band_limit)
    return _bracket_residual(
        field,
        "moyal_hp",
        first,
        grid_diff2(v, grid, "w") + grid_diff2(v, grid, "z"),
        grid_diff(v, grid, "w"),
        grid_diff(v, grid, "z"),
    )


def residual_me_flat(field: GriddedFourierField) -> ResidualReport:
    """Residual of Theta_w wt + Theta_z zt + {Theta_w, Theta_z}_hbar.

    The field lives on a 4-axis grid named ('w', 'z', 'wt', 'zt').  The
    stencils and the bracket run on its occupied m1 rows only.
    """
    grid = checked_grid(field.grid, ("w", "z", "wt", "zt"))
    v, first = _trimmed(field.values, -field.band_limit)
    return _bracket_residual(
        field,
        "me_flat",
        first,
        grid_cross_diff(v, grid, "w", "wt") + grid_cross_diff(v, grid, "z", "zt"),
        grid_diff(v, grid, "w"),
        grid_diff(v, grid, "z"),
    )


# step of the potential's cross differences in KahlerBackground.metric
_FD_STEP = 1e-4
# |det| of a metric block below this aborts residual_me_kahler
_DET_TOL = 1e-10


class KahlerBackground:
    """Background data for the doubled-coordinate master equation.

    The 2x2 block g_{alpha beta~} (rows w, z; columns wt, zt) comes either
    from a closed-form metric_fn(point) or by differencing a potential
    K(w, z, wt, zt).  volume(point) supplies the scalar G weighting the
    bracket term; it defaults to 1.  A point is a tuple (w, z, wt, zt) of
    coordinate arrays that broadcast together, as for `sample`'s evaluator:
    each callable is called once for all the nodes, and metric_fn returns a
    nested 2x2 block whose entries are floats or such arrays.
    """

    def __init__(
        self,
        potential: Optional[Callable] = None,
        metric_fn: Optional[Callable] = None,
        volume: Optional[Callable] = None,
    ):
        if potential is None and metric_fn is None:
            raise ValueError("need a potential or a closed-form metric")
        self.potential = potential
        self.metric_fn = metric_fn
        self.volume = volume if volume is not None else (lambda point: 1.0)

    @classmethod
    def flat(cls) -> "KahlerBackground":
        """Identity block from K = w wt + z zt, registered in closed form."""
        return cls(
            potential=lambda pt: pt[0] * pt[2] + pt[1] * pt[3],
            metric_fn=lambda pt: np.eye(2),
        )

    def metric(self, point) -> np.ndarray:
        """The blocks (...) + (2, 2) at points of shape (...), read entry by
        entry from one metric_fn call or from 16 calls of the potential."""
        block = self.metric_fn(point) if self.metric_fn is not None else [
            [cross_diff(self.potential, point, a, b, _FD_STEP) for b in (2, 3)] for a in (0, 1)
        ]
        m = np.empty(np.broadcast_shapes(*map(np.shape, point)) + (2, 2))
        for a, b in np.ndindex(2, 2):
            m[..., a, b] = block[a][b]
        return m


def residual_me_kahler(
    field: GriddedFourierField,
    background: KahlerBackground,
) -> ResidualReport:
    """Residual of the doubled master equation on a Kahler background.

    The field lives on axes ('y', 'yt', 'z', 'zt'); the background metric
    and volume are read once, on all interior nodes at (w, z, wt, zt) with
    w = (y + yt)/2 and wt = (y - yt)/2.  A metric block with |det| below
    _DET_TOL aborts with the first such node's location in C order.  The
    stencils, their metric weights and the bracket run on the field's
    occupied m1 rows only.
    """
    grid = checked_grid(field.grid, ("y", "yt", "z", "zt"))
    v, first = _trimmed(field.values, -field.band_limit)
    y, yt, z, zt = np.meshgrid(*(a[1:-1] for a in grid.axes), indexing="ij")
    w_pt = (0.5 * (y + yt), z, 0.5 * (y - yt), zt)
    metric = background.metric(w_pt)
    det = np.linalg.det(metric)
    bad = np.flatnonzero(np.abs(det) < _DET_TOL)
    if bad.size:  # the first degenerate node in C order
        k = bad[0]
        where = tuple(float(c.flat[k]) for c in w_pt)
        raise SingularMetricError(f"metric block degenerate (det={float(det.flat[k])!r})", where)
    vol = np.broadcast_to(np.asarray(background.volume(w_pt), dtype=np.float64), y.shape)
    ginv = np.moveaxis(np.linalg.inv(metric), (-2, -1), (0, 1))[..., None, None]
    (g_wtw, g_wtz), (g_ztw, g_ztz) = ginv  # per node, broadcast over the mode rows

    def cross(a, b):
        return grid_cross_diff(v, grid, a, b)

    linear = (grid_diff2(v, grid, "y") - grid_diff2(v, grid, "yt")) + (1.0 / g_wtw) * (
        g_ztz * cross("z", "zt")
        + g_ztw * (cross("y", "zt") + cross("yt", "zt"))
        + g_wtz * (cross("y", "z") - cross("yt", "z"))
    )
    return _bracket_residual(
        field,
        "me_kahler",
        first,
        linear,
        grid_diff(v, grid, "y") + grid_diff(v, grid, "yt"),
        grid_diff(v, grid, "z"),
        1.0 / (vol * g_wtw[..., 0, 0]),
    )
