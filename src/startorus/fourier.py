"""Mode-space algebra of trigonometric functions on the 2-torus.

A field is a finite sum  f = sum_m c_m E_m  with  E_m = exp(i(m1*x1 + m2*x2))
and integer mode vectors m = (m1, m2).  On this basis the star product and
its bracket close exactly:

    E_m * E_n = exp(i*hbar/2 * (m x n)) * E_{m+n},      m x n = m1*n2 - m2*n1
    {E_m, E_n}_hbar = (2/hbar) sin(hbar/2 * (m x n)) * E_{m+n}
    {E_m, E_n}_P = (m x n) * E_{m+n}                    (hbar -> 0 limit)

so all operations here are carried out on coefficients, with no truncation
beyond pruning of numerically-zero entries.  The Poisson rule above is the
one induced by the bracket's classical limit; as a bidifferential operator
it reads {f,g} = f_{x2} g_{x1} - f_{x1} g_{x2}.

The three products share one pairwise sum, `_pairwise`, with two routes
chosen from the operands alone:

* sparse: all |f| |g| terms, merged by mode.  Exact term by term; single
  modes and E_0 * f give bit-exact results.
* FFT: in the mixed representation (rows over m1, FFT over m2) the weight
  splits as sum u(m1 n2) v(m2 n1), so every row pair is a 1d convolution,
  (2Rf+1)(2Rg+1)(2(Rf+Rg)+1) work up to the log for bands Rf, Rg.  Its
  round-off is relative to the largest result coefficient (about 1e-15 of it
  at R ~ 30), not to each coefficient, and it may leave noise of that size
  on modes where the sparse route gives exact zeros.

The FFT route is taken when |f| |g| exceeds its work estimate, i.e. for
operands that nearly fill their bands.  A bracket is one pass of either
route, with its operands in a fixed order (`_antisymmetrized`), so it is
exactly antisymmetric.  Modes are bounded, |m1|, |m2| <= 2**30.

The FFT route's row kernel, `_fft_rows`, works on dense coefficient row
slabs (..., k, 2R+1), each with the m1 of its first row, or on full windows
(..., 2R+1, 2R+1), with any leading batch axes.  The gridded residuals of
`master_equation` run their stencils on the field's occupied m1 rows and
hand it each operand trimmed to its own occupied rows (`_trimmed`), taking
every node's bracket in one pass, weighted by `_bracket_weight` in the
equation's operand order (a residual norm needs no exact antisymmetry).  It
transforms only those rows and returns only the occupied output rows.  Its
row-FFT blocks and their temporaries hold at most _FFT_BATCH complex entries
counted over the batch axes (16 MB).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_PRUNE",
    "FourierField",
    "star_product",
    "moyal_bracket",
    "poisson_bracket",
    "eval_on_torus",
    "sample_on_grid",
    "fft_project",
]

# Coefficients with magnitude <= DEFAULT_PRUNE are dropped after every
# operation; `FourierField(...)` and `from_window` keep every entry at prune=0.0.
DEFAULT_PRUNE = 1e-15

# Every mode has |m1|, |m2| <= _MODE_BOUND, so the sum m + n and the cross
# product m x n of two modes never overflow int64.
_MODE_BOUND = 1 << 30


def _mode_error(mode) -> ValueError:
    return ValueError(f"mode {tuple(mode)} outside |m1|, |m2| <= 2**30")


def _int64_modes(modes: np.ndarray) -> np.ndarray:
    """int64 copy of (k, 2) float or object modes, such as Python ints past
    int64, once each mode is found integral and within the bound.  Clipping
    first keeps an int past the float range from overflowing the cast."""
    vals = modes.clip(-(2.0**31), 2.0**31).astype(np.float64)
    bad = np.flatnonzero((vals != np.floor(vals)).any(axis=1))  # NaN too
    if bad.size:
        raise ValueError(f"mode {tuple(modes[bad[0]].tolist())} is not integral")
    bad = np.flatnonzero((np.abs(vals) > _MODE_BOUND).any(axis=1))
    if bad.size:
        raise _mode_error(modes[bad[0]].tolist())
    return vals.astype(np.int64)


def _canonical(modes: np.ndarray, coeffs: np.ndarray, prune: float):
    """Sort modes lexicographically, merge duplicates, drop tiny entries."""
    modes = np.atleast_2d(np.asarray(modes)).reshape(-1, 2)
    if modes.dtype != np.int64:
        modes = _int64_modes(modes)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if modes.shape[0] != coeffs.shape[0]:
        raise ValueError("modes and coeffs length mismatch")
    if modes.size and (modes.max() > _MODE_BOUND or modes.min() < -_MODE_BOUND):
        outside = (modes > _MODE_BOUND) | (modes < -_MODE_BOUND)
        raise _mode_error(modes[np.flatnonzero(outside.any(axis=1))[0]].tolist())
    bad = ~np.isfinite(coeffs)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise ValueError(f"non-finite coefficient {coeffs[k]} at mode {tuple(modes[k].tolist())}")
    if modes.shape[0] == 0:
        return modes.reshape(0, 2), coeffs
    # modes already strictly increasing skip the sort and merge, whose
    # one-entry sums would return each coefficient as it is (-0.0 included)
    m1, m2 = modes[:, 0], modes[:, 1]
    if not ((m1[1:] > m1[:-1]) | ((m1[1:] == m1[:-1]) & (m2[1:] > m2[:-1]))).all():
        order = np.lexsort((m2, m1))
        modes = modes[order]
        coeffs = coeffs[order]
        boundary = np.empty(modes.shape[0], dtype=bool)
        boundary[0] = True
        boundary[1:] = np.any(modes[1:] != modes[:-1], axis=1)
        starts = np.flatnonzero(boundary)
        coeffs = np.add.reduceat(coeffs, starts)
        modes = modes[starts]
    keep = np.abs(coeffs) > prune
    return modes[keep], coeffs[keep]


class FourierField:
    """Sparse coefficient table over integer torus modes.

    Modes are kept unique and lexicographically sorted on (m1, m2), which
    makes every downstream reduction order (and hence every serialized
    byte) deterministic.  Exactly representable zero coefficients are
    simply absent.  `band_limit`, the smallest R with |m1| <= R and
    |m2| <= R for every stored mode, is found once, when the field is built.
    """

    __slots__ = ("modes", "coeffs", "band_limit")

    def __init__(self, modes, coeffs, prune: float = DEFAULT_PRUNE):
        m, c = _canonical(modes, coeffs, prune)
        self.modes = m
        self.coeffs = c
        self.band_limit = int(np.abs(m).max(initial=0))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FourierField":
        return cls(np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.complex128))

    @classmethod
    def basis(cls, m1: int, m2: int, coeff: complex = 1.0) -> "FourierField":
        """The single wave E_(m1,m2) scaled by coeff."""
        return cls(np.array([[m1, m2]]), np.array([coeff]))

    @classmethod
    def from_dict(cls, table: Mapping[tuple, complex]):
        if not table:
            return cls.zero()
        modes = np.array(list(table.keys()))
        coeffs = np.array(list(table.values()), dtype=np.complex128)
        return cls(modes, coeffs)

    @classmethod
    def from_window(cls, window, prune: float = DEFAULT_PRUNE) -> "FourierField":
        """Field of a (2R+1, 2R+1) coefficient window, window[R+m1, R+m2] = c_m."""
        shape = np.shape(window)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 == 0:
            raise ValueError(f"window shape {shape} is not (2R+1, 2R+1)")
        side = shape[0]
        modes = np.indices((side, side)).reshape(2, -1).T - (side - 1) // 2
        return cls(modes, np.ravel(window), prune)

    # -- basic queries -------------------------------------------------

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    def coeff(self, m1: int, m2: int) -> complex:
        hit = np.flatnonzero((self.modes[:, 0] == m1) & (self.modes[:, 1] == m2))
        if hit.size == 0:
            return 0.0 + 0.0j
        return complex(self.coeffs[hit[0]])

    def items(self) -> Iterable[tuple]:
        for (m1, m2), c in zip(self.modes, self.coeffs):
            yield (int(m1), int(m2)), complex(c)

    def to_dict(self) -> dict:
        return {k: v for k, v in self.items()}

    def l2_norm(self) -> float:
        """Torus L2 norm, sqrt(sum |c_m|^2), by Parseval up to (2 pi)."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def sup_bound(self) -> float:
        """Upper bound sum |c_m| on the pointwise magnitude."""
        return float(np.sum(np.abs(self.coeffs)))

    def max_abs_coeff(self) -> float:
        if self.size == 0:
            return 0.0
        return float(np.max(np.abs(self.coeffs)))

    def is_real(self, tol: float = 1e-12) -> bool:
        """True if the field is conjugate symmetric, c_{-m} = conj(c_m)."""
        diff = self - self.conjugate()
        return diff.max_abs_coeff() <= tol

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "FourierField") -> "FourierField":
        return FourierField(
            np.concatenate([self.modes, other.modes]),
            np.concatenate([self.coeffs, other.coeffs]),
        )

    def __sub__(self, other: "FourierField") -> "FourierField":
        return FourierField(
            np.concatenate([self.modes, other.modes]),
            np.concatenate([self.coeffs, -other.coeffs]),
        )

    def __neg__(self) -> "FourierField":
        return FourierField(self.modes, -self.coeffs, prune=0.0)

    def __mul__(self, scalar) -> "FourierField":
        return FourierField(self.modes, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def conjugate(self) -> "FourierField":
        return FourierField(-self.modes, np.conj(self.coeffs), prune=0.0)

    def derivative(self, axis: int) -> "FourierField":
        """d/dx1 (axis=0) or d/dx2 (axis=1); multiplies c_m by i*m_axis."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        return FourierField(self.modes, self.coeffs * (1j * self.modes[:, axis]))

    def window(self, band_limit: int) -> np.ndarray:
        """Dense (2R+1, 2R+1) coefficients with [R+m1, R+m2] = c_m, R = band_limit."""
        if self.band_limit > band_limit:
            raise ValueError(f"stored mode outside band_limit {band_limit}")
        out = np.zeros((2 * band_limit + 1, 2 * band_limit + 1), dtype=np.complex128)
        out[self.modes[:, 0] + band_limit, self.modes[:, 1] + band_limit] = self.coeffs
        return out

    def restrict(self, band_limit: int) -> "FourierField":
        keep = np.all(np.abs(self.modes) <= band_limit, axis=1)
        return FourierField(self.modes[keep], self.coeffs[keep], prune=0.0)

    # -- serialization ---------------------------------------------------

    def payload(self) -> dict:
        """`{"band_limit": R, "modes": [[m1, m2, re, im], ...]}` in sorted mode
        order, of plain ints and floats: the decoded form of `to_json`."""
        m1, m2 = self.modes.T.tolist()
        rows = list(map(list, zip(m1, m2, self.coeffs.real.tolist(), self.coeffs.imag.tolist())))
        return {"band_limit": self.band_limit, "modes": rows}

    def to_json(self) -> str:
        """`payload` as JSON text."""
        return json.dumps(self.payload())

    @classmethod
    def from_payload(cls, data) -> "FourierField":
        """Field of `{"modes": [[m1, m2, re, im], ...]}` with integral m1, m2."""
        rows = data.get("modes") if isinstance(data, dict) else None
        if not isinstance(rows, list):
            raise ValueError("a mode payload must be an object holding a 'modes' list")
        for row in rows:
            if not isinstance(row, list) or len(row) != 4 or any(
                isinstance(x, bool) or not isinstance(x, (int, float)) for x in row
            ):
                raise ValueError(f"mode row {row!r} is not four numbers [m1, m2, re, im]")
            if not all(isinstance(m, int) or m.is_integer() for m in row[:2]):
                raise ValueError(f"mode row {row!r} has a non-integral mode")
            if any(abs(m) > _MODE_BOUND for m in row[:2]):
                raise _mode_error(row[:2])
            # compared exactly, so an int past the float range is not cast
            if not all(abs(c) <= sys.float_info.max for c in row[2:]):
                raise ValueError(f"mode row {row!r} has a non-finite coefficient")
        table = np.array(rows, dtype=np.float64).reshape(-1, 4)
        # each (re, im) pair read as one complex keeps its bits, -0.0 included
        coeffs = table[:, 2:].copy().view(np.complex128).ravel()
        return cls(table[:, :2].astype(np.int64), coeffs, prune=0.0)

    @classmethod
    def from_json(cls, text: str) -> "FourierField":
        """`from_payload` of the decoded JSON text."""
        return cls.from_payload(json.loads(text))

    def __repr__(self) -> str:
        return f"FourierField({self.size} modes, band_limit={self.band_limit})"


class _Weight(NamedTuple):
    """A product's coefficient weight w(m x n) in the two forms its routes use.

    `closed` maps the cross products m x n to w itself (sparse route).  `split`
    holds pairs (u, v) with w(m x n) = sum u(m1 n2) v(m2 n1), the form that
    lets the FFT kernel weight whole rows (FFT route).
    """

    closed: Callable
    split: tuple


def _star_weight(hbar: float) -> _Weight:
    def phase(x):
        return np.exp(0.5j * hbar * x)

    return _Weight(phase, ((phase, lambda y: phase(-y)),))


def _moyal_weight(hbar: float) -> _Weight:
    def sine(x):
        return (2.0 / hbar) * np.sin(0.5 * hbar * x)

    # sin(a - b) = sin a cos b - cos a sin b keeps the closed-form sine, so
    # the split has no star-commutator cancellation at small hbar
    return _Weight(
        sine,
        (
            (sine, lambda y: np.cos(0.5 * hbar * y)),
            (lambda x: (2.0 / hbar) * np.cos(0.5 * hbar * x), lambda y: -np.sin(0.5 * hbar * y)),
        ),
    )


def _as_float(x):
    return x.astype(np.float64)


_POISSON_WEIGHT = _Weight(
    _as_float, ((_as_float, np.ones_like), (np.ones_like, lambda y: -_as_float(y)))
)


def _bracket_weight(hbar: float) -> _Weight:
    """The bracket's weight: Poisson at hbar = 0, its classical limit, else Moyal."""
    if not (math.isfinite(hbar) and hbar >= 0):
        raise ValueError(f"the bracket requires a finite hbar >= 0, got {hbar}")
    return _POISSON_WEIGHT if hbar == 0 else _moyal_weight(hbar)


# complex entries per temporary of the FFT route (16 MB)
_FFT_BATCH = 1 << 20


def _fft_length(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n; a large prime length is slow."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _sparse_pairwise(f: FourierField, g: FourierField, closed, prune: float) -> FourierField:
    """Sparse route: the outer product of the two coefficient tables, summed
    on modes m + n by `FourierField`'s sort-and-merge."""
    cross = (
        f.modes[:, 0][:, None] * g.modes[:, 1][None, :]
        - f.modes[:, 1][:, None] * g.modes[:, 0][None, :]
    )
    out_modes = (f.modes[:, None, :] + g.modes[None, :, :]).reshape(-1, 2)
    vals = (f.coeffs[:, None] * g.coeffs[None, :] * closed(cross)).reshape(-1)
    return FourierField(out_modes, vals, prune)


def _occupied_rows(windows: np.ndarray) -> slice:
    """Smallest range of m1 rows (second-to-last axis) holding every nonzero
    entry of the windows, over all leading axes; empty if there is none."""
    flat = windows.reshape((math.prod(windows.shape[:-2]),) + windows.shape[-2:])
    rows = np.flatnonzero(flat.any(axis=0).any(axis=1))
    return slice(int(rows[0]), int(rows[-1]) + 1) if rows.size else slice(0, 0)


def _trimmed(slab: np.ndarray, first: int):
    """(slab on its occupied rows, the m1 of the first of them) for a row
    slab (..., k, 2R+1) whose row i holds m1 = first + i (`_occupied_rows`)."""
    rows = _occupied_rows(slab)
    return slab[..., rows, :], first + rows.start


def _fft_rows(fw: np.ndarray, gw: np.ndarray, split, f1: int = None, g1: int = None):
    """Row kernel of the FFT route: sum_{m,n} w(m x n) f_m g_n on modes m + n
    for every slab pair at once, in the mixed representation (rows over m1,
    transform over m2).

    fw (..., kf, 2Rf+1) and gw (..., kg, 2Rg+1) are row slabs that share
    their leading batch axes: fw[..., i, Rf + m2] holds c_m on m1 = f1 + i,
    and likewise gw from g1.  Every row of a slab is transformed, so callers
    pass each operand trimmed to the rows occupied in some slab of it
    (`_trimmed`, or rows read off a field's modes).  Without f1 (g1) the
    operand is a full centred window, rows m1 = -Rf..Rf, and is trimmed here.
    For w = sum u(m1 n2) v(m2 n1), a row pair (m1, n1) adds to output row
    m1 + n1 the convolution along the second mode axis of f[m1, .] v(. n1)
    with g[n1, .] u(m1 .).  Each is a product of two zero-padded FFTs of a
    2*3*5-smooth length >= 2(Rf + Rg) + 1; products are summed per output row
    and inverted once per row, O(Rf Rg (Rf + Rg) log) per slab pair.  The row
    blocks and their temporaries hold at most _FFT_BATCH entries counted over
    the batch axes, or one row pair of one slab pair; a batch too large for
    one block is split, which leaves each slab pair's arithmetic, and so its
    result, unchanged.

    Returns (first, out): out[..., k, c] is the coefficient on mode
    (first + k, c - Rf - Rg), over the occupied output rows only.
    """
    rf, rg = (fw.shape[-1] - 1) // 2, (gw.shape[-1] - 1) // 2
    batch = fw.shape[:-2]
    side = 2 * (rf + rg) + 1
    if f1 is None:
        fw, f1 = _trimmed(fw, -rf)
    if g1 is None:
        gw, g1 = _trimmed(gw, -rg)
    nf, ng = fw.shape[-2], gw.shape[-2]
    if nf == 0 or ng == 0:
        return f1 + g1, np.zeros(batch + (0, side), dtype=np.complex128)
    fw = fw.reshape((-1,) + fw.shape[-2:])
    gw = gw.reshape((-1,) + gw.shape[-2:])
    m1, n1 = np.arange(f1, f1 + nf), np.arange(g1, g1 + ng)
    m2, n2 = np.arange(-rf, rf + 1), np.arange(-rg, rg + 1)
    length = _fft_length(side)
    cols = min(ng, max(1, _FFT_BATCH // length))  # g rows per block
    rows = max(1, _FFT_BATCH // (cols * length))  # f rows per block
    nodes = max(1, _FFT_BATCH // (min(rows, nf) * cols * length))  # slabs per block
    acc = np.zeros((len(fw), nf + ng - 1, length), dtype=np.complex128)
    for u, v in split:
        fv = v(np.multiply.outer(n1, m2))  # [n1, m2]
        gu = u(np.multiply.outer(m1, n2))  # [m1, n2]
        for b in range(0, len(fw), nodes):
            at = slice(b, b + nodes)
            out = acc[at]
            for i in range(0, nf, rows):
                for j in range(0, ng, cols):
                    fi, gj = slice(i, i + rows), slice(j, j + cols)
                    part = np.fft.fft(fw[at, fi, None] * fv[gj], length)
                    part *= np.fft.fft(gw[at, None, gj] * gu[fi, None], length)
                    for k in range(part.shape[1]):
                        out[:, i + j + k : i + j + k + part.shape[2]] += part[:, k]
    return f1 + g1, np.fft.ifft(acc)[..., :side].reshape(batch + (nf + ng - 1, side))


def _mode_slab(f: FourierField, band_limit: int):
    """(slab, first): f's window rows from its first to its last m1, scattered
    from its sorted, nonzero modes into a (rows, 2R+1) slab, and that first m1."""
    first = int(f.modes[0, 0])
    slab = np.zeros((int(f.modes[-1, 0]) - first + 1, 2 * band_limit + 1), dtype=np.complex128)
    slab[f.modes[:, 0] - first, f.modes[:, 1] + band_limit] = f.coeffs
    return slab, first


def _fft_pairwise(f: FourierField, g: FourierField, split, prune: float) -> FourierField:
    """FFT route: `_fft_rows` on the row slabs of nonempty f and g, with no
    batch axes; their occupied rows come from the modes, not a scan."""
    rf, rg = f.band_limit, g.band_limit
    (fw, f1), (gw, g1) = _mode_slab(f, rf), _mode_slab(g, rg)
    first, out = _fft_rows(fw, gw, split, f1, g1)
    modes = np.indices(out.shape).reshape(2, -1).T + (first, -rf - rg)
    return FourierField(modes, out.ravel(), prune)


def _pairwise(f: FourierField, g: FourierField, weight: _Weight, prune: float) -> FourierField:
    """Accumulate sum_{m,n} w(m x n) f_m g_n on modes m + n.

    Takes the FFT route when it does less work than the sparse route's
    |f| |g| terms, i.e. when the operands nearly fill their bands.
    """
    if f.size == 0 or g.size == 0:
        return FourierField.zero()
    rf, rg = f.band_limit, g.band_limit
    if f.size * g.size > (2 * rf + 1) * (2 * rg + 1) * (2 * (rf + rg) + 1):
        return _fft_pairwise(f, g, weight.split, prune)
    return _sparse_pairwise(f, g, weight.closed, prune)


def _antisymmetrized(f: FourierField, g: FourierField, weight: _Weight) -> FourierField:
    """Bracket with an odd weight in one pass of P = `_pairwise`.

    P(f, g) and -P(g, f) agree only up to rounding: their colliding terms
    merge in different orders.  So the operands go in the order of their
    (modes, coeffs) bytes: P(f, g) if f comes first, else 0 - P(g, f), which
    is exact and leaves no -0.0.  The prune is sign-symmetric, so the result
    is exactly antisymmetric; value-equal operands give the empty field.
    """
    if np.array_equal(f.modes, g.modes) and np.array_equal(f.coeffs, g.coeffs):
        return FourierField.zero()
    if (f.modes.tobytes(), f.coeffs.tobytes()) < (g.modes.tobytes(), g.coeffs.tobytes()):
        return _pairwise(f, g, weight, DEFAULT_PRUNE)
    gf = _pairwise(g, f, weight, DEFAULT_PRUNE)
    return FourierField(gf.modes, 0.0 - gf.coeffs, prune=0.0)


def star_product(f: FourierField, g: FourierField, hbar: float) -> FourierField:
    """Associative deformed product with phase exp(i*hbar/2 * m x n).
    Requires a finite hbar."""
    if not math.isfinite(hbar):
        raise ValueError(f"star_product requires a finite hbar, got {hbar}")
    return _pairwise(f, g, _star_weight(hbar), DEFAULT_PRUNE)


def moyal_bracket(f: FourierField, g: FourierField, hbar: float) -> FourierField:
    """Deformed bracket (f*g - g*f)/(i*hbar), computed in closed form.

    Coefficient rule: (2/hbar) sin(hbar/2 * m x n) f_m g_n on mode m+n, one
    exactly antisymmetric pass (`_antisymmetrized`).  The closed-form weight
    avoids the cancellation of the star commutator at small hbar.
    Requires a finite hbar > 0.
    """
    if not (hbar > 0 and math.isfinite(hbar)):
        raise ValueError(f"moyal_bracket requires a finite hbar > 0, got {hbar}")
    return _antisymmetrized(f, g, _moyal_weight(hbar))


def poisson_bracket(f: FourierField, g: FourierField) -> FourierField:
    """Classical bracket, coefficient rule (m x n) f_m g_n on mode m+n, one
    exactly antisymmetric pass (`_antisymmetrized`)."""
    return _antisymmetrized(f, g, _POISSON_WEIGHT)


def eval_on_torus(f: FourierField, p, q):
    """Evaluate f at angles (p, q); p and q broadcast like numpy arrays."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    out = np.zeros(np.broadcast(p, q).shape, dtype=np.complex128)
    for (m1, m2), c in f.items():
        out += c * np.exp(1j * (m1 * p + m2 * q))
    if out.shape == ():
        return complex(out)
    return out


def sample_on_grid(f: FourierField, n: int) -> np.ndarray:
    """Values of f on the uniform n x n grid  (p_j, q_k) = 2 pi (j, k)/n.

    Needs n > 2*band_limit so that distinct modes stay distinct under the
    FFT index wrap.
    """
    if n <= 2 * f.band_limit:
        raise ValueError(f"grid size {n} aliases band_limit {f.band_limit}")
    spect = np.zeros((n, n), dtype=np.complex128)
    np.add.at(spect, (f.modes[:, 0] % n, f.modes[:, 1] % n), f.coeffs)
    return np.fft.ifft2(spect) * n * n


def _fft_window(samples: np.ndarray, band_limit: int) -> np.ndarray:
    """Coefficients c_m at [..., R + m1, R + m2], |m1|, |m2| <= R = band_limit,
    of samples[..., j, k] taken at (p_j, q_k) = (2 pi j / n1, 2 pi k / n2).
    Both n1 and n2 must be at least 2R + 2 to separate the band from its aliases.

    Real samples take one real FFT on q, cut to m2 = 0..R, then an FFT on p;
    c_(-m) is written as conj(c_m), so their windows are exactly Hermitian.
    Complex samples are window(real part) + 1j window(imaginary part)."""
    n1, n2 = samples.shape[-2:]
    need = 2 * band_limit + 2
    if n1 < need or n2 < need:
        raise ValueError(
            f"grid {samples.shape[-2:]} too small for band_limit {band_limit}; "
            f"need at least {need} points per axis"
        )
    if np.iscomplexobj(samples):
        return _fft_window(samples.real, band_limit) + 1j * _fft_window(samples.imag, band_limit)
    r = band_limit
    half = np.fft.rfft(samples.astype(np.float64, copy=False), axis=-1)[..., : r + 1]
    half = np.fft.fft(half, axis=-2)[..., np.arange(-r, r + 1) % n1, :] / (n1 * n2)
    out = np.empty(half.shape[:-1] + (2 * r + 1,), dtype=np.complex128)
    out[..., r:] = half  # m2 = 0..R
    np.conjugate(half[..., ::-1, :0:-1], out=out[..., :r])  # m2 = -R..-1
    np.conjugate(half[..., :r:-1, 0], out=out[..., :r, r])  # m2 = 0, m1 = -R..-1
    out.imag[..., r, r] = 0.0  # c_0, which a Bluestein FFT (n1 = 89, 101, ...) leaves complex
    return out


def fft_project(samples: np.ndarray, band_limit: int) -> FourierField:
    """Project 2d grid samples onto modes with |m1|, |m2| <= band_limit (`_fft_window`)."""
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2d array")
    return FourierField.from_window(_fft_window(samples, band_limit))
