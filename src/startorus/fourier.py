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
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

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
# operation.  Pass prune=0.0 to keep everything.
DEFAULT_PRUNE = 1e-15


def _canonical(modes: np.ndarray, coeffs: np.ndarray, prune: float):
    """Sort modes lexicographically, merge duplicates, drop tiny entries."""
    modes = np.atleast_2d(np.asarray(modes, dtype=np.int64)).reshape(-1, 2)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if modes.shape[0] != coeffs.shape[0]:
        raise ValueError("modes and coeffs length mismatch")
    if modes.shape[0] == 0:
        return modes.reshape(0, 2), coeffs
    order = np.lexsort((modes[:, 1], modes[:, 0]))
    modes = modes[order]
    coeffs = coeffs[order]
    boundary = np.empty(modes.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = np.any(modes[1:] != modes[:-1], axis=1)
    starts = np.flatnonzero(boundary)
    merged = np.add.reduceat(coeffs, starts)
    modes = modes[starts]
    keep = np.abs(merged) > prune
    return modes[keep], merged[keep]


class FourierField:
    """Sparse coefficient table over integer torus modes.

    Modes are kept unique and lexicographically sorted on (m1, m2), which
    makes every downstream reduction order (and hence every serialized
    byte) deterministic.  Exactly representable zero coefficients are
    simply absent.
    """

    __slots__ = ("modes", "coeffs")

    def __init__(self, modes, coeffs, prune: float = DEFAULT_PRUNE):
        m, c = _canonical(modes, coeffs, prune)
        self.modes = m
        self.coeffs = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FourierField":
        return cls(np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.complex128))

    @classmethod
    def basis(cls, m1: int, m2: int, coeff: complex = 1.0) -> "FourierField":
        """The single wave E_(m1,m2) scaled by coeff."""
        return cls(np.array([[m1, m2]]), np.array([coeff]))

    @classmethod
    def from_dict(cls, table: Mapping[tuple, complex], prune: float = DEFAULT_PRUNE):
        if not table:
            return cls.zero()
        modes = np.array(list(table.keys()), dtype=np.int64)
        coeffs = np.array(list(table.values()), dtype=np.complex128)
        return cls(modes, coeffs, prune)

    @classmethod
    def from_window(cls, window, prune: float = DEFAULT_PRUNE) -> "FourierField":
        """Field of a (2R+1, 2R+1) coefficient window, window[R+m1, R+m2] = c_m."""
        side = np.shape(window)[-1]
        modes = np.indices((side, side)).reshape(2, -1).T - (side - 1) // 2
        return cls(modes, np.ravel(window), prune)

    # -- basic queries -------------------------------------------------

    @property
    def band_limit(self) -> int:
        """Smallest R with |m1| <= R and |m2| <= R for every stored mode."""
        if self.modes.shape[0] == 0:
            return 0
        return int(np.max(np.abs(self.modes)))

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

    def to_json(self) -> str:
        rows = [
            [int(m1), int(m2), float(c.real), float(c.imag)]
            for (m1, m2), c in self.items()
        ]
        return json.dumps({"band_limit": self.band_limit, "modes": rows})

    @classmethod
    def from_json(cls, text: str) -> "FourierField":
        data = json.loads(text)
        rows = data.get("modes", [])
        if not rows:
            return cls.zero()
        modes = np.array([[r[0], r[1]] for r in rows], dtype=np.int64)
        coeffs = np.array([complex(r[2], r[3]) for r in rows])
        return cls(modes, coeffs, prune=0.0)

    def __repr__(self) -> str:
        return f"FourierField({self.size} modes, band_limit={self.band_limit})"


def _pairwise(f: FourierField, g: FourierField, weight, prune: float) -> FourierField:
    """Accumulate sum_{m,n} w(m x n) f_m g_n on modes m + n.

    The outer product of the two coefficient tables is handed to
    `FourierField`, whose sort-and-merge sums terms that land on the same mode.
    """
    if f.size == 0 or g.size == 0:
        return FourierField.zero()
    cross = (
        f.modes[:, 0][:, None] * g.modes[:, 1][None, :]
        - f.modes[:, 1][:, None] * g.modes[:, 0][None, :]
    )
    out_modes = (f.modes[:, None, :] + g.modes[None, :, :]).reshape(-1, 2)
    vals = (f.coeffs[:, None] * g.coeffs[None, :] * weight(cross)).reshape(-1)
    return FourierField(out_modes, vals, prune)


def _antisymmetrized(f: FourierField, g: FourierField, weight, prune: float) -> FourierField:
    """Bracket with an odd weight as (P(f, g) - P(g, f)) / 2, P = `_pairwise`.

    P(f, g) and P(g, f) agree with the bracket and its negative only up to
    rounding, because their colliding terms merge in different orders.  Each
    is merged on its own, unpruned, so swapping f and g swaps the two tables
    exactly; the final difference, halving and prune are sign-symmetric in
    IEEE arithmetic.  The result is therefore exactly antisymmetric, and the
    f = g bracket is exactly empty.
    """
    fg = _pairwise(f, g, weight, 0.0)
    gf = _pairwise(g, f, weight, 0.0)
    return FourierField(
        np.concatenate([fg.modes, gf.modes]),
        0.5 * np.concatenate([fg.coeffs, -gf.coeffs]),
        prune,
    )


def star_product(
    f: FourierField, g: FourierField, hbar: float, prune: float = DEFAULT_PRUNE
) -> FourierField:
    """Associative deformed product with phase exp(i*hbar/2 * m x n)."""
    return _pairwise(f, g, lambda x: np.exp(0.5j * hbar * x), prune)


def moyal_bracket(
    f: FourierField, g: FourierField, hbar: float, prune: float = DEFAULT_PRUNE
) -> FourierField:
    """Deformed bracket (f*g - g*f)/(i*hbar), computed in closed form.

    Coefficient rule: (2/hbar) sin(hbar/2 * m x n) f_m g_n on mode m+n,
    antisymmetrized exactly by `_antisymmetrized`.  The closed-form weight
    avoids the cancellation of the star commutator at small hbar.
    Requires hbar > 0.
    """
    if not hbar > 0:
        raise ValueError(f"moyal_bracket requires hbar > 0, got {hbar}")
    return _antisymmetrized(f, g, lambda x: (2.0 / hbar) * np.sin(0.5 * hbar * x), prune)


def poisson_bracket(
    f: FourierField, g: FourierField, prune: float = DEFAULT_PRUNE
) -> FourierField:
    """Classical bracket, coefficient rule (m x n) f_m g_n on mode m+n,
    antisymmetrized exactly by `_antisymmetrized`."""
    return _antisymmetrized(f, g, lambda x: x.astype(np.float64), prune)


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
    for (m1, m2), c in f.items():
        spect[m1 % n, m2 % n] += c
    return np.fft.ifft2(spect) * n * n


def _fft_window(samples: np.ndarray, band_limit: int) -> np.ndarray:
    """Coefficients c_m at [..., R + m1, R + m2], |m1|, |m2| <= R = band_limit,
    of samples[..., j, k] taken at (p_j, q_k) = (2 pi j / n1, 2 pi k / n2).
    Both n1 and n2 must be at least 2R + 2 to separate the band from its aliases."""
    n1, n2 = samples.shape[-2:]
    need = 2 * band_limit + 2
    if n1 < need or n2 < need:
        raise ValueError(
            f"grid {samples.shape[-2:]} too small for band_limit {band_limit}; "
            f"need at least {need} points per axis"
        )
    rng = np.arange(-band_limit, band_limit + 1)
    spect = np.fft.fft2(samples)
    return spect[..., (rng % n1)[:, None], (rng % n2)[None, :]] / (n1 * n2)


def fft_project(
    samples: np.ndarray, band_limit: int, prune: float = DEFAULT_PRUNE
) -> FourierField:
    """Project 2d grid samples onto modes with |m1|, |m2| <= band_limit (`_fft_window`)."""
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2d array")
    return FourierField.from_window(_fft_window(samples, band_limit), prune)
