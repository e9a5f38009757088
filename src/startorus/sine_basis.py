r"""Trigonometric basis of sl(N, C) from clock and shift matrices.

With w = exp(2 pi i / N) and the fixed branch omega = sqrt(w) = exp(i pi / N),

    S = omega * diag(1, w, ..., w^(N-1)),          T = cyclic shift, T[N-1,0] = -1,
    L_m = (i N / 2 pi) * omega^(m1 m2) * S^m1 T^m2,

so that T S = w S T and S^N = T^N = -1.  Each L_m is monomial, kept row by row
as its column and entry: L_m[k, (k + m2) mod N] = (i N / 2 pi) omega^e with
e = m1 m2 + m1 (2k + 1) + N floor((k + m2) / N), read from the 2N roots omega^j.

The family is N^2-periodic in m up to signs and closes under products,

    L_m L_n = (i N / 2 pi) exp(i pi (n x m)/N) L_{m+n},   n x m = n1 m2 - n2 m1,

which gives the commutators [L_mu, L_nu] = (N/pi) sin(pi/N mu x nu) L_{mu+nu}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "clock_matrix",
    "shift_matrix",
    "basis_matrix",
    "fold_mode",
    "fundamental_window",
    "structure_constant",
    "verify_basis_properties",
    "BasisPropertyReport",
    "su_n_basis",
    "SuNBasisElement",
    "matrix_to_json",
    "matrix_from_json",
]


def clock_matrix(n: int) -> np.ndarray:
    """S = exp(i pi/n) * diag(1, w, ..., w^(n-1)), w = exp(2 pi i/n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    k = np.arange(n)
    return np.exp(1j * np.pi / n) * np.diag(np.exp(2j * np.pi * k / n))


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic shift with a -1 in the wrap-around corner, so T^n = -1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    t = np.zeros((n, n), dtype=np.complex128)
    t[np.arange(n - 1), np.arange(1, n)] = 1.0
    t[n - 1, 0] = -1.0
    return t


def _monomial(n: int, m1, m2):
    """(col, val) with L_m[k, col[..., k]] = val[..., k]; m1, m2 may be int arrays."""
    if n < 2:
        raise ValueError("n must be >= 2")
    m1, m2 = (np.asarray(m, dtype=np.int64)[..., None] for m in (m1, m2))
    wrap, col = np.divmod(np.arange(n) + m2, n)
    expo = (m1 * m2 + m1 * (2 * np.arange(n) + 1) + n * wrap) % (2 * n)
    return col, (1j * n / (2.0 * np.pi)) * np.exp(1j * np.pi * np.arange(2 * n) / n)[expo]


def basis_matrix(n: int, m1: int, m2: int) -> np.ndarray:
    """L_(m1, m2) as a read-only n x n array; any integer indices are accepted."""
    col, val = _monomial(n, int(m1), int(m2))
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[np.arange(n), col] = val
    mat.setflags(write=False)
    return mat


def fold_mode(n: int, m1, m2):
    """Reduce m into the fundamental window [0, n)^2, elementwise for arrays.

    Returns ((mu1, mu2), sign) with L_m = sign * L_mu, sign = +-1 from the
    periodicity rule L_{mu + n r} = (-1)^((mu1+1) r2 + (mu2+1) r1 + n r1 r2) L_mu.
    """
    r1, mu1 = divmod(m1, n)
    r2, mu2 = divmod(m2, n)
    exponent = (mu1 + 1) * r2 + (mu2 + 1) * r1 + n * r1 * r2
    return (mu1, mu2), 1 - 2 * (exponent % 2)


def fundamental_window(n: int):
    """Lexicographic list of mu in [0, n)^2 with mu != (0, 0)."""
    return [(a, b) for a in range(n) for b in range(n) if (a, b) != (0, 0)]


def structure_constant(n: int, mu, nu) -> float:
    """(n/pi) sin(pi/n * (mu1 nu2 - mu2 nu1))."""
    cross = mu[0] * nu[1] - mu[1] * nu[0]
    return (n / np.pi) * np.sin(np.pi * cross / n)


def _max_entry(vals, cols=None) -> float:
    """Max-abs entry of a sum of monomial matrices, term t holding vals[t][..., k]
    in row k at column cols[t][..., k] (cols=None: all terms share columns).
    Values in different columns of a row do not cancel."""
    if cols is None or all(np.array_equal(col, cols[0]) for col in cols[1:]):
        return float(np.max(np.abs(sum(vals[1:], vals[0]))))
    entries = (sum(np.where(c == col, v, 0) for c, v in zip(cols, vals)) for col in cols)
    return max(float(np.max(np.abs(entry))) for entry in entries)


@dataclass
class BasisPropertyReport:
    """Deviations, one entry per algebraic property of the L family.

    deviations holds max-abs entrywise errors keyed by property name;
    det_rel_dev is the relative error of the determinant closed form
    (-1)^(n(m1+m2) + m1 m2) (i n / 2 pi)^n.  The naive variant that scales
    the m1*m2 term by n as well fails for even n at odd m1*m2, which is
    recorded separately in det_rel_dev_naive for transparency.
    """

    n: int
    deviations: dict
    det_rel_dev: float
    det_rel_dev_naive: float
    tol: float
    det_rtol: float

    @property
    def passed(self) -> bool:
        return (
            all(v <= self.tol for v in self.deviations.values())
            and self.det_rel_dev <= self.det_rtol
        )

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "passed": self.passed,
            "tol": self.tol,
            "det_rtol": self.det_rtol,
            "det_rel_dev": self.det_rel_dev,
            "det_rel_dev_naive": self.det_rel_dev_naive,
            "determinant_ok": self.det_rel_dev <= self.det_rtol,
        }
        for k, v in sorted(self.deviations.items()):
            out[k] = float(v)
            out[f"{k}_ok"] = bool(v <= self.tol)
        return out


def det_closed_form(n: int, m1: int, m2: int) -> complex:
    """det L_m = (-1)^(n (m1 + m2) + m1 m2) * (i n / 2 pi)^n."""
    sign = -1.0 if (n * (m1 + m2) + m1 * m2) % 2 else 1.0
    return sign * (1j * n / (2.0 * np.pi)) ** n


# periodicity is checked for the shifts m -> m + n r with |r1|, |r2| <= this
_SHIFT_RANGE = 2


def verify_basis_properties(
    n: int,
    tol: float = 1e-11,
    det_rtol: float = 1e-10,
) -> BasisPropertyReport:
    """Check the defining algebraic properties of the L_m family.

    Covers: periodicity signs under m -> m + n r, tracelessness off the
    n-divisible lattice, the trace on that lattice, the product and
    commutator closure, adjoint and inverse relations (two independent
    equalities), and the determinant closed form; LAPACK checks the last
    two on each dense L_mu, monomial arithmetic the rest.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    pref = 1j * n / (2.0 * np.pi)
    window = fundamental_window(n)
    mu1, mu2 = np.array(window).T
    col, val = _monomial(n, mu1, mu2)
    rows = np.arange(n)
    r1, r2 = (r.ravel() for r in np.indices((2 * _SHIFT_RANGE + 1,) * 2) - _SHIFT_RANGE)
    d_per = d_prod = d_comm = d_inv = d_det = d_naive = 0.0
    for s1, s2 in zip(r1, r2):
        (f1, f2), sign = fold_mode(n, mu1 + n * s1, mu2 + n * s2)
        assert np.array_equal(f1, mu1) and np.array_equal(f2, mu2)
        m_col, m_val = _monomial(n, mu1 + n * s1, mu2 + n * s2)
        d_per = max(d_per, _max_entry((m_val, -sign[:, None] * val), (m_col, col)))
    dev = {"periodicity": d_per}

    trace = lambda col, val: np.sum(np.where(col == rows, val, 0), axis=-1)  # noqa: E731
    dev["trace_window"] = np.max(np.abs(trace(col, val)))
    sign = 1 - 2 * ((r1 + r2 + n * r1 * r2) % 2)
    lattice = trace(*_monomial(n, n * r1, n * r2)) - sign * 1j * n * n / (2.0 * np.pi)
    dev["trace_lattice"] = np.max(np.abs(lattice))

    # every L_m with m in [0, 2n - 1)^2, laid out [k, m1 * side + m2]
    side = 2 * n - 1
    box = _monomial(n, *np.indices((side, side)))
    box_col, box_val = (np.moveaxis(a, -1, 0).reshape(n, -1) for a in box)
    nu1, nu2 = (a.ravel() for a in np.indices((n, n)))
    nu_col, nu_val = box_col[:, nu1 * side + nu2], box_val[:, nu1 * side + nu2]
    roots = np.exp(1j * np.pi * np.arange(2 * n) / n)  # omega^j
    # If every column pattern follows from m2 alone, the products of each pair sit
    # on the columns of L_{mu+nu} once they do for (mu2, nu2): then compare values.
    by_m2 = box_col[:, :side]
    aligned = np.array_equal(box_col, np.tile(by_m2, side))
    aligned = aligned and np.array_equal(by_m2[by_m2[:, nu1], nu2], by_m2[:, nu1 + nu2])
    for a, b in window:
        # (L_mu L_nu)[k, c_nu(c_mu(k))] = v_mu[k] v_nu[c_mu(k)] and the same with mu,
        # nu swapped, over every nu of [0, n)^2 (nu = 0 adds L_mu L_0 = pref L_mu)
        c_mu, v_mu = nu_col[:, a * n + b], nu_val[:, a * n + b]
        at = nu1 * side + nu2 + a * side + b
        mu_nu, nu_mu = v_mu[:, None] * nu_val[c_mu], nu_val * (-v_mu)[nu_col]
        total = box_val[:, at]
        cols = None if aligned else (nu_col[c_mu], box_col[:, at], c_mu[nu_col])
        phase = pref * roots[(nu1 * b - nu2 * a) % (2 * n)]
        d_prod = max(d_prod, _max_entry((mu_nu, -phase * total), cols and cols[:2]))
        f = structure_constant(n, (a, b), (nu1, nu2))
        d_comm = max(d_comm, _max_entry((mu_nu, -f * total, nu_mu), cols))
    dev["product"], dev["commutator"] = d_prod, d_comm

    # the adjoint moves each row's entry to the row of its column, conjugated
    adj_col, adj_val = np.full(col.shape, -1), np.zeros_like(val)
    np.put_along_axis(adj_col, col, np.broadcast_to(rows, col.shape), axis=-1)
    np.put_along_axis(adj_val, col, val.conj(), axis=-1)
    neg_col, neg_val = _monomial(n, -mu1, -mu2)
    dev["adjoint"] = _max_entry((adj_val, neg_val), (adj_col, neg_col))
    for mu in window:
        lmu = basis_matrix(n, *mu)
        inverse = (n / (2.0 * np.pi)) ** 2 * np.linalg.inv(lmu)
        d_inv = max(d_inv, np.max(np.abs(lmu.conj().T - inverse)))
        det, expect = np.linalg.det(lmu), det_closed_form(n, *mu)
        naive = (-1.0 if (n * (mu[0] + mu[1] + mu[0] * mu[1])) % 2 else 1.0) * pref**n
        d_det = max(d_det, abs(det - expect) / abs(expect))
        d_naive = max(d_naive, abs(det - naive) / abs(naive))
    dev["inverse"] = d_inv
    return BasisPropertyReport(
        n=n,
        deviations={k: float(v) for k, v in dev.items()},
        det_rel_dev=float(d_det),
        det_rel_dev_naive=float(d_naive),
        tol=tol,
        det_rtol=det_rtol,
    )


@dataclass
class SuNBasisElement:
    """One anti-hermitian combination of window matrices."""

    n_dim: int
    label: str
    matrix: np.ndarray


def su_n_basis(n: int) -> list:
    """Anti-hermitian basis of su(n) built from window pairs mu, -mu.

    For each window mode mu with partner mub = (-mu) mod n and sign c
    defined by L_{-mu} = c * L_{mub}, the combinations

        (1/2)  (L_mu + c L_mub)     and     (1/2i) (L_mu - c L_mub)

    are anti-hermitian; self-paired modes contribute whichever of the two
    survives.  Exactly n^2 - 1 elements come out.
    """
    elements = []
    for mu in fundamental_window(n):
        mub, c = fold_mode(n, -mu[0], -mu[1])
        if mub < mu:
            continue  # handled when mub came up first
        lmu = basis_matrix(n, *mu)
        if mub == mu:
            if c == 1:
                elements.append(SuNBasisElement(n, f"sym{mu}", lmu.copy()))
            else:
                elements.append(SuNBasisElement(n, f"asym{mu}", (lmu / 1j).copy()))
            continue
        lmub = basis_matrix(n, *mub)
        elements.append(SuNBasisElement(n, f"sym{mu}", 0.5 * (lmu + c * lmub)))
        elements.append(SuNBasisElement(n, f"asym{mu}", (0.5 / 1j) * (lmu - c * lmub)))
    assert len(elements) == n * n - 1
    return elements


def matrix_to_json(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    payload = {"n": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}
    return json.dumps(payload, sort_keys=True)


def matrix_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    re = np.asarray(data["re"], dtype=np.float64)
    im = np.asarray(data["im"], dtype=np.float64)
    if re.shape != (data["n"], data["n"]) or im.shape != re.shape:
        raise ValueError("matrix payload shape mismatch")
    # the two parts written side by side keep their bits: re + 1j * im would
    # turn (-0.0, x) into (0.0, x) and an infinite part into a NaN
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out
