r"""Curvature of the heavenly metric induced by the classical wave solution.

Coordinates are ordered (w, z, p, q).  For a solution theta, let
a = theta_pw dp + theta_qw dq, b = theta_pz dp + theta_qz dq and
d = {theta_w, theta_z}, with the torus bracket {f, g} = f_q g_p - f_p g_q.  The
heavenly metric ds^2 = dw a + dz b - (a^2 + b^2)/d has the null coframe
e = (a, dw - a/d, b, dz - b/d)/sqrt 2 where d != 0: ds^2 = 2 e^1 e^2 + 2 e^3 e^4.
Every metric here is read off a coframe as g = e^T eta e, eta = FRAME_METRIC.
For the classical solution, with arg = z cos q + p and Phi = cos q / cos(arg),
`TetradFrame` is a closed-form null coframe of the same metric.  The first
structure equation de^a = -Gamma^a_b ^ e^b has one torsion-free,
eta-compatible solution, the Ricci rotation coefficients: with D_acd the
frame components of eta_ab de^b,

    Gamma_ab = gamma_abc e^c,   gamma_abc = (D_abc + D_bca - D_cab) / 2.

`cartan_first` evaluates it with de from central differences, and its
residual max |de^a + Gamma^a_b ^ e^b| is the `structure_residual` a
`WeylSample` reports.  The connection's anti-self-dual half vanishes while
the self-dual half carries a single curvature component C1, putting the
geometry in the one-repeated-null-direction class.  A coordinate change
u = sin q, v = sin(arg) exhibits the same metric as a plane-fronted wave.

Curvature is computed for all points at once.  `weyl_report` evaluates the
coframe on every node of the nested central-difference stencils, shape
(K, 9, 9, 4): each point, its 8 neighbours at +-step, and theirs.  One
Cartan solve, written on leading batch axes with stacked matmuls, gives the
connection at all K * 9 stencil centres, and one more central difference of
the stacked undotted triples gives the self-dual curvature.  `cartan_first`
is the same solve at one point for any frame with an `at(point)` method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import SingularMetricError

__all__ = [
    "COORDS",
    "ThetaDerivatives",
    "example_theta",
    "fd_theta_derivatives",
    "hp_metric",
    "example_metric",
    "MetricField",
    "TetradFrame",
    "example_tetrad",
    "metric_from_tetrad",
    "FRAME_METRIC",
    "ConnectionForms",
    "cartan_first",
    "CartanResult",
    "example_connection",
    "weyl_c1",
    "curvature_undotted",
    "weyl_sample",
    "WeylSample",
    "weyl_report",
    "WeylReport",
    "pp_wave_check",
    "admissible_points",
]

COORDS = ("w", "z", "p", "q")

_BRANCH_TOL = 1e-4


def _trig(point):
    """cos q, sin q, cos arg, sin arg at points (..., 4)."""
    w, z, p, q = np.moveaxis(np.asarray(point, dtype=np.float64), -1, 0)
    cq = np.cos(q)
    sq = np.sin(q)
    arg = z * cq + p
    return cq, sq, np.cos(arg), np.sin(arg)


@dataclass
class ThetaDerivatives:
    """First w/z derivatives of theta and their torus gradients, callables on
    points (..., 4) whose values broadcast to (...)."""

    d_w: Callable
    d_z: Callable
    d_pw: Callable
    d_qw: Callable
    d_pz: Callable
    d_qz: Callable

    def bracket_wz(self, point):
        """{theta_w, theta_z} = theta_qw theta_pz - theta_pw theta_qz."""
        return self.d_qw(point) * self.d_pz(point) - self.d_pw(point) * self.d_qz(point)


def example_theta() -> ThetaDerivatives:
    """Closed-form derivative pack of the classical reference solution."""
    return ThetaDerivatives(
        d_w=lambda pt: -_trig(pt)[1],
        d_z=lambda pt: -_trig(pt)[3],
        d_pw=lambda pt: np.zeros(np.shape(pt)[:-1]),
        d_qw=lambda pt: -_trig(pt)[0],
        d_pz=lambda pt: -_trig(pt)[2],
        d_qz=lambda pt: np.asarray(pt, dtype=np.float64)[..., 1] * _trig(pt)[1] * _trig(pt)[2],
    )


def fd_theta_derivatives(fn: Callable, step: float = 1e-5) -> ThetaDerivatives:
    """Derivative pack by central differences of theta(points (..., 4)) -> (...)."""
    h = step * np.eye(4)

    def first(i):
        return lambda pt: (fn(pt + h[i]) - fn(pt - h[i])) / (2.0 * step)

    def mixed(i, j):
        return lambda pt: (
            fn(pt + h[i] + h[j]) - fn(pt + h[i] - h[j]) - fn(pt - h[i] + h[j]) + fn(pt - h[i] - h[j])
        ) / (4.0 * step * step)

    return ThetaDerivatives(first(0), first(1), mixed(2, 0), mixed(3, 0), mixed(2, 1), mixed(3, 1))


@dataclass
class MetricField:
    """Symmetric 4x4 metric components, coordinates COORDS, at one point
    (a tuple) or at points (..., 4) (an array), matrix (..., 4, 4)."""

    matrix: np.ndarray
    point: tuple

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        points = np.asarray(self.point, dtype=np.float64)
        self.point = tuple(points.tolist()) if points.ndim == 1 else points
        if self.matrix.shape != points.shape[:-1] + (4, 4):
            raise ValueError("metric must be 4x4 at each point")

    @property
    def det(self):
        return np.linalg.det(self.matrix)

    def symmetry_defect(self):
        return np.max(np.abs(self.matrix - np.swapaxes(self.matrix, -1, -2)), axis=(-2, -1))


def _raise_at_first(bad, points, message: str, values=None) -> None:
    """SingularMetricError at the first of points (..., 4), in C order, where
    bad (...) holds; the value of `values` there, if given, ends the message."""
    if np.any(bad):
        first = np.unravel_index(np.argmax(bad), np.shape(bad))
        if values is not None:
            message = f"{message} {float(values[first])!r}"
        location = tuple(float(v) for v in np.asarray(points, dtype=np.float64)[first])
        raise SingularMetricError(message, location=location)


# frame-index metric: g_12 = g_34 = 1 blocks, self-inverse
FRAME_METRIC = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])


def _metric(e: np.ndarray) -> np.ndarray:
    """e^T eta e of coframes (..., 4, 4), eta = FRAME_METRIC, made exactly symmetric."""
    g = np.swapaxes(e, -1, -2) @ FRAME_METRIC @ e
    return 0.5 * (g + np.swapaxes(g, -1, -2))


# |{Theta_w, Theta_z}| below this makes hp_metric's metric degenerate
_BRACKET_TOL = 1e-12


def _hp_coframe(theta: ThetaDerivatives, point) -> np.ndarray:
    """Null coframe (..., 4, 4) of the heavenly metric at points (..., 4)."""
    shape = np.shape(point)[:-1]
    pw, qw, pz, qz = (f(point) for f in (theta.d_pw, theta.d_qw, theta.d_pz, theta.d_qz))
    d = np.broadcast_to(qw * pz - pw * qz, shape)  # `bracket_wz`, each gradient taken once
    _raise_at_first(np.abs(d) < _BRACKET_TOL, point, "degenerate metric, bracket", d)
    zero = np.zeros(shape)
    a = np.stack(np.broadcast_arrays(zero, zero, pw, qw), -1)
    b = np.stack(np.broadcast_arrays(zero, zero, pz, qz), -1)
    dw, dz = np.eye(4)[:2]
    return np.stack([a, dw - a / d[..., None], b, dz - b / d[..., None]], -2) / math.sqrt(2.0)


def hp_metric(theta: ThetaDerivatives, point) -> MetricField:
    """The heavenly metric of a derivative pack at points (..., 4)."""
    return MetricField(_metric(_hp_coframe(theta, point)), point)


def example_metric(point) -> MetricField:
    return hp_metric(example_theta(), point)


class TetradFrame:
    """Null coframe e^1..e^4 with ds^2 = 2 e^1 e^2 + 2 e^3 e^4.

    Components are row a of at(point), in the coordinate order COORDS.
    Valid where cos q and cos(z cos q + p) stay away from zero.
    """

    def at(self, point) -> np.ndarray:
        """Coframe (..., 4, 4) at points (..., 4); raises at the first point,
        in C order, on a branch locus."""
        point = np.asarray(point, dtype=np.float64)
        cq, sq, ca, _ = _trig(point)
        bad = (np.abs(cq) < _BRANCH_TOL) | (np.abs(ca) < _BRANCH_TOL)
        _raise_at_first(bad, point, "tetrad hits a branch locus")
        z = point[..., 1]
        r = 1.0 / math.sqrt(2.0)
        phi = cq / ca
        e = np.zeros(point.shape[:-1] + (4, 4))
        e[..., 0, 1] = r / phi * cq
        e[..., 0, 2] = r / phi
        e[..., 0, 3] = r / phi * (-z * sq)
        e[..., 1, 2] = -r
        e[..., 1, 3] = r * (z * sq)
        e[..., 2, 3] = -r
        e[..., 3, 0] = r * cq
        e[..., 3, 3] = r * phi
        return e


def example_tetrad() -> TetradFrame:
    return TetradFrame()


def metric_from_tetrad(frame: TetradFrame, point) -> MetricField:
    """e^T eta e of frame.at(point), at the points frame.at takes."""
    return MetricField(_metric(frame.at(point)), point)


def _finite_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")


def _stencil(points, step: float) -> np.ndarray:
    """Central-difference nodes (..., 9, 4) of points (..., 4): the point
    itself, then +step and -step along each coordinate in turn."""
    offsets = np.zeros((9, 4))
    for i in range(4):
        offsets[1 + 2 * i, i] = step
        offsets[2 + 2 * i, i] = -step
    return np.asarray(points, dtype=np.float64)[..., None, :] + offsets


def _stencil_diff(values: np.ndarray, step: float) -> np.ndarray:
    """Central differences (..., 4, m, n) of values (..., 9, m, n) on `_stencil` nodes."""
    return (values[..., 1::2, :, :] - values[..., 2::2, :, :]) / (2.0 * step)


class ConnectionForms:
    """Frame connection Gamma_{ab} as coordinate 1-forms.

    forms[..., a, b, mu] holds Gamma_{ab} (0-based frame indices a, b;
    coordinate index mu; any leading batch axes) and is antisymmetric in
    a, b; get(a, b) takes 1-based labels.
    """

    def __init__(self, forms):
        self.forms = np.asarray(forms, dtype=np.float64)

    def get(self, a: int, b: int) -> np.ndarray:
        return self.forms[..., a - 1, b - 1, :]

    def dotted_norms(self) -> np.ndarray:
        """Sup of the anti-self-dual combinations, which must vanish here,
        per batch entry."""
        combos = np.stack(
            [self.get(4, 1), 0.5 * (self.get(3, 4) - self.get(1, 2)), self.get(3, 2)], axis=-2
        )
        return np.max(np.abs(combos), axis=(-2, -1))

    def dotted_defect(self) -> float:
        """Largest of the `dotted_norms`."""
        return float(np.max(self.dotted_norms()))

    def undotted(self) -> np.ndarray:
        """(Gamma_42, (Gamma_12 + Gamma_34)/2, Gamma_31) as 1-forms, (..., 3, 4)."""
        return np.stack(
            [self.get(4, 2), 0.5 * (self.get(1, 2) + self.get(3, 4)), self.get(3, 1)], axis=-2
        )


@dataclass
class CartanResult:
    de: np.ndarray  # de[a, i, j], antisymmetric in i, j
    conn: ConnectionForms
    solve_residual: float  # max |de^a + Gamma^a_b ^ e^b| over components


def _eta(x: np.ndarray) -> np.ndarray:
    """FRAME_METRIC contracted with the first of x's three trailing axes."""
    return (FRAME_METRIC @ x.reshape(x.shape[:-2] + (-1,))).reshape(x.shape)


def _cartan(frames: np.ndarray, step: float):
    """Cartan solve at the centre of every stencil of frames (..., 9, 4, 4).

    Returns (de, forms, residual), shaped (..., 4, 4, 4), (..., 4, 4, 4) and
    (...).  Every contraction is an elementwise product or a stacked matmul,
    so each centre gets the arithmetic of a lone one, to the bit.
    """
    e = frames[..., 0, :, :]
    grad = _stencil_diff(frames, step)  # grad[..., i, a, j] = d_i e^a_j
    de = np.swapaxes(grad, -3, -2) - np.moveaxis(grad, -3, -1)
    e_inv = np.linalg.inv(e)[..., None, :, :]
    low = np.swapaxes(e_inv, -1, -2) @ _eta(de) @ e_inv  # D[a] = E^T (eta de)[a] E
    gamma = 0.5 * (low + np.moveaxis(low, -1, -3) - np.moveaxis(low, -3, -1))
    forms = gamma @ e[..., None, :, :]
    forms = 0.5 * (forms - np.swapaxes(forms, -3, -2))
    wedge = np.swapaxes(_eta(forms), -1, -2) @ e[..., None, :, :]  # Gamma^a_b,i e^b_j
    resid = np.max(np.abs(de + wedge - np.swapaxes(wedge, -1, -2)), axis=(-3, -2, -1))
    return de, forms, resid


def cartan_first(frame: TetradFrame, point, step: float = 1e-3) -> CartanResult:
    """Connection of de^a = -Gamma^a_b ^ e^b, torsion free and eta-compatible.

    de[a, i, j] = d_i e^a_j - d_j e^a_i comes from central differences of
    the coframe, frame.at(node) on each `_stencil` node.  With E = inv(e)
    and eta = FRAME_METRIC (self-inverse), the unique solution is the Ricci
    rotation coefficients:

        D[a] = E^T (eta de)[a] E,
        gamma[a, b, c] = (D[a, b, c] + D[b, c, a] - D[c, a, b]) / 2,
        Gamma[a, b, mu] = gamma[a, b, c] e[c, mu],

    made exactly antisymmetric in a, b.  solve_residual is the equation's
    own residual, max |de^a + Gamma^a_b ^ e^b| over coordinate components.
    """
    _finite_step(step)
    frames = np.array([frame.at(node) for node in _stencil(point, step)])
    de, forms, resid = _cartan(frames, step)
    return CartanResult(de=de, conn=ConnectionForms(forms), solve_residual=float(resid))


def example_connection(point) -> ConnectionForms:
    """Closed-form connection of the example coframe at points (..., 4).

    Gamma_12 = Gamma_34 = -sqrt(2) tan q e^3 and
    Gamma_31 = -sqrt(2) Phi [tan q e^1 + Phi tan(arg) e^3]; the rest vanish.
    """
    e = example_tetrad().at(point)
    cq, sq, ca, sa = (t[..., None] for t in _trig(point))
    phi = cq / ca
    tq = sq / cq
    ta = sa / ca
    g12 = -math.sqrt(2.0) * tq * e[..., 2, :]
    g31 = -math.sqrt(2.0) * phi * (tq * e[..., 0, :] + phi * ta * e[..., 2, :])
    forms = np.zeros(e.shape[:-2] + (4, 4, 4))
    forms[..., 0, 1, :] = forms[..., 2, 3, :] = g12
    forms[..., 2, 0, :] = g31
    return ConnectionForms(forms - np.swapaxes(forms, -3, -2))


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u ^ v of 1-forms (..., 4) as antisymmetric (..., 4, 4)."""
    return u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]


def weyl_c1(point) -> float:
    """Closed-form value of the single surviving curvature component.

    C1 = 4 Phi [ (1 + 2 sin^2 q)/cos^2 q + Phi^2 (1 + 2 sin^2 arg)/cos^2 arg ];
    equals 8 at the origin.  Points (..., 4) give values (...).
    """
    cq, sq, ca, sa = _trig(point)
    phi = cq / ca
    return 4.0 * phi * (
        (1.0 + 2.0 * sq * sq) / (cq * cq)
        + phi * phi * (1.0 + 2.0 * sa * sa) / (ca * ca)
    )


def curvature_undotted(triples, step: float = 1e-3):
    """Self-dual curvature 2-forms of the undotted connection on stencils.

    triples (..., 9, 3, 4) holds (A, B, C) = (Gamma_42, (Gamma_12 + Gamma_34)/2,
    Gamma_31), `ConnectionForms.undotted`, on the `_stencil` nodes of each
    point, the point first.  Returns (R_A, R_B, R_C), each (..., 4, 4):

        R_A = dA + A ^ 2B,   R_B = dB + A ^ C,   R_C = dC + 2B ^ C.
    """
    triples = np.asarray(triples, dtype=np.float64)
    a0, b0, c0 = (triples[..., 0, t, :] for t in range(3))
    grad = _stencil_diff(triples, step)  # grad[..., i, t, j] = d_i triple[t]_j
    curl = grad - np.swapaxes(grad, -3, -1)
    r_a = curl[..., :, 0, :] + _wedge(a0, 2.0 * b0)
    r_b = curl[..., :, 1, :] + _wedge(a0, c0)
    r_c = curl[..., :, 2, :] + _wedge(2.0 * b0, c0)
    return r_a, r_b, r_c


@dataclass
class WeylSample:
    point: tuple
    c1_closed: float
    c1_estimate: float
    off_component_norm: float
    ra_norm: float
    rb_norm: float
    dotted_norm: float
    structure_residual: float

    @property
    def c1_rel_err(self) -> float:
        return abs(self.c1_estimate - self.c1_closed) / abs(self.c1_closed)

    @property
    def other_rel_norm(self) -> float:
        """Largest spurious curvature component relative to the C1 scale."""
        return max(self.ra_norm, self.rb_norm, self.off_component_norm) / abs(
            self.c1_estimate
        )

    def to_dict(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "c1_closed": self.c1_closed,
            "c1_estimate": self.c1_estimate,
            "c1_rel_err": self.c1_rel_err,
            "off_component_norm": self.off_component_norm,
            "ra_norm": self.ra_norm,
            "rb_norm": self.rb_norm,
            "other_rel_norm": self.other_rel_norm,
            "dotted_norm": self.dotted_norm,
            "structure_residual": self.structure_residual,
        }


def weyl_sample(point, step: float = 1e-3, extracted: bool = True) -> WeylSample:
    """Curvature data at one point: `weyl_report` of that point alone."""
    return weyl_report([point], step=step, extracted=extracted).samples[0]


@dataclass
class WeylReport:
    samples: list

    @property
    def max_c1_rel_err(self) -> float:
        return max(s.c1_rel_err for s in self.samples)

    @property
    def max_other_norm(self) -> float:
        return max(max(s.ra_norm, s.rb_norm, s.off_component_norm) for s in self.samples)

    @property
    def max_other_rel_norm(self) -> float:
        return max(s.other_rel_norm for s in self.samples)

    @property
    def max_dotted_norm(self) -> float:
        return max(s.dotted_norm for s in self.samples)

    @property
    def single_component_type(self) -> bool:
        """True when curvature sits in one component to sampling accuracy.

        Spurious components are judged relative to the C1 scale, since the
        FD error of every curvature entry grows with the local curvature.
        """
        return (
            all(abs(s.c1_estimate) > 1e-3 for s in self.samples)
            and self.max_other_rel_norm < 1e-3
            and self.max_dotted_norm < 1e-3
        )

    def to_dict(self) -> dict:
        return {
            "samples": [s.to_dict() for s in self.samples],
            "max_c1_rel_err": self.max_c1_rel_err,
            "max_other_norm": self.max_other_norm,
            "max_other_rel_norm": self.max_other_rel_norm,
            "max_dotted_norm": self.max_dotted_norm,
            "single_component_type": self.single_component_type,
        }


# points per batched solve: bounds the nested stencil arrays to ~3 MB
_POINT_BLOCK = 256


def weyl_report(points, step: float = 1e-3, extracted: bool = True) -> WeylReport:
    """Curvature data at points (K, 4), K >= 1, from first principles when extracted.

    extracted=True evaluates the coframe once on every nested stencil node,
    (K, 9, 9, 4), and reads the connection off it by one Cartan solve over
    the nine stencil centres of every point (the point's own solve giving
    structure_residual); False differentiates the closed form instead.
    Points are taken in blocks of _POINT_BLOCK.
    """
    _finite_step(step)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 4 or len(points) == 0:
        raise ValueError(f"points must be one or more rows (w, z, p, q), got shape {points.shape}")
    samples = []
    for b in range(0, len(points), _POINT_BLOCK):
        samples += _weyl_block(points[b : b + _POINT_BLOCK], step, extracted)
    return WeylReport(samples)


def _weyl_block(points: np.ndarray, step: float, extracted: bool) -> list:
    centres = _stencil(points, step)  # (K, 9, 4)
    if extracted:
        frames = example_tetrad().at(_stencil(centres, step))  # (K, 9, 9, 4, 4)
        _, forms, resid = _cartan(frames, step)
        conn, e, residual = ConnectionForms(forms), frames[:, 0, 0], resid[:, 0]
    else:
        conn = example_connection(centres)
        e, residual = example_tetrad().at(points), np.zeros(len(points))
    r_a, r_b, r_c = curvature_undotted(conn.undotted(), step)

    basis = _wedge(e[:, 2], e[:, 0])  # e^3 ^ e^1
    iu = np.triu_indices(4, k=1)
    denom = np.sum(basis[:, iu[0], iu[1]] ** 2, axis=-1)
    c1_est = 2.0 * np.sum(r_c[:, iu[0], iu[1]] * basis[:, iu[0], iu[1]], axis=-1) / denom
    off = np.max(np.abs(r_c - (0.5 * c1_est)[:, None, None] * basis), axis=(-2, -1))
    columns = (
        weyl_c1(points),
        c1_est,
        off,
        np.max(np.abs(r_a), axis=(-2, -1)),
        np.max(np.abs(r_b), axis=(-2, -1)),
        conn.dotted_norms()[:, 0],
        residual,
    )
    return [
        WeylSample(tuple(pt), *values)
        for pt, *values in zip(points.tolist(), *(c.tolist() for c in columns))
    ]


def admissible_points(count: int, seed: int = 0, margin: float = 0.3):
    """count >= 1 deterministic points keeping both branch cosines above margin."""
    if count < 1:
        raise ValueError(f"need at least one point, got count={count!r}")
    if margin >= 1.0:
        raise ValueError(f"margin must be below 1 for the cosines to clear it, got {margin!r}")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        w = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-1.0, 1.0)
        p = rng.uniform(-np.pi, np.pi)
        q = rng.uniform(-np.pi, np.pi)
        cq = math.cos(q)
        if cq < margin:
            continue
        if math.cos(z * cq + p) < margin:
            continue
        out.append((float(w), float(z), float(p), float(q)))
    return out


def pp_wave_check(point):
    """Max-abs gap between the metric and its plane-wave form pullback, per point (..., 4).

    In u = sin q, v = sin(z cos q + p), ordered (w, u, v, z), the metric is
    -dw du + dv dz - (du^2 + dv^2)/sqrt((1 - u^2)(1 - v^2)) on the branch
    where both cosines are positive: the coframe (du, -dw - f du, dv, dz - f dv)/sqrt 2,
    f = 1/(cos q cos(z cos q + p)).
    """
    point = np.asarray(point, dtype=np.float64)
    cq, sq, ca, _ = _trig(point)
    bad = (cq < _BRANCH_TOL) | (ca < _BRANCH_TOL)
    _raise_at_first(bad, point, "plane-wave chart needs positive branch cosines")
    z = point[..., 1]
    zero = np.zeros_like(cq)
    dw, dz = np.eye(4)[:2]  # the 1-forms in COORDS
    du = np.stack([zero, zero, zero, cq], -1)
    dv = np.stack([zero, ca * cq, ca, ca * (-z * sq)], -1)
    f = (1.0 / (cq * ca))[..., None]
    pulled = _metric(np.stack([du, -dw - f * du, dv, dz - f * dv], -2) / math.sqrt(2.0))
    return np.max(np.abs(pulled - example_metric(point).matrix), axis=(-2, -1))
