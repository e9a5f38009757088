"""Deformed wave solution, series recursion, and equation residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from startorus import (
    DEFAULT_PRUNE,
    FourierField,
    GriddedFourierField,
    KahlerBackground,
    SingularMetricError,
    SpacetimeGrid,
    WPolyField,
    example_cauchy_data,
    example_solution,
    fourier_expansion_theta,
    freq_factor,
    kowalewska_series,
    moyal_bracket,
    poisson_bracket,
    residual_me_flat,
    residual_me_kahler,
    residual_moyal_hp,
    richardson_order,
    torus_nodes,
)
from startorus.master_equation import _bessel_integrals, _expansion_row, _merged
from startorus.numerics import cross_diff, grid_cross_diff, grid_diff, grid_diff2


def conv(a: dict, b: dict) -> dict:
    out: dict = {}
    for m, ca in a.items():
        for n, cb in b.items():
            key = (m[0] + n[0], m[1] + n[1])
            out[key] = out.get(key, 0j) + ca * cb
    return out


# ---------------------------------------------------------------------------
# frequency factor

def test_freq_factor_closed_and_series_agree():
    for h in (1e-6, 5e-5, 1e-4, 2e-4, 0.5, np.pi):
        direct = (2.0 / h) * math.sin(0.5 * h)
        assert abs(freq_factor(h) - direct) < 1e-13
    assert freq_factor(0.0) == 1.0
    assert abs(freq_factor(np.pi) - 2 / np.pi) < 1e-15
    with pytest.raises(ValueError):
        freq_factor(-0.1)


@pytest.mark.parametrize("hbar", [float("nan"), float("inf")])
def test_non_finite_hbar_is_rejected(hbar):
    with pytest.raises(ValueError, match="hbar must be finite and >= 0"):
        freq_factor(hbar)
    with pytest.raises(ValueError, match="finite"):
        example_solution(hbar)
    with pytest.raises(ValueError, match="hbar must be finite and >= 0"):
        GriddedFourierField(SpacetimeGrid({"w": [0.0, 1.0]}), np.zeros((2, 3, 3)), hbar)
    with pytest.raises(ValueError, match="hbar must be finite and >= 0"):
        kowalewska_series(*example_cauchy_data(), hbar, terms=2)


# ---------------------------------------------------------------------------
# closed-form solution

def test_initial_profile_at_z_zero():
    sol = example_solution(0.7)
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = rng.uniform(-1, 1)
        p = rng.uniform(0, 2 * np.pi)
        q = rng.choice([rng.uniform(0, 2 * np.pi), np.pi / 2])
        want = 0.5 * np.pi * np.cos(p + q) - w * np.sin(q)
        assert abs(sol.evaluate(w, 0.0, p, q) - want) < 1e-14


def test_z_slope_at_zero():
    sol = example_solution(2 * np.pi / 5)
    h = 1e-6
    for p in (0.3, 1.7, 4.0):
        slope = (sol.evaluate(0.1, h, p, 0.9) - sol.evaluate(0.1, -h, p, 0.9)) / (2 * h)
        assert abs(slope + np.sin(p)) < 1e-8


def test_evaluate_matches_stable_reference_across_branches():
    # cos A - cos B = -2 sin((A+B)/2) sin((A-B)/2) gives a cancellation-free
    # reference for the z-dependent term on both sides of the branch cutoff
    hbar = 2 * np.pi / 7
    sol = example_solution(hbar)
    s = freq_factor(hbar)
    w, z, p = 0.2, 0.7, 0.9
    for cq in (1e-8, 1e-7, 5e-7, 2e-6, 1e-4, 1e-3, 0.2, -3e-7, -1e-3):
        q = math.acos(cq)
        t = s * math.cos(q)  # reconstructed cq, may differ in last ulp
        term = -2.0 * math.sin(0.5 * z * t + p) * math.sin(0.5 * z * t) / t
        want = 0.5 * np.pi * math.cos(p + q) - w * math.sin(q) + term
        assert abs(sol.evaluate(w, z, p, q) - want) < 1e-12


def test_evaluate_exactly_on_the_singular_line():
    hbar = 0.9
    sol = example_solution(hbar)
    w, z = 0.4, 0.6
    q = np.pi / 2
    for p in (0.0, 1.1, 2.8):
        # at cos q = 0 the z-term degenerates to -z sin p; the grid point
        # float cos(pi/2) ~ 6e-17 sits inside the quadrature branch
        want = 0.5 * np.pi * np.cos(p + q) - w + (-z * np.sin(p))
        assert abs(sol.evaluate(w, z, p, q) - want) < 1e-12


def two_branch_evaluate(sol, w, z, p, q):
    """The closed form by two branches, kept as a reference: the product
    form off cos q = 0 and 16-point Gauss-Legendre quadrature of
    -int_0^z sin(zeta s cos q + p) dzeta where |cos q| < 1e-6."""
    w, z, p, q = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (w, z, p, q)))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    scq = sol.s * np.cos(q)
    singular = np.abs(np.cos(q)) < 1e-6
    safe = np.where(singular, 1.0, scq)
    main = -2.0 * np.sin(0.5 * z * safe + p) * np.sin(0.5 * z * safe) / safe
    half = 0.5 * z
    zeta = half[..., None] * (nodes + 1.0)
    quad = -np.sum(weights * np.sin(zeta * scq[..., None] + p[..., None]), axis=-1) * half
    return 0.5 * np.pi * np.cos(p + q) - w * np.sin(q) + np.where(singular, quad, main)


def test_evaluate_matches_the_two_branch_formula():
    # with a = z s cos q / 2, [cos(2a + p) - cos p]/(s cos q) is
    # -z sin(a + p) sin(a)/a: one formula for both sides of the old cutoff
    P, Q = torus_nodes(128)
    Q[:, 7] = np.pi / 2  # forced columns on both sides of cos q = 0
    Q[:, 40] = 1.5 * np.pi + 3e-7
    for hbar in (0.0, 2 * np.pi / 5):
        sol = example_solution(hbar)
        for w, z in ((0.1, 0.3), (-0.3, 0.9), (0.2, 1e-9), (0.5, -1.7), (-0.1, 4.0)):
            got = sol.evaluate(w, z, P, Q)
            assert np.max(np.abs(got - two_branch_evaluate(sol, w, z, P, Q))) <= 4e-15
        for w, q in ((0.2, np.pi / 2), (0.2, 0.4), (np.array(0.2), np.pi / 2)):
            got = sol.evaluate(w, 0.5, 1.1, q)
            assert isinstance(got, float)
            assert abs(got - two_branch_evaluate(sol, w, 0.5, 1.1, q)) <= 4e-15


def frozen_evaluate(sol, w, z, p, q):
    """`ClosedFormSolution.evaluate` before the addition theorems: cos(p + q)
    and sin(a + p) taken at every (p, q) of the torus."""
    w, z, p, q = (np.asarray(x, dtype=np.float64) for x in (w, z, p, q))
    a = 0.5 * sol.s * np.cos(q) * z
    out = 0.5 * np.pi * np.cos(p + q) - w * np.sin(q) - z * np.sin(a + p) * np.sinc(a / np.pi)
    return out if np.ndim(out) else float(out)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(1e-3, 2 * np.pi / 3)),
    st.integers(2, 48),
    st.lists(
        st.tuples(st.floats(-1, 1), st.one_of(st.just(0.0), st.floats(-2, 2))),
        min_size=1,
        max_size=6,
    ),
    st.floats(0, 2 * np.pi),
    st.floats(0, 2 * np.pi),
)
def test_evaluate_agrees_with_the_frozen_full_torus_sine(hbar, n, nodes, p, q):
    # on the nodes of `GriddedFourierField.sample` (w and z (B, 1, 1), a
    # column of p, a row of q), with the rows cos q = 0 (q = pi/2 and 3pi/2)
    # and a node at z = 0 among them, and at one scalar point of each node;
    # |w| <= 1 and |z| <= 2 keep Theta below ~5, whose round-off the bound allows
    nodes = nodes + [(nodes[0][0], 0.0)]
    sol = example_solution(hbar)
    t = 2 * np.pi * np.arange(n) / n
    P = t[:, None]
    Q = np.concatenate([t, [np.pi / 2, 1.5 * np.pi]])[None, :]
    w, z = (np.array(c).reshape(-1, 1, 1) for c in zip(*nodes))
    got = sol.evaluate(w, z, P, Q)
    want = frozen_evaluate(sol, w, z, P, Q)
    assert got.shape == want.shape == (len(nodes), n, n + 2)
    assert np.max(np.abs(got - want)) <= 4e-15
    for wk, zk in nodes:
        got = sol.evaluate(wk, zk, p, q)
        assert isinstance(got, float)
        assert abs(got - frozen_evaluate(sol, wk, zk, p, q)) <= 4e-15


def test_evaluate_broadcasts_and_is_real():
    sol = example_solution(0.3)
    p = np.linspace(0, 2 * np.pi, 9)[:, None]
    q = np.linspace(0, np.pi, 5)[None, :]
    vals = sol.evaluate(0.1, 0.4, p, q)
    assert vals.shape == (9, 5)
    assert np.max(np.abs(np.imag(vals))) == 0.0  # real arithmetic throughout


def test_mode_field_known_coefficients():
    hbar = 2 * np.pi / 5
    w, z = 0.3, 0.4
    sol = example_solution(hbar)
    f0 = sol.mode_field(w, 0.0, band_limit=12, torus_n=64)
    assert abs(f0.coeff(1, 1) - np.pi / 4) < 1e-12
    assert abs(f0.coeff(-1, -1) - np.pi / 4) < 1e-12
    assert abs(f0.coeff(0, 1) - 0.5j * w) < 1e-12
    assert abs(f0.coeff(1, 0)) < 1e-13  # z-dependent modes absent at z=0

    f = sol.mode_field(w, z, band_limit=12, torus_n=64)
    assert f.is_real(1e-12)
    assert abs(f.coeff(0, 1) - 0.5j * w) < 1e-12
    # the z term carries exactly one power of e^{ip}
    high_p = [abs(c) for (m1, _), c in f.items() if abs(m1) >= 2]
    assert max(high_p, default=0.0) < 1e-13
    # projection is resolution independent once the band is resolved
    from startorus import fft_project, torus_nodes

    pp, qq = torus_nodes(96)
    g = fft_project(sol.evaluate(w, z, pp, qq), band_limit=12)
    assert (f - g).max_abs_coeff() < 1e-13


@pytest.mark.parametrize("hbar", [0.0, 1e-3, 2 * np.pi / 8])
def test_gridded_expansion_matches_torus_sampling(hbar):
    sol = example_solution(hbar)
    grid = SpacetimeGrid({"w": np.linspace(-0.3, 0.3, 3), "z": np.linspace(0.0, 1.2, 5)})
    got = sol.gridded(grid, band_limit=12)
    want = GriddedFourierField.sample(
        grid, lambda pt, P, Q: sol.evaluate(pt[0], pt[1], P, Q), 12, hbar, torus_n=128
    )
    assert got.values.shape == want.values.shape
    assert got.hbar == want.hbar == hbar
    assert np.max(np.abs(got.values - want.values)) <= 1e-13
    assert np.count_nonzero(got.values) == np.count_nonzero(want.values)


@pytest.mark.parametrize("hbar", [0.0, 2 * np.pi / 8])
def test_windows_broadcast_and_match_the_pointwise_expansion(hbar):
    sol = example_solution(hbar)
    w = np.linspace(-0.3, 0.4, 3).reshape(3, 1, 1)
    z = np.linspace(-1.1, 2.3, 20).reshape(1, 4, 5)
    got = sol.windows(w, z, 9)
    assert got.shape == (3, 4, 5, 19, 19)
    pruned = np.where(np.abs(got) <= DEFAULT_PRUNE, 0.0, got)
    for i, j, k in np.ndindex(3, 4, 5):
        wi, zj = float(w[i, 0, 0]), float(z[0, j, k])
        want = fourier_expansion_theta(hbar, wi, zj, 9).field.window(9)
        # alone or in the batch, a point's windows are the same to the bit
        point = sol.windows(wi, zj, 9)
        assert np.array_equal(np.where(np.abs(point) <= DEFAULT_PRUNE, 0.0, point), want)
        assert np.array_equal(pruned[i, j, k], want)
    # w enters no Bessel table: broadcasting over it is exact
    for i in range(3):
        assert np.array_equal(got[i], sol.windows(float(w[i, 0, 0]), z[0], 9))
    grid = SpacetimeGrid({"w": w.ravel(), "z": z.ravel()})
    windows = sol.windows(w.reshape(3, 1), z.reshape(1, 20), 9)
    windows[np.abs(windows) <= DEFAULT_PRUNE] = 0.0
    assert np.array_equal(sol.gridded(grid, 9).values, windows)


def where_expansion_row(hbar, z, band_limit):
    """`_expansion_row` as it picked its columns with np.where from two
    complex temporaries, frozen as the reference."""
    s = np.vectorize(freq_factor, otypes=[float])(hbar)
    s, z = np.broadcast_arrays(s, np.asarray(z, dtype=np.float64))
    ell = np.arange(band_limit + 1)
    half = (ell + 1) // 2
    sign = np.where(ell % 2 == 1, (-1.0) ** half, (-1.0) ** (half + 1))
    amp = (sign / s[..., None]) * np.moveaxis(_bessel_integrals(band_limit, z * s), 0, -1)
    return np.where(ell % 2 == 1, 0.5 * amp, -0.5j * amp)


def test_expansion_row_is_byte_identical_to_the_where_form():
    # +-0.0 and +-5e-324 give rows of signed zeros, the bytes of which count
    tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]
    rng = np.random.default_rng(17)
    cases = [
        (0.0, np.array(tiny + [0.5, -3.0, 40.0]), 30),
        (np.array([0.0, 1e-3, 2 * np.pi / 8])[:, None], 10 * rng.normal(size=(1, 40)), 60),
        (2 * np.pi / 255, np.linspace(0.0, 2.0, 129), 509),
        (0.5, 0.3, 1),
        (1.0, np.zeros(0), 5),
    ]
    for hbar, z, band in cases:
        got, want = _expansion_row(hbar, z, band), where_expansion_row(hbar, z, band)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_gridded_requires_wz_axes():
    sol = example_solution(0.5)
    bad = SpacetimeGrid({"w": [0.0, 0.1], "y": [0.0, 0.1]})
    with pytest.raises(ValueError):
        sol.gridded(bad, band_limit=4)
    with pytest.raises(ValueError):
        sol.gridded(SpacetimeGrid({"w": [0.0, 0.1], "z": [0.0, 0.1]}), band_limit=0)


# ---------------------------------------------------------------------------
# series recursion

def test_cauchy_data_modes():
    theta0, theta1 = example_cauchy_data()
    assert theta0.degree == 1
    assert theta1.degree == 0
    at = theta0.at_w(2.0)
    assert abs(at.coeff(1, 1) - np.pi / 4) < 1e-15
    assert abs(at.coeff(0, 1) - 2.0 * 0.5j) < 1e-15  # -w sin q at w=2
    assert abs(theta1.at_w(0.0).coeff(1, 0) - 0.5j) < 1e-15


def closed_form_order(k: int, s: float) -> dict:
    # -s^(k-1) cos^(k-1)(q) * d_p^(k-2) cos(p)
    cosq = {(0, 1): 0.5 + 0j, (0, -1): 0.5 + 0j}
    acc = {(0, 0): 1.0 + 0j}
    for _ in range(k - 1):
        acc = conv(acc, cosq)
    cosp = {(1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j}
    for _ in range(k - 2):
        cosp = {m: (1j * m[0]) * c for m, c in cosp.items()}
    out = conv(acc, cosp)
    return {m: -(s ** (k - 1)) * c for m, c in out.items()}


@pytest.mark.parametrize("hbar", [0.0, 0.3, 2 * np.pi / 5])
def test_recursion_matches_closed_form_orders(hbar):
    theta0, theta1 = example_cauchy_data()
    series = kowalewska_series(theta0, theta1, hbar, terms=7)
    s = freq_factor(hbar)
    for k in range(2, 7):
        got = series.orders[k]
        assert got.degree == 0  # w drops out from order 2 on
        field = got.at_w(0.57)
        want = closed_form_order(k, s)
        keys = set(want) | {m for m, _ in field.items()}
        worst = max(abs(want.get(m, 0j) - field.coeff(*m)) for m in keys)
        assert worst <= 1e-12, (k, worst)


def test_truncated_series_matches_solution():
    hbar = 2 * np.pi / 5
    w, z = 0.3, 0.4
    theta0, theta1 = example_cauchy_data()
    series = kowalewska_series(theta0, theta1, hbar, terms=13)
    target = example_solution(hbar).mode_field(w, z, band_limit=16, torus_n=48)
    diff = (series.field_at(w, z) - target).max_abs_coeff()
    assert diff <= 1e-8
    assert series.tail_estimate(w, z) < 1e-7


def test_series_of_data_orders_echo_input():
    theta0, theta1 = example_cauchy_data()
    series = kowalewska_series(theta0, theta1, 0.4, terms=3)
    assert series.order_field(0, 0.5).to_dict() == theta0.at_w(0.5).to_dict()
    assert series.order_field(1, 0.5).to_dict() == theta1.at_w(0.5).to_dict()
    # plain FourierField data is promoted
    series2 = kowalewska_series(theta1.at_w(0.0), theta1.at_w(0.0), 0.4, terms=2)
    assert series2.orders[0].degree == 0


# The w-polynomial arithmetic as the series took it before each w-degree
# became one merged sum: a `FourierField` `+` per term and degree, frozen as
# the oracle.  Each takes and returns `WPolyField`s through the constructor.

def frozen_add(a, b):
    def pad(p, k):
        return p.coeffs[k] if k < len(p.coeffs) else FourierField.zero()

    return WPolyField([pad(a, k) + pad(b, k) for k in range(max(len(a.coeffs), len(b.coeffs)))])


def frozen_neg(a):
    return WPolyField([-c for c in a.coeffs])


def frozen_scaled(s, a):
    return WPolyField([s * c for c in a.coeffs])


def frozen_d_dw(a):
    if a.degree == 0:
        return WPolyField([FourierField.zero()])
    return WPolyField([float(k) * c for k, c in enumerate(a.coeffs)][1:])


def frozen_bracket(a, b, hbar):
    from startorus import fourier

    weight = fourier._bracket_weight(hbar)
    out = [FourierField.zero() for _ in range(a.degree + b.degree + 1)]
    for i, ca in enumerate(a.coeffs):
        if ca.size == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb.size == 0:
                continue
            out[i + j] = out[i + j] + fourier._antisymmetrized(ca, cb, weight)
    return WPolyField(out)


def frozen_kowalewska_orders(theta0, theta1, hbar, terms):
    """The series' orders in the frozen list arithmetic, {0, .} skipped."""
    orders = [theta0, theta1]
    d_w = [frozen_d_dw(theta) for theta in orders]
    for k in range(2, terms):
        acc = frozen_neg(frozen_d_dw(d_w[k - 2]))
        for j in range(k - 1):
            if d_w[j].degree == 0 and d_w[j].coeffs[0].size == 0:
                continue
            term = frozen_bracket(d_w[j], orders[k - 1 - j], hbar)
            acc = frozen_add(acc, frozen_neg(frozen_scaled(float(math.comb(k - 2, j)), term)))
        orders.append(acc)
        d_w.append(frozen_d_dw(acc))
    return orders


def every_j_orders(theta0, theta1, hbar, terms):
    """The recursion with d_w and a bracket for every j, {0, .} included, in
    the library's arithmetic: each w-degree one `_merged` sum, negated."""
    orders = [theta0, theta1]
    for k in range(2, terms):
        parts = [(1.0, orders[k - 2].d_dw().d_dw())] + [
            (float(math.comb(k - 2, j)), orders[j].d_dw().bracket(orders[k - 1 - j], hbar))
            for j in range(k - 1)
        ]
        degree = max(p.degree for _, p in parts)
        orders.append(
            WPolyField(
                [
                    -_merged((s, p.coeffs[d]) for s, p in parts if d <= p.degree)
                    for d in range(degree + 1)
                ]
            )
        )
    return orders


def assert_orders_bit_identical(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.degree == b.degree, k
        for x, y in zip(a.coeffs, b.coeffs):
            assert x.modes.tobytes() == y.modes.tobytes(), k
            assert x.coeffs.tobytes() == y.coeffs.tobytes(), k  # -0.0 too


def assert_orders_close(got, want, rtol=1e-14):
    """Every order k agrees coefficient by coefficient, a missing mode read
    as 0, within rtol of the largest coefficient of the orders 0..k plus
    2 DEFAULT_PRUNE: the list arithmetic prunes every partial sum, so an
    entry at the prune edge may be kept by one arithmetic and not the other."""
    assert len(got) == len(want)
    scale = 0.0
    for k, (a, b) in enumerate(zip(got, want)):
        x = [c.to_dict() for c in a.coeffs]
        y = [c.to_dict() for c in b.coeffs]
        scale = max([scale] + [abs(v) for d in x + y for v in d.values()])
        x += [{}] * (len(y) - len(x))
        y += [{}] * (len(x) - len(y))
        gap = max(
            (abs(p.get(m, 0j) - q.get(m, 0j)) for p, q in zip(x, y) for m in set(p) | set(q)),
            default=0.0,
        )
        assert gap <= rtol * scale + 2 * DEFAULT_PRUNE, (k, gap, scale)


@pytest.mark.parametrize("hbar", [0.0, 1e-3, 0.3, 2 * np.pi / 12, 2 * np.pi / 5])
def test_series_orders_bit_identical_to_the_list_arithmetic_on_the_example(hbar):
    # one term per mode and degree, or two: the merged sums add as the
    # per-term `+` did, bit for bit; the orders of 200 terms hold those of fewer
    want = frozen_kowalewska_orders(*example_cauchy_data(), hbar, 200)
    for terms in (12, 48, 200):
        got = kowalewska_series(*example_cauchy_data(), hbar, terms).orders
        assert_orders_bit_identical(got, want[:terms])


def degree_two_data():
    wave = FourierField.from_dict
    theta0 = WPolyField(
        [wave({(1, 1): 0.5, (-1, -1): 0.5}), wave({(0, 1): -0.5j, (0, -1): 0.5j}),
         wave({(1, 0): 0.25, (-1, 0): 0.25})]
    )
    theta1 = WPolyField([wave({(1, -1): 0.3j, (-1, 1): -0.3j})])
    return theta0, theta1


@pytest.mark.parametrize("hbar", [0.0, 1e-3, 2 * np.pi / 12])
def test_series_bit_identical_to_the_bracket_for_every_j(hbar):
    # w-degree 2 data: d_w Theta_j is nonzero for some j > 0 and the zero
    # field for others, so the recursion takes and skips brackets past j = 0
    got = kowalewska_series(*degree_two_data(), hbar, terms=9).orders
    want = every_j_orders(*degree_two_data(), hbar, 9)
    assert want[1].degree == 0 and want[2].degree == 1  # j = 1 skipped, j = 2 taken
    assert_orders_bit_identical(got, want)


@pytest.mark.parametrize("hbar", [0.0, 1e-3, 2 * np.pi / 12])
def test_series_agrees_with_the_list_arithmetic_on_degree_two_data(hbar):
    # several terms merge at once here, so the sums may round apart
    got = kowalewska_series(*degree_two_data(), hbar, terms=9).orders
    assert_orders_close(got, frozen_kowalewska_orders(*degree_two_data(), hbar, 9))


@st.composite
def cauchy_wpoly(draw):
    """A WPolyField of w-degree 0-2, each coefficient at most 6 modes of band <= 3."""
    coeff = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    mode = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    degrees = []
    for _ in range(draw(st.integers(1, 3))):
        table = draw(st.dictionaries(mode, st.builds(complex, coeff, coeff), max_size=6))
        degrees.append(FourierField.from_dict(table))
    return WPolyField(degrees)


@settings(max_examples=40, deadline=None)
@given(
    cauchy_wpoly(),
    cauchy_wpoly(),
    st.one_of(st.just(0.0), st.floats(1e-3, 2 * np.pi / 3)),
    st.integers(2, 8),
)
def test_series_agrees_with_the_list_arithmetic_on_random_data(theta0, theta1, hbar, terms):
    got = kowalewska_series(theta0, theta1, hbar, terms).orders
    assert_orders_close(got, frozen_kowalewska_orders(theta0, theta1, hbar, terms))


@pytest.mark.parametrize("hbar", [0.0, 0.5])
def test_wpoly_bracket_is_one_pairwise_pass_per_nonzero_degree_pair(hbar, monkeypatch):
    from startorus import fourier

    wave = FourierField.from_dict
    left = WPolyField(
        [wave({(1, 1): 0.5, (-1, 2): 0.5}), FourierField.zero(), wave({(1, 0): 0.25j})]
    )
    right = WPolyField([wave({(0, 1): -0.5j, (2, -1): 1.0}), wave({(1, -1): 0.3j})])
    calls = []
    kernel = fourier._pairwise
    monkeypatch.setattr(fourier, "_pairwise", lambda *a: calls.append(1) or kernel(*a))
    for a, b in ((left, right), (right, left)):
        calls.clear()
        assert a.bracket(b, hbar).l2_norm() > 0
        assert len(calls) == 2 * 2  # two nonzero w-coefficients on each side


def test_series_input_validation():
    theta0, theta1 = example_cauchy_data()
    with pytest.raises(ValueError):
        kowalewska_series(theta0, theta1, 0.4, terms=1)
    with pytest.raises(ValueError):
        kowalewska_series(theta0, theta1, -0.4, terms=4)
    with pytest.raises(TypeError):
        kowalewska_series("bad", theta1, 0.4, terms=4)
    for hbar in (-0.4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite hbar >= 0"):
            theta0.bracket(theta1, hbar)


# ---------------------------------------------------------------------------
# residual of the deformed equation on (w, z) grids

def hp_grids(h_coarse: float):
    coarse = SpacetimeGrid(
        {"w": np.linspace(-0.3, 0.3, 3), "z": np.arange(0.1, 0.5001, h_coarse)}
    )
    return coarse, coarse.refined()


@pytest.mark.parametrize("hbar", [2 * np.pi / 5, 1e-3])
def test_hp_residual_second_order(hbar):
    sol = example_solution(hbar)
    coarse, fine = hp_grids(0.1)
    rep_c = residual_moyal_hp(sol.gridded(coarse, band_limit=24))
    rep_f = residual_moyal_hp(sol.gridded(fine, band_limit=24))
    order = richardson_order(rep_c.sup, rep_f.sup)
    assert 1.7 <= order <= 2.3, (hbar, order)
    assert rep_c.per_point.shape == rep_c.interior_shape
    assert rep_c.steps["z"] == 0.1


def per_node_bracket(f, g, hbar):
    return poisson_bracket(f, g) if hbar == 0 else moyal_bracket(f, g, hbar)


def per_node_moyal_hp(field):
    """Per-node residuals by the node loop over sparse fields, kept as the
    reference, and the largest l2 norm of the terms that cancel in them."""
    hw, hz = field.grid.steps["w"], field.grid.steps["z"]
    nw, nz = field.grid.shape
    v = {index: field.node(index) for index in np.ndindex(nw, nz)}
    per = np.zeros((nw - 2, nz - 2))
    scale = 0.0
    for i in range(1, nw - 1):
        for j in range(1, nz - 1):
            d2w = (1.0 / hw**2) * (v[i + 1, j] - 2.0 * v[i, j] + v[i - 1, j])
            d2z = (1.0 / hz**2) * (v[i, j + 1] - 2.0 * v[i, j] + v[i, j - 1])
            dw = (0.5 / hw) * (v[i + 1, j] - v[i - 1, j])
            dz = (0.5 / hz) * (v[i, j + 1] - v[i, j - 1])
            res = d2w + d2z + per_node_bracket(dw, dz, field.hbar)
            per[i - 1, j - 1] = res.l2_norm()
            scale = max(scale, d2w.l2_norm() + d2z.l2_norm())
    return per, scale


@pytest.mark.parametrize("hbar", [2 * np.pi / 5, 0.0])
def test_hp_residual_equals_per_node_reference(hbar):
    sol = example_solution(hbar)
    grid = SpacetimeGrid({"w": np.linspace(-0.3, 0.3, 4), "z": np.arange(0.1, 0.5001, 0.1)})
    field = sol.gridded(grid, band_limit=12)
    got = residual_moyal_hp(field).per_point
    want, scale = per_node_moyal_hp(field)
    # the reference prunes |c| <= 1e-15 after every sparse operation and the
    # tensor path does not, so they agree to round-off of the cancelling terms
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)


def assert_matches_per_node(field):
    got = residual_moyal_hp(field).per_point
    want, scale = per_node_moyal_hp(field)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)
    return got


def hp_test_field(hbar, band=8):
    sol = example_solution(hbar)
    grid = SpacetimeGrid({"w": np.linspace(-0.3, 0.3, 4), "z": np.arange(0.1, 0.5001, 0.1)})
    return sol.gridded(grid, band_limit=band)


@pytest.mark.parametrize("hbar", [2 * np.pi / 5, 0.0])
@pytest.mark.parametrize("w_free", [False, True])
def test_hp_residual_on_partly_occupied_asymmetric_rows(hbar, w_free):
    # z^2 cos(3p + q) reaches only d_z Theta, at rows m1 = +-3, and w z E_(2,-1)
    # adds row 2 to d_w Theta, so the operands fill rows 0..2 and -3..3 of a
    # band-8 window and the bracket rows -3..5, past the linear term's -3..3.
    # Without the solution's -w sin q (w_free), d_w Theta sits on row 2 alone
    # and the bracket on rows -1..5, short of the linear term's rows -3, -2.
    field = hp_test_field(hbar)
    band = 8
    w = field.grid.axis("w")[:, None]
    z = field.grid.axis("z")[None, :]
    values = field.values.copy()
    if w_free:
        values[:] = values[1]
    values[..., band + 3, band + 1] += 0.5 * z**2
    values[..., band - 3, band - 1] += 0.5 * z**2
    values[..., band + 2, band - 1] += 0.1 * w * z
    assert_matches_per_node(GriddedFourierField(field.grid, values, hbar))


def test_hp_residual_of_a_w_independent_field_is_its_linear_term():
    # d_w Theta is exactly zero, so the bracket is empty
    field = hp_test_field(2 * np.pi / 5)
    values = np.broadcast_to(field.values[1:2], field.values.shape)
    flat = GriddedFourierField(field.grid, values, field.hbar)
    got = assert_matches_per_node(flat)
    linear = grid_diff2(values, field.grid, "w") + grid_diff2(values, field.grid, "z")
    # the residual lays the linear term's occupied rows m1 into band-2R rows;
    # the expected norm is summed over the same layout, so the bits agree
    band = (linear.shape[-1] - 1) // 2
    rows = np.flatnonzero(np.abs(linear).sum(axis=(0, 1, 3)))
    layout = np.zeros(linear.shape[:2] + (rows[-1] + 1 - rows[0], 4 * band + 1), dtype=complex)
    layout[..., band : 3 * band + 1] = linear[..., rows[0] : rows[-1] + 1, :]
    assert np.array_equal(got, np.sqrt(np.sum(np.abs(layout) ** 2, axis=(-2, -1))))


def test_hp_residual_node_blocks_agree_with_one_block(monkeypatch):
    from startorus import fourier

    field = hp_test_field(2 * np.pi / 5, band=12)
    whole = assert_matches_per_node(field)
    transforms = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: transforms.append(1) or fft(*a, **k))
    assert np.array_equal(residual_moyal_hp(field).per_point, whole)
    one_block = len(transforms)
    # d_w Theta fills row m1 = 0 and d_z Theta rows -1..1, so each node's
    # bracket is 3 row pairs of FFT length 50.  A budget of two nodes' worth
    # splits the 6 interior nodes into 3 blocks and keeps the row blocks.
    monkeypatch.setattr(fourier, "_FFT_BATCH", 2 * 3 * fourier._fft_length(49))
    transforms.clear()
    split = residual_moyal_hp(field).per_point
    assert len(transforms) == 3 * one_block
    assert np.array_equal(split, whole)


def test_hp_residual_flags_a_non_solution():
    # adding 0.1 z^2 sin p leaves a residual that refinement cannot remove
    hbar = 2 * np.pi / 5
    sol = example_solution(hbar)

    def vals(point, P, Q):
        w, z = point
        return sol.evaluate(w, z, P, Q) + 0.1 * z**2 * np.sin(P)

    coarse, fine = hp_grids(0.1)
    rep_c = residual_moyal_hp(
        GriddedFourierField.sample(coarse, vals, band_limit=24, hbar=hbar, torus_n=64)
    )
    rep_f = residual_moyal_hp(
        GriddedFourierField.sample(fine, vals, band_limit=24, hbar=hbar, torus_n=64)
    )
    assert rep_f.sup > 0.05  # does not converge to zero
    assert richardson_order(rep_c.sup, rep_f.sup) < 1.0


def test_hp_residual_guards():
    sol = example_solution(0.5)
    grid = SpacetimeGrid({"w": [0.0, 0.1], "z": [0.0, 0.1, 0.2]})
    field = sol.gridded(grid, band_limit=6)
    with pytest.raises(ValueError):
        residual_moyal_hp(field)  # too few w nodes
    bad_axes = SpacetimeGrid({"z": [0.0, 0.1, 0.2], "w": [0.0, 0.1, 0.2]})
    with pytest.raises(ValueError):
        residual_moyal_hp(sol.gridded(bad_axes, band_limit=6))


# ---------------------------------------------------------------------------
# doubled coordinates: flat and Kahler forms

def lifted_grid(hz: float) -> SpacetimeGrid:
    return SpacetimeGrid(
        {
            "w": np.linspace(-0.1, 0.1, 3),
            "z": np.arange(0.2, 0.4001, hz),
            "wt": np.linspace(-0.1, 0.1, 3),
            "zt": np.arange(0.1, 0.3001, hz),
        }
    )


def test_lifted_solution_solves_flat_form():
    # Theta(w,z,wt,zt) = Theta_hat(w+wt, z+zt) turns a 2d solution into a
    # 4d one; the residual must vanish at second order in the z steps
    hbar = 2 * np.pi / 6
    sol = example_solution(hbar)

    def vals(point, P, Q):
        w, z, wt, zt = point
        return sol.evaluate(w + wt, z + zt, P, Q)

    reports = []
    for hz in (0.05, 0.025):
        field = GriddedFourierField.sample(
            lifted_grid(hz), vals, band_limit=10, hbar=hbar, torus_n=24
        )
        reports.append(residual_me_flat(field))
    order = richardson_order(reports[0].sup, reports[1].sup)
    assert 1.7 <= order <= 2.3, order
    assert reports[0].label == "me_flat"


def quadratic_evaluator(w, z, wt, zt, P, Q):
    return (
        w * wt * np.sin(P)
        + z * zt * np.cos(Q)
        + (w + wt) * 0.3 * np.sin(P)
        + 0.2 * z * np.cos(Q)
    )


def matched_pair(hq: float = 0.08):
    wc, wtc, zc, ztc = 0.15, -0.05, 0.3, 0.1
    flat_grid = SpacetimeGrid(
        {
            "w": wc + hq * np.arange(-1, 2),
            "z": zc + hq * np.arange(-1, 2),
            "wt": wtc + hq * np.arange(-1, 2),
            "zt": ztc + hq * np.arange(-1, 2),
        }
    )
    kahler_grid = SpacetimeGrid(
        {
            "y": (wc + wtc) + 2 * hq * np.arange(-1, 2),
            "yt": (wc - wtc) + 2 * hq * np.arange(-1, 2),
            "z": zc + hq * np.arange(-1, 2),
            "zt": ztc + hq * np.arange(-1, 2),
        }
    )
    return flat_grid, kahler_grid


def test_flat_and_kahler_forms_agree_on_quadratic_field():
    # y steps twice the w steps make the two second-difference stencils
    # evaluate identical exact derivatives of a quadratic field
    hbar = 0.25
    flat_grid, kahler_grid = matched_pair()

    def flat_vals(point, P, Q):
        w, z, wt, zt = point
        return quadratic_evaluator(w, z, wt, zt, P, Q)

    def kahler_vals(point, P, Q):
        y, yt, z, zt = point
        return quadratic_evaluator(0.5 * (y + yt), z, 0.5 * (y - yt), zt, P, Q)

    f_flat = GriddedFourierField.sample(flat_grid, flat_vals, 2, hbar, torus_n=16)
    f_kahler = GriddedFourierField.sample(kahler_grid, kahler_vals, 2, hbar, torus_n=16)
    rep_flat = residual_me_flat(f_flat)
    rep_kahler = residual_me_kahler(f_kahler, KahlerBackground.flat())
    assert rep_flat.interior_shape == (1, 1, 1, 1)
    assert rep_kahler.interior_shape == (1, 1, 1, 1)
    assert abs(rep_flat.sup - rep_kahler.sup) <= 1e-10

    # the finite-difference potential route reproduces the closed-form block
    fd_background = KahlerBackground(potential=lambda pt: pt[0] * pt[2] + pt[1] * pt[3])
    rep_fd = residual_me_kahler(f_kahler, fd_background)
    assert abs(rep_fd.sup - rep_kahler.sup) <= 1e-6


def test_kahler_background_construction():
    flat = KahlerBackground.flat()
    assert np.array_equal(flat.metric((0.3, 0.1, -0.2, 0.5)), np.eye(2))
    fd = KahlerBackground(potential=lambda pt: pt[0] * pt[2] + pt[1] * pt[3])
    assert np.max(np.abs(fd.metric((0.3, 0.1, -0.2, 0.5)) - np.eye(2))) < 1e-9
    assert flat.volume((0, 0, 0, 0)) == 1.0
    with pytest.raises(ValueError):
        KahlerBackground()
    # on arrays of points: (...) + (2, 2), float entries broadcast
    z = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert np.array_equal(flat.metric((0.1, z, 0.2, 0.3)), np.broadcast_to(np.eye(2), (2, 3, 2, 2)))
    mixed = KahlerBackground(metric_fn=lambda pt: [[1.0, 0.3 * pt[1]], [0.3 * pt[1], 1.0]])
    metric = mixed.metric((0.1, z, 0.2, 0.3))
    assert metric.shape == (2, 3, 2, 2)
    assert np.array_equal(metric[..., 0, 1], 0.3 * z) and np.array_equal(metric[..., 1, 0], 0.3 * z)
    assert np.all(metric[..., 0, 0] == 1.0) and np.all(metric[..., 1, 1] == 1.0)


def node_stencils(field):
    """First, second and mixed differences at one node, over sparse fields."""
    grid = field.grid
    h = [grid.steps[name] for name in grid.names]

    def v(index, *shifts):
        index = list(index)
        for axis, step in shifts:
            index[axis] += step
        return field.node(tuple(index))

    def d1(i, a):
        return (0.5 / h[a]) * (v(i, (a, 1)) - v(i, (a, -1)))

    def d2(i, a):
        return (1.0 / h[a] ** 2) * (v(i, (a, 1)) - 2.0 * v(i) + v(i, (a, -1)))

    def cross(i, a, b):
        return (0.25 / (h[a] * h[b])) * (
            v(i, (a, 1), (b, 1)) - v(i, (a, 1), (b, -1))
            - v(i, (a, -1), (b, 1)) + v(i, (a, -1), (b, -1))
        )

    return d1, d2, cross


def per_node_kahler(field, background):
    """Doubled Kahler residual per node over sparse fields, as reference."""
    grid = field.grid
    inner = tuple(s - 2 for s in grid.shape)
    d1, d2, cross = node_stencils(field)
    metric, volume = per_node_background(grid, background)
    per = np.zeros(inner)
    for idx in np.ndindex(inner):
        i = tuple(a + 1 for a in idx)
        ginv = np.linalg.inv(metric[idx])
        vol = volume[idx]
        linear = (1.0 / ginv[0, 0]) * (
            ginv[1, 1] * cross(i, 2, 3)
            + ginv[1, 0] * (cross(i, 0, 3) + cross(i, 1, 3))
            + ginv[0, 1] * (cross(i, 0, 2) - cross(i, 1, 2))
        )
        bracket = per_node_bracket(d1(i, 0) + d1(i, 1), d1(i, 2), field.hbar)
        res = d2(i, 0) - d2(i, 1) + linear + (1.0 / (vol * ginv[0, 0])) * bracket
        per[idx] = res.l2_norm()
    return per


# (y, yt, z, zt) grid with 1 x 2 x 2 x 1 interior nodes
MIXING_GRID = SpacetimeGrid(
    {
        "y": np.linspace(0.0, 0.2, 3),
        "yt": np.linspace(-0.1, 0.1, 4),
        "z": np.linspace(0.2, 0.4, 4),
        "zt": np.linspace(0.1, 0.3, 3),
    }
)


def mixing_field(grid, hbar=2 * np.pi / 6, band=8, torus_n=24):
    """A field on a (y, yt, z, zt) grid that is not a solution: every pair
    of axes mixes, so each stencil and each inverse-metric entry shows in
    the residual."""
    sol = example_solution(hbar)

    def vals(point, P, Q):
        y, yt, z, zt = point
        mixed = (yt * z + 0.5 * yt * zt + 0.7 * y * zt) * np.cos(P + Q + 0.3)
        return sol.evaluate(y + 0.4 * yt * z, z + zt + 0.3 * y * zt, P, Q) + mixed

    return GriddedFourierField.sample(grid, vals, band, hbar, torus_n=torus_n)


def mixing_background():
    return KahlerBackground(
        potential=lambda pt: pt[0] * pt[2] + pt[1] * pt[3] + 0.3 * pt[0] * pt[1] * pt[2] * pt[3],
        volume=lambda pt: 1.0 + 0.5 * pt[1],
    )


def test_kahler_residual_equals_per_node_reference():
    field = mixing_field(MIXING_GRID)
    background = mixing_background()
    got = residual_me_kahler(field, background).per_point
    want = per_node_kahler(field, background)
    assert got.shape == (1, 2, 2, 1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def per_node_flat(field):
    """Flat doubled residual per node over sparse fields, as reference, and
    the largest l2 norm of the terms that cancel in it."""
    inner = tuple(s - 2 for s in field.grid.shape)
    d1, _, cross = node_stencils(field)
    per = np.zeros(inner)
    scale = 0.0
    for idx in np.ndindex(inner):
        i = tuple(a + 1 for a in idx)
        linear = cross(i, 0, 2) + cross(i, 1, 3)
        bracket = per_node_bracket(d1(i, 0), d1(i, 1), field.hbar)
        per[idx] = (linear + bracket).l2_norm()
        scale = max(scale, linear.l2_norm() + bracket.l2_norm())
    return per, scale


@pytest.mark.parametrize("hbar", [2 * np.pi / 6, 0.0])
def test_flat_residual_equals_per_node_reference(hbar):
    sol = example_solution(hbar)
    grid = SpacetimeGrid(
        {
            "w": np.linspace(0.0, 0.2, 3),
            "z": np.linspace(0.2, 0.4, 4),
            "wt": np.linspace(-0.1, 0.1, 4),
            "zt": np.linspace(0.1, 0.3, 3),
        }
    )

    def vals(point, P, Q):
        # not a solution: every pair of axes mixes, so each mixed stencil and
        # both bracket operands show in the residual
        w, z, wt, zt = point
        mixed = (wt * z + 0.5 * wt * zt + 0.7 * w * zt + w * z) * np.cos(P + Q + 0.3)
        return sol.evaluate(w + 0.4 * wt * z, z + zt + 0.3 * w * zt, P, Q) + mixed

    field = GriddedFourierField.sample(grid, vals, 8, hbar, torus_n=24)
    got = residual_me_flat(field).per_point
    want, scale = per_node_flat(field)
    assert got.shape == (1, 2, 2, 1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("hbar", [0.25, 0.0])
def test_every_gridded_residual_takes_its_bracket_in_one_kernel_pass(hbar, monkeypatch):
    from startorus import master_equation

    flat_grid, kahler_grid = matched_pair()

    def flat_vals(point, P, Q):
        return quadratic_evaluator(*point, P, Q)

    def kahler_vals(point, P, Q):
        y, yt, z, zt = point
        return quadratic_evaluator(0.5 * (y + yt), z, 0.5 * (y - yt), zt, P, Q)

    hp = hp_test_field(hbar)
    flat = GriddedFourierField.sample(flat_grid, flat_vals, 2, hbar, torus_n=16)
    kahler = GriddedFourierField.sample(kahler_grid, kahler_vals, 2, hbar, torus_n=16)
    calls = []
    kernel = master_equation._fft_rows
    monkeypatch.setattr(
        master_equation, "_fft_rows", lambda *a, **k: calls.append(1) or kernel(*a, **k)
    )
    for residual in (
        lambda: residual_moyal_hp(hp),
        lambda: residual_me_flat(flat),
        lambda: residual_me_kahler(kahler, KahlerBackground.flat()),
    ):
        calls.clear()
        assert residual().sup > 0
        assert len(calls) == 1


def test_degenerate_metric_aborts_with_location():
    # degenerate on the interior nodes with z > 0.3 only, the second of the
    # two z nodes: the first such node in C order is (0, 0, 1, 0)
    degenerate = KahlerBackground(
        metric_fn=lambda pt: [[1.0, 1.0], [1.0, np.where(pt[1] > 0.3, 1.0 + 1e-12, 2.0)]]
    )
    with pytest.raises(SingularMetricError) as want:
        per_node_background(MIXING_GRID, degenerate)
    with pytest.raises(SingularMetricError) as got:
        residual_me_kahler(mixing_field(MIXING_GRID), degenerate)
    assert str(got.value) == str(want.value)
    assert got.value.location == want.value.location
    y, yt, z, zt = (float(a[i]) for a, i in zip(MIXING_GRID.axes, (1, 1, 2, 1)))
    assert want.value.location == (0.5 * (y + yt), z, 0.5 * (y - yt), zt)
    assert all(type(c) is float for c in got.value.location)


def test_doubled_axis_guards():
    hbar = 0.25
    flat_grid, kahler_grid = matched_pair()

    def vals(point, P, Q):
        return np.sin(P) * point[0]

    f_flat = GriddedFourierField.sample(flat_grid, vals, 2, hbar, torus_n=16)
    f_kahler = GriddedFourierField.sample(kahler_grid, vals, 2, hbar, torus_n=16)
    with pytest.raises(ValueError):
        residual_me_flat(f_kahler)
    with pytest.raises(ValueError):
        residual_me_kahler(f_flat, KahlerBackground.flat())


# ---------------------------------------------------------------------------
# residuals on the occupied mode rows, against the full-window stencils

def full_window_bracket_residual(field, linear, left, right, weight=1.0):
    """Per-node norms as `_bracket_residual` took them on whole (2R+1, 2R+1)
    windows, before the residuals ran on row slabs, frozen as the reference."""
    from startorus import fourier

    band = (linear.shape[-1] - 1) // 2
    first, bracket = fourier._fft_rows(left, right, fourier._bracket_weight(field.hbar).split)
    rows = fourier._occupied_rows(linear)
    lin = (rows.start - band, rows.stop - band)
    spans = [s for s in ((first, first + bracket.shape[-2]), lin) if s[0] < s[1]]
    lo = min((s[0] for s in spans), default=0)
    hi = max((s[1] for s in spans), default=0)
    res = np.zeros(linear.shape[:-2] + (hi - lo, 4 * band + 1), dtype=np.complex128)
    res[..., first - lo : first - lo + bracket.shape[-2], :] = (
        np.asarray(weight)[..., None, None] * bracket
    )
    res[..., lin[0] - lo : lin[1] - lo, band : 3 * band + 1] += linear[..., rows, :]
    return np.sqrt(np.sum(np.abs(res) ** 2, axis=(-2, -1)))


def full_window_moyal_hp(field):
    grid, v = field.grid, field.values
    return full_window_bracket_residual(
        field,
        grid_diff2(v, grid, "w") + grid_diff2(v, grid, "z"),
        grid_diff(v, grid, "w"),
        grid_diff(v, grid, "z"),
    )


def full_window_me_flat(field):
    grid, v = field.grid, field.values
    return full_window_bracket_residual(
        field,
        grid_cross_diff(v, grid, "w", "wt") + grid_cross_diff(v, grid, "z", "zt"),
        grid_diff(v, grid, "w"),
        grid_diff(v, grid, "z"),
    )


def per_node_background(grid, background):
    """Metric blocks and volumes on the interior nodes of a (y, yt, z, zt)
    grid, one node at a time with its det check, as `residual_me_kahler`
    read them before the background took arrays: frozen as the reference."""
    inner = tuple(s - 2 for s in grid.shape)
    metric, vol = np.empty(inner + (2, 2)), np.empty(inner)
    for idx in np.ndindex(inner):
        y, yt, z, zt = (float(a[i + 1]) for a, i in zip(grid.axes, idx))
        w_pt = (0.5 * (y + yt), z, 0.5 * (y - yt), zt)
        if background.metric_fn is not None:
            metric[idx] = np.asarray(background.metric_fn(w_pt), dtype=np.float64)
        else:
            for a in range(2):
                for b in range(2):
                    metric[idx + (a, b)] = cross_diff(background.potential, w_pt, a, 2 + b, 1e-4)
        det = float(np.linalg.det(metric[idx]))
        if abs(det) < 1e-10:
            raise SingularMetricError(f"metric block degenerate (det={det!r})", location=w_pt)
        vol[idx] = background.volume(w_pt)
    return metric, vol


def full_window_me_kahler(field, metric, vol):
    grid, v = field.grid, field.values
    ginv = np.moveaxis(np.linalg.inv(metric), (-2, -1), (0, 1))[..., None, None]
    (g_wtw, g_wtz), (g_ztw, g_ztz) = ginv

    def cross(a, b):
        return grid_cross_diff(v, grid, a, b)

    linear = (grid_diff2(v, grid, "y") - grid_diff2(v, grid, "yt")) + (1.0 / g_wtw) * (
        g_ztz * cross("z", "zt")
        + g_ztw * (cross("y", "zt") + cross("yt", "zt"))
        + g_wtz * (cross("y", "z") - cross("yt", "z"))
    )
    return full_window_bracket_residual(
        field,
        linear,
        grid_diff(v, grid, "y") + grid_diff(v, grid, "yt"),
        grid_diff(v, grid, "z"),
        1.0 / (vol * g_wtw[..., 0, 0]),
    )


def recorded(log, name, fn):
    """fn of a point, appending (name, the point's broadcast shape, result)
    to log on every call."""

    def call(point):
        log.append((name, np.broadcast_shapes(*map(np.shape, point)), fn(point)))
        return log[-1][2]

    return call


def spied(background, log):
    """background whose metric and volume calls are `recorded` in log."""
    spy = KahlerBackground(background.potential, background.metric_fn, background.volume)
    spy.metric = recorded(log, "metric", spy.metric)
    spy.volume = recorded(log, "volume", spy.volume)
    return spy


def assert_slabs_match_full_windows(field, background=None):
    if background is not None:
        # one metric and one volume call, bit-identical to the per-node loop
        log = []
        got = residual_me_kahler(field, spied(background, log))
        metric, vol = per_node_background(field.grid, background)
        assert [entry[:2] for entry in log] == [("metric", vol.shape), ("volume", vol.shape)]
        seen = {name: result for name, _, result in log}
        assert seen["metric"].shape == metric.shape
        assert seen["metric"].tobytes() == metric.tobytes()
        seen_vol = np.broadcast_to(np.asarray(seen["volume"], dtype=np.float64), vol.shape)
        assert seen_vol.tobytes() == vol.tobytes()
        want = full_window_me_kahler(field, metric, vol)
    elif field.grid.names == ("w", "z"):
        got, want = residual_moyal_hp(field), full_window_moyal_hp(field)
    else:
        got, want = residual_me_flat(field), full_window_me_flat(field)
    assert got.per_point.shape == want.shape
    assert got.per_point.tobytes() == want.tobytes()
    return got.per_point


def occupied_m1(field):
    """The first and last m1 occupied at some node of the field."""
    from startorus import fourier

    rows = fourier._occupied_rows(field.values)
    return rows.start - field.band_limit, rows.stop - 1 - field.band_limit


def verify_me_field(hbar, h, band=24):
    """The grid and field `verify-me` takes its residual on."""
    z = SpacetimeGrid.regular({"z": (0.1, 0.9)}, h).axis("z")
    grid = SpacetimeGrid({"w": np.linspace(-0.3, 0.3, 3), "z": z})
    return example_solution(hbar).gridded(grid, band)


@pytest.mark.parametrize("hbar", [0.0, 1e-3, 2 * np.pi / 8])
@pytest.mark.parametrize("h", [0.05, 0.025])
def test_verify_me_residual_is_bit_identical_to_the_full_windows(hbar, h):
    field = verify_me_field(hbar, h)
    assert occupied_m1(field) == (-1, 1)
    assert assert_slabs_match_full_windows(field).max() > 0


# the doubled_me section's grids and inputs, per benchmark workload, at one
# fixed placement (w0, z0)
DOUBLED_SIZES = {
    "cli-studies": {"band": 8, "torus_n": 20, "n": 8},
    "lib-algebra": {"band": 10, "torus_n": 24, "n": 12},
}


def doubled_grids(w0=0.07, z0=0.21, hz=0.05):
    flat = [
        SpacetimeGrid(
            {
                "w": w0 + np.linspace(-0.1, 0.1, 3),
                "z": z0 + np.arange(0.0, 0.2001, step),
                "wt": np.linspace(-0.1, 0.1, 3),
                "zt": 0.1 + np.arange(0.0, 0.2001, step),
            }
        )
        for step in (hz, hz / 2.0)
    ]
    kahler = SpacetimeGrid(
        {
            "y": w0 + np.linspace(-0.1, 0.1, 3),
            "yt": np.linspace(-0.1, 0.1, 3),
            "z": z0 + np.linspace(0.0, 0.2, 5),
            "zt": np.linspace(0.1, 0.3, 5),
        }
    )
    return flat, kahler


def doubled_potential(pt, eps=0.3):
    w, z, wt, zt = pt
    return w * wt + z * zt + eps * (w * wt) ** 2 + eps * w * z * wt * zt


@pytest.mark.parametrize("workload", sorted(DOUBLED_SIZES))
def test_doubled_residuals_are_bit_identical_to_the_full_windows(workload):
    size = DOUBLED_SIZES[workload]
    hbar = 2 * np.pi / size["n"]
    sol = example_solution(hbar)
    flat_grids, kahler_grid = doubled_grids()
    for grid in flat_grids:
        field = GriddedFourierField.sample(
            grid,
            lambda pt, P, Q: sol.evaluate(pt[0] + pt[2], pt[1] + pt[3], P, Q),
            size["band"],
            hbar,
            torus_n=size["torus_n"],
        )
        assert occupied_m1(field) == (-1, 1)
        assert_slabs_match_full_windows(field)
    field = GriddedFourierField.sample(
        kahler_grid,
        lambda pt, P, Q: sol.evaluate(pt[0], pt[2] + pt[3], P, Q),
        size["band"],
        hbar,
        torus_n=size["torus_n"],
    )
    assert occupied_m1(field) == (-1, 1)
    assert_slabs_match_full_windows(field, KahlerBackground(potential=doubled_potential))


@pytest.mark.parametrize("fine", [False, True])
def test_non_solution_residual_is_bit_identical_to_the_full_windows(fine):
    hbar = 2 * np.pi / 5
    sol = example_solution(hbar)

    def vals(point, P, Q):
        w, z = point
        return sol.evaluate(w, z, P, Q) + 0.1 * z**2 * np.sin(P)

    grid = hp_grids(0.1)[fine]
    field = GriddedFourierField.sample(grid, vals, band_limit=24, hbar=hbar, torus_n=64)
    assert assert_slabs_match_full_windows(field).min() > 0.05


def test_zero_fields_have_zero_residuals_on_empty_slabs():
    hp = GriddedFourierField(hp_grids(0.1)[0], np.zeros((3, 5, 9, 9)), 0.5)
    flat_grid, kahler_grid = matched_pair()
    flat = GriddedFourierField(flat_grid, np.zeros((3,) * 4 + (5, 5)), 0.5)
    kahler = GriddedFourierField(kahler_grid, np.zeros((3,) * 4 + (5, 5)), 0.0)
    for field, background in ((hp, None), (flat, None), (kahler, KahlerBackground.flat())):
        per = assert_slabs_match_full_windows(field, background)
        assert not per.any()


@pytest.mark.parametrize("hbar", [0.0, 0.7])
def test_residuals_on_a_slab_with_empty_rows_inside(hbar):
    # rows m1 = -1 and +5 of a band-6 window: the slab from -1 to 5 holds
    # five empty rows, and each operand is trimmed to its own rows
    rng = np.random.default_rng(83)
    band = 6

    def two_rows(shape):
        values = np.zeros(shape + (2 * band + 1, 2 * band + 1), dtype=np.complex128)
        for m1 in (-1, 5):
            values[..., band + m1, :] = rng.normal(size=values.shape[:-2] + (2 * band + 1,))
            values[..., band + m1, :] += 1j * rng.normal(size=values.shape[:-2] + (2 * band + 1,))
        return values

    hp = GriddedFourierField(hp_grids(0.1)[0], two_rows((3, 5)), hbar)
    flat_grid, kahler_grid = matched_pair()
    flat = GriddedFourierField(flat_grid, two_rows((3,) * 4), hbar)
    kahler = GriddedFourierField(kahler_grid, two_rows((3,) * 4), hbar)
    background = KahlerBackground(potential=doubled_potential, volume=lambda pt: 1.0 + pt[1])
    for field, bg in ((hp, None), (flat, None), (kahler, background)):
        assert occupied_m1(field) == (-1, 5)
        assert assert_slabs_match_full_windows(field, bg).min() > 0


# ---------------------------------------------------------------------------
# the Kahler background on arrays of nodes, against the per-node loop


def doubled_block(pt, eps=0.3):
    """Closed-form mixed Hessian d_a d_{b~} K of `doubled_potential`."""
    w, z, wt, zt = pt
    return np.array(
        [
            [1.0 + 4.0 * eps * w * wt + eps * z * zt, eps * z * wt],
            [eps * w * zt, 1.0 + eps * w * wt],
        ]
    )


KAHLER_BACKGROUNDS = {
    "potential": lambda: KahlerBackground(potential=doubled_potential),
    "potential and volume": mixing_background,
    "closed form": lambda: KahlerBackground(metric_fn=doubled_block),
    "flat": KahlerBackground.flat,
    "float and array entries": lambda: KahlerBackground(
        metric_fn=lambda pt: [[1.0, 0.3 * pt[1]], [0.3 * pt[1], 1.0]],
        volume=lambda pt: 1.0 + pt[0] * pt[3],
    ),
}


@pytest.mark.parametrize("background", sorted(KAHLER_BACKGROUNDS))
@pytest.mark.parametrize("grid", ["doubled", "mixing"])
def test_kahler_background_on_arrays_is_bit_identical_to_the_node_loop(background, grid):
    grid = doubled_grids()[1] if grid == "doubled" else MIXING_GRID
    field = mixing_field(grid)
    assert assert_slabs_match_full_windows(field, KAHLER_BACKGROUNDS[background]()).min() > 0


def test_kahler_background_callables_are_called_once_on_all_nodes():
    field = mixing_field(MIXING_GRID)
    log, inner = [], (1, 2, 2, 1)
    volume = recorded(log, "volume", lambda pt: 1.0 + pt[1])
    potential = recorded(log, "K", doubled_potential)
    residual_me_kahler(field, KahlerBackground(potential, volume=volume))
    assert [entry[:2] for entry in log] == [("K", inner)] * 16 + [("volume", inner)]
    log.clear()
    metric_fn = recorded(log, "g", doubled_block)
    residual_me_kahler(field, KahlerBackground(metric_fn=metric_fn, volume=volume))
    assert [entry[:2] for entry in log] == [("g", inner), ("volume", inner)]


def test_verify_me_stencils_see_the_three_occupied_rows(monkeypatch, capsys):
    from startorus import master_equation
    from startorus.cli import main

    shapes = []
    stencil = master_equation.grid_diff2
    monkeypatch.setattr(
        master_equation,
        "grid_diff2",
        lambda v, grid, axis: shapes.append(v.shape[-2:]) or stencil(v, grid, axis),
    )
    assert main(["verify-me"]) == 0
    capsys.readouterr()
    # two grids, two second differences each, on rows -1..1 of 49
    assert shapes == [(3, 49)] * 4
