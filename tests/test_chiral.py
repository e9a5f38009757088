"""Finite-rank chiral fields, their large-rank limit, and Bessel machinery."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import jv

import startorus
from startorus import (
    MatrixField,
    SpacetimeGrid,
    basis_matrix,
    bessel_identity_check,
    bessel_integral,
    chi_project,
    chiral_model,
    chiral_system_check,
    convergence_study,
    example_solution,
    fourier_expansion_theta,
    freq_factor,
    matched_hbar,
    residual_chiral,
    richardson_order,
)
from startorus import chiral, master_equation
from startorus.chiral import _frobenius
from startorus.projection import _window_matrices
from startorus.master_equation import _bessel_integrals, _bessel_table, _expansion_row, _i_bound
from startorus.sine_basis import fold_mode
from startorus.numerics import grid_diff, grid_diff2

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# ---------------------------------------------------------------------------
# Bessel utilities

def test_bessel_integral_basic():
    assert bessel_integral(0, 0.0) == 0.0
    # int_0^x J_1 = 1 - J_0(x)
    for x in (0.3, 1.0, 3.7):
        assert abs(bessel_integral(1, x) - (1.0 - jv(0, x))) < 1e-12
    # odd in x at even order zero
    assert abs(bessel_integral(0, -1.3) + bessel_integral(0, 1.3)) < 1e-12


def test_bessel_integral_cache_stays_bounded():
    limit = bessel_integral.cache_info().maxsize
    assert limit is not None
    bessel_integral.cache_clear()
    try:
        for ell in range(limit + 100):  # x = 0 returns before any Bessel call
            bessel_integral(ell, 0.0)
        info = bessel_integral.cache_info()
        assert info.misses == limit + 100
        assert info.currsize <= info.maxsize
    finally:
        bessel_integral.cache_clear()


def test_bessel_integral_series_matches_quadrature():
    # adaptive quadrature of J_ell stays in the tests as the independent oracle
    from scipy.integrate import quad

    for ell in (0, 1, 2, 5, 13, 40):
        for x in (1e-3, 0.4, 1.7, 6.0, 19.5, -2.3):
            want, _ = quad(lambda t: jv(ell, t), 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=400)
            assert abs(bessel_integral(ell, x) - want) <= 2e-15 * max(1.0, abs(want)), (ell, x)


def test_import_loads_no_scipy():
    # importing the package and running every Bessel subcommand at its defaults
    code = (
        "import contextlib, io, sys, startorus\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from startorus.cli import main\n"
        "for cmd in ('verify-chiral', 'converge', 'bessel-check'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([cmd]) == 0, cmd\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(startorus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["[]", "[]"]


def test_bessel_table_matches_jv():
    x = np.concatenate([np.linspace(-40.0, 40.0, 161), [0.0, 1e-8, -1e-8, -1e-3, 1e-3, 39.99]])
    table = _bessel_table(400, x)
    assert table.shape == (401, x.size)
    orders = np.arange(401)[:, None]
    assert np.max(np.abs(table - jv(orders, x))) <= 1e-14
    at_zero = table[:, x == 0.0][:, 0]
    assert at_zero[0] == 1.0 and not at_zero[1:].any()
    # near 0 the leading series term (x/2)^l / l! is J_l to double precision
    # (jv is not, there), and the ratio recurrence reaches it with no branch
    tiny = [1e-40, -3e-31, 2e-30, -5e-20]
    for ell, row in enumerate(_bessel_table(5, np.array(tiny))):
        for t, got in zip(tiny, row):
            want = (t / 2.0) ** ell / math.factorial(ell)
            assert abs(got - want) <= 1e-15 * abs(want), (ell, t)
    # shape follows x, and a table to a lower order is the same table cut short
    grid = x[:6].reshape(2, 3)
    assert _bessel_table(3, grid).shape == (4, 2, 3)
    assert np.max(np.abs(_bessel_table(3, grid) - table[:4, :6].reshape(4, 2, 3))) <= 1e-15
    # from x = 1e-300, where 2k/x overflows, to far past any order of the
    # table: nothing overflows or rescales, and every value stays finite
    for t in (1e-300, 1e-30, 1e-3, 400.0):
        far = _bessel_table(500, t)
        assert np.isfinite(far).all(), t
        assert np.max(np.abs(far - jv(np.arange(501), t))) <= 1e-14, t


def test_a_points_bessel_values_do_not_depend_on_its_batch():
    z = np.array([0.0, 1e-9, -1e-9, 0.37, -1.25, 2.5, -6.1, 13.0, 39.7, -40.3])
    table = _bessel_table(80, z)
    integrals = _bessel_integrals(80, z)
    windows = example_solution(0.3).windows(0.2, z, 12)
    fields = {n: chiral_model(n).field_matrix(0.2, z) for n in (2, 3, 5, 8, 16)}
    for i, zi in enumerate(z):
        assert np.array_equal(_bessel_table(80, zi), table[:, i]), zi
        assert np.array_equal(_bessel_integrals(80, zi), integrals[:, i]), zi
        assert np.array_equal(example_solution(0.3).windows(0.2, zi, 12), windows[i]), zi
        for n, field in fields.items():
            assert np.array_equal(chiral_model(n).field_matrix(0.2, zi), field[i]), (n, zi)
    # a point's table above its own order is 0
    per_point = _bessel_table(np.array([3, 7]), np.array([0.5, -2.0]))
    assert per_point.shape == (8, 2)
    assert not per_point[4:, 0].any()
    assert np.array_equal(per_point[:, 1], _bessel_table(7, -2.0))


def test_bessel_functions_reject_non_finite_arguments():
    with pytest.raises(ValueError, match="finite arguments, got nan"):
        bessel_integral(2, float("nan"))
    with pytest.raises(ValueError, match="finite arguments, got inf"):
        fourier_expansion_theta(0.5, 0.1, float("inf"), band_limit=4)
    with pytest.raises(ValueError, match="finite arguments"):
        _bessel_table(3, np.array([0.5, -np.inf]))
    with pytest.raises(ValueError, match="finite"):
        chiral_model(3).field_matrix(0.0, np.nan)


def scalar_i_bound(ell: int, x: float) -> float:
    """`master_equation._i_bound` as the scalar function it was before it
    took arrays, frozen here as the reference."""
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ell <= ax + 1.0:
        return ax  # |J_ell| <= 1
    # |J_ell(t)| <= (t/2)^ell / ell! once ell clears the argument
    if ax / 2.0 == 0.0:
        return 0.0  # the bound underflows: |x| is the least subnormal
    log_b = (ell + 1) * math.log(ax / 2.0) - math.lgamma(ell + 2) + math.log(2.0)
    return math.exp(log_b)


def test_i_bound_really_bounds():
    for ell in range(13):
        for x in (0.5, 2.0, 5.0):
            assert abs(bessel_integral(ell, x)) <= scalar_i_bound(ell, x) + 1e-15


def test_i_bound_is_the_scalar_bound_elementwise():
    ell = np.arange(201)[:, None]
    xs = np.array([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 2.0, -2.0, 40.0, -40.0, 1e3, -1e3])
    got = _i_bound(ell, xs)
    want = np.array([[scalar_i_bound(int(e), float(x)) for x in xs] for e in ell[:, 0]])
    assert got.shape == want.shape == (201, xs.size)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    # the |x| branch up to order |x| + 1, and 0 at x = 0 and where |x|/2 underflows
    exact = (ell <= np.abs(xs) + 1.0) | (np.abs(xs) / 2.0 == 0.0)
    assert exact.sum() > 40 and np.array_equal(got[exact], want[exact])
    assert np.array_equal(_i_bound(ell[:, 0], 0.0), np.zeros(201))
    assert _i_bound(2, -1.5) == 1.5 and _i_bound(80, 5e-324) == 0.0


def test_bessel_identity_report():
    rep = bessel_identity_check()
    assert rep.second_dev <= 1e-12
    assert rep.standard_first_dev <= 1e-10
    assert rep.printed_first_dev > 0.5  # fails at zeta = 0 by a full unit
    assert rep.first_identity_form == "standard"
    d = rep.to_dict()
    assert d["first_identity_form"] == "standard"
    assert d["terms"] == 40


@pytest.mark.parametrize(
    "zeta_max,terms", [(np.inf, 40), (np.nan, 40), (0.0, 40), (-1.0, 40), (4.0, 4)]
)
def test_bessel_identity_check_rejects_bad_ranges(zeta_max, terms):
    # an infinite zeta_max once gave a nan report and a RuntimeWarning
    with pytest.raises(ValueError, match="finite zeta_max > 0 and terms >= 5"):
        bessel_identity_check(zeta_max=zeta_max, terms=terms)


# ---------------------------------------------------------------------------
# rank-2 closed form

def pauli_field(w, z) -> np.ndarray:
    w = np.asarray(w)[..., None, None]
    z = np.asarray(z)[..., None, None]
    c = np.cos(2.0 * z / np.pi)
    s = np.sin(2.0 * z / np.pi)
    return (1.0 / 2j) * c * SIGMA1 + (w / (np.pi * 1j)) * SIGMA2 + (1.0 / 2j) * s * SIGMA3


def test_rank_two_equals_pauli_combination():
    model = chiral_model(2)
    ws = np.linspace(-1.0, 1.0, 65)[:, None]
    zs = np.linspace(-1.0, 1.0, 65)[None, :]
    got = model.field_matrix(ws, zs)
    assert got.shape == (65, 65, 2, 2)
    worst = float(np.max(np.abs(got - pauli_field(ws, zs))))
    assert worst <= 1e-9, worst


def test_matrix_field_matches_pointwise_assembly():
    model = chiral_model(3)
    grid = SpacetimeGrid({"w": np.linspace(-0.4, 0.4, 5), "z": np.linspace(0.0, 1.0, 6)})
    mf = model.matrix_field(grid)
    assert isinstance(mf, MatrixField)
    for i, w in enumerate(grid.axis("w")):
        for j, z in enumerate(grid.axis("z")):
            assert np.max(np.abs(mf.values[i, j] - model.field_matrix(w, z))) < 1e-13
    with pytest.raises(ValueError):
        model.matrix_field(SpacetimeGrid({"z": [0.0, 0.1], "w": [0.0, 0.1]}))
    with pytest.raises(ValueError):
        chiral_model(1)


# ---------------------------------------------------------------------------
# the paper's explicit even/odd families, the folded field's independent oracle

def explicit_families(n):
    """The rank-n field as lead + w w_mat + sum_j c_j(z) M_j.

    Returns lead, w_mat and label -> (sign, term, M_j), with
    c_j(z) = (sign / sigma) sum_k weight I_ell(z sigma) over
    (weight, ell) = term(k), k = 0, 1, ...; ell grows strictly with k."""
    L = lambda a, b: basis_matrix(n, a, b)  # noqa: E731
    half_i = 0.5 / 1j
    fams = {}
    if n % 2 == 0:
        half = n // 2
        for ell in range(1, n):
            nu = (ell + 1) // 2
            sign, part = ((-1.0) ** nu, 0.5) if ell % 2 else ((-1.0) ** (nu + 1), half_i)
            fams[f"a{ell}"] = (
                sign,
                lambda k, e=ell: ((-1.0) ** (half * k), e + n * k),
                part * (L(1, ell) + L(n - 1, n - ell) + L(n - 1, ell) + L(1, n - ell)),
            )
        fams["a0"] = (
            -1.0,
            lambda k: (1.0, 0) if k == 0 else (2.0 * (-1.0) ** (half * k), n * k),
            half_i * (L(1, 0) + L(n - 1, 0)),
        )
    else:
        parity = (n + 1) // 2
        for nu in range(1, (n - 1) // 2 + 1):
            odd, even = 2 * nu - 1, 2 * nu
            plain = lambda e: lambda k: ((-1.0) ** k, e + 2 * n * k)  # noqa: E731
            shifted = lambda e: lambda k: ((-1.0) ** k, e + n * (2 * k + 1))  # noqa: E731
            fams[f"a{odd}"] = (
                (-1.0) ** nu,
                plain(odd),
                0.5 * (L(1, odd) - L(n - 1, n - odd) + L(n - 1, odd) + L(1, n - odd)),
            )
            fams[f"b{odd}"] = (
                (-1.0) ** (nu + parity),
                shifted(odd),
                half_i * (L(1, odd) + L(n - 1, n - odd) + L(1, n - odd) - L(n - 1, odd)),
            )
            fams[f"a{even}"] = (
                (-1.0) ** (nu + parity),
                shifted(even),
                0.5 * (L(1, even) + L(n - 1, n - even) + L(1, n - even) - L(n - 1, even)),
            )
            fams[f"b{even}"] = (
                (-1.0) ** (nu + 1),
                plain(even),
                half_i * (L(1, even) - L(n - 1, n - even) + L(n - 1, even) + L(1, n - even)),
            )
        fams["a0"] = ((-1.0) ** parity, lambda k: ((-1.0) ** k, n * (2 * k + 1)), L(1, 0) - L(n - 1, 0))
        fams["b0"] = (
            -1.0,
            lambda k: (1.0, 0) if k == 0 else (2.0 * (-1.0) ** k, 2 * n * k),
            half_i * (L(1, 0) + L(n - 1, 0)),
        )
    lead_sign = 1.0 if n % 2 == 0 else -1.0
    lead = (np.pi / 4.0) * (L(1, 1) + lead_sign * L(n - 1, n - 1))
    w_mat = -half_i * (L(0, 1) + L(0, n - 1))
    return lead, w_mat, fams


def family_coefficient(sign, term, sigma, z: float) -> float:
    """c_j at one z: the terms up to the first k >= 1 whose order clears
    |x| + 2 and bounds below 1e-13 / 4, as the families were cut off."""
    x = z * sigma
    count = next(
        k
        for k in range(1, 302)
        if term(k)[1] > abs(x) + 2.0 and 4.0 * scalar_i_bound(term(k)[1], x) < 1e-13
    )
    terms = [term(k) for k in range(count)]
    table = _bessel_integrals(terms[-1][1], x)
    return sign / sigma * sum(weight * table[ell] for weight, ell in terms)


def explicit_z_part(n, zs):
    """lead + sum_j c_j(z) M_j at every z of zs, each c_j taken one z at a time."""
    sigma = freq_factor(matched_hbar(n))
    lead, _, fams = explicit_families(n)
    out = np.zeros(np.shape(zs) + (n, n), dtype=complex)
    out += lead
    for sign, term, mat in fams.values():
        coef = [family_coefficient(sign, term, sigma, float(z)) for z in np.ravel(zs)]
        out += np.reshape(coef, np.shape(zs))[..., None, None] * mat
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_explicit_families_agree_with_the_folded_field(n):
    ws = np.linspace(-1.0, 1.0, 5)[:, None]
    zs = np.linspace(-2.0, 2.0, 9)[None, :]  # z = 0 among them
    lead, w_mat, _ = explicit_families(n)
    want = explicit_z_part(n, zs) + ws[..., None, None] * w_mat
    got = chiral_model(n).field_matrix(ws, zs)
    assert got.shape == want.shape == (5, 9, n, n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(chiral_model(n).w_mat - w_mat)) <= 1e-16


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_bessel_coefficient_array_equals_scalar_calls(n):
    # the field over an array of z against the families' coefficients taken
    # one scalar z at a time, and against the field at each scalar z
    zs = np.concatenate([np.linspace(-1.0, 2.0, 31), [0.0, 1e-9]])
    model = chiral_model(n)
    got = model.field_matrix(0.0, zs)
    want = explicit_z_part(n, zs)
    scale = np.max(np.abs(want))
    assert got.shape == zs.shape + (n, n)
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    for z, value in zip(zs, got):
        assert np.max(np.abs(value - model.field_matrix(0.0, float(z)))) <= 1e-15 * scale, z


@pytest.mark.parametrize("n", [2, 3, 8])
def test_field_matrix_sums_the_z_part_first(n):
    # the field is lead + w w_mat + sum_j c_j(z) M_j in any order: the
    # families summed in that order over the full (w, z) array agree
    lead, w_mat, fams = explicit_families(n)
    sigma = freq_factor(matched_hbar(n))
    ws = np.linspace(-1.0, 1.0, 9)[:, None]
    zs = np.linspace(0.0, 2.0, 11)[None, :]
    want = np.zeros((9, 11, n, n), dtype=complex)
    want += lead
    want += ws[..., None, None] * w_mat
    for sign, term, mat in fams.values():
        coef = np.array([[family_coefficient(sign, term, sigma, z) for z in zs[0]]])
        want += coef[..., None, None] * mat
    model = chiral_model(n)
    got = model.field_matrix(ws, zs)
    scale = np.max(np.abs(want))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    # the field is affine in w with slope w_mat
    slope = got - model.field_matrix(0.0, zs)
    assert np.max(np.abs(slope - ws[..., None, None] * model.w_mat)) <= 1e-14 * scale


def brute_force_kept(n, x, cut_off):
    # the least l, scanned from 0, past |x| + 2 with 4 scalar_i_bound(l, x) below the
    # cut-off, and never fewer than one fold period of orders
    period = n if n % 2 == 0 else 2 * n
    least = next(l for l in range(5000) if l > abs(x) + 2.0 and 4.0 * scalar_i_bound(l, x) < cut_off)
    return max(least, period)


def test_coefficient_truncation_matches_brute_force(monkeypatch):
    xs = np.array([0.0, 1e-9, -0.3, 0.8, 2.5, -7.25, 30.0, 91.5])
    for n in (2, 3, 8, 9, 16):
        want = [brute_force_kept(n, float(x), 1e-13) for x in xs]
        assert chiral._kept_orders(n, xs).tolist() == want, n
    assert chiral._kept_orders(9, np.array([0.1]))[0] == 18  # one odd-rank period
    # with a cut-off high enough to see, the field is chi_n of exactly the
    # expansion modes (+-1, +-l), l below max(L(x), P): the next one counts
    monkeypatch.setattr(chiral, "_CUT_OFF", 1e-3)
    for n, w, z in ((2, 0.3, 1.9), (3, -0.4, 2.7), (4, 0.1, -3.1)):
        model = chiral_model(n)
        kept = brute_force_kept(n, z * model.sigma, 1e-3)
        assert chiral._kept_orders(n, np.array([z * model.sigma]))[0] == kept
        fold = [
            chi_project(fourier_expansion_theta(matched_hbar(n), w, z, band).field, n)
            for band in (kept - 1, kept)
        ]
        got = model.field_matrix(w, z)
        assert np.max(np.abs(got - fold[0])) <= 1e-14 * np.max(np.abs(got)), n
        assert np.max(np.abs(got - fold[1])) > 1e-9, n


def scalar_kept_orders(n, x):
    """`chiral._kept_orders` as a scalar loop of `scalar_i_bound` calls over
    the unique |x|, as it was written before the order table, frozen here."""
    period = n if n % 2 == 0 else 2 * n
    limit = 301 * period
    ax, back = np.unique(np.abs(x), return_inverse=True)
    kept = np.empty(ax.size, dtype=np.int64)
    for i, a in enumerate(ax.tolist()):
        ell = math.floor(a + 2.0) + 1
        while ell <= limit and not 4.0 * scalar_i_bound(ell, a) < chiral._CUT_OFF:
            ell += 1
        if ell > limit:
            raise ValueError(f"no Bessel cut-off below order {limit} at x = {a!r}")
        kept[i] = max(ell, period)
    return kept[back].reshape(np.shape(x))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_kept_orders_equal_the_scalar_loop(monkeypatch, n):
    sigma = chiral_model(n).sigma
    # the z of verify-chiral's fine grids, the benchmark's shifted ones too,
    # and x just past each integer, where the first order tried steps up
    z = np.concatenate([np.linspace(0.0, 2.0, 129) + z0 / 32.0 for z0 in range(5)])
    past = np.nextafter(np.arange(1.0, 120.0), np.inf)
    least = np.array([5e-324, -5e-324])  # |x| / 2 rounds to 0
    for x in (z * sigma, past, -past, np.arange(0.0, 120.0), least):
        assert np.array_equal(chiral._kept_orders(n, x), scalar_kept_orders(n, x))
    # the last float below and the first at each step of the scalar rule's
    # order, where rounding can move a search in a table of the rule by one
    grid = np.linspace(0.0, 40.0, 401)
    kept = scalar_kept_orders(n, grid)
    steps = []
    for lo, hi in zip(grid[:-1][kept[:-1] < kept[1:]], grid[1:][kept[:-1] < kept[1:]]):
        below = scalar_kept_orders(n, np.array([lo]))[0]
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if scalar_kept_orders(n, np.array([mid]))[0] == below else (lo, mid)
        steps += [lo, hi]
    assert len(steps) > 40
    steps = np.array(steps)
    assert np.array_equal(chiral._kept_orders(n, steps), scalar_kept_orders(n, steps))
    x = np.linspace(-40.0, 40.0, 801)
    for cut_off in (1e-3, 1e-8):
        monkeypatch.setattr(chiral, "_CUT_OFF", cut_off)
        assert np.array_equal(chiral._kept_orders(n, x), scalar_kept_orders(n, x))


def test_kept_orders_far_above_the_period():
    # at n = 1024 the bisection starts far below the period, and L(x) passes
    # it from |x| = 735 on; past |x| ~ 2300 the scalar loop's math.exp overflows
    x = np.linspace(0.0, 2000.0, 41)
    assert np.array_equal(chiral._kept_orders(1024, x), scalar_kept_orders(1024, x))


def test_kept_orders_bisect_with_few_lgamma_calls(monkeypatch):
    # an order table up to 301 P would make 308 226 calls here
    calls, lgamma = [], math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda v: calls.append(v) or lgamma(v))
    assert chiral._kept_orders(1024, np.array([0.5])).tolist() == [1024]
    assert 0 < len(calls) < 200, len(calls)


def test_coefficient_that_never_converges_raises(monkeypatch):
    # past 301 periods of orders the cut-off gives up, at the smallest
    # offending |x|; a far-off |x| fails before any Bessel table is built
    with pytest.raises(ValueError, match=r"below order 602 at x = 425\.262007"):
        chiral_model(2).field_matrix(0.0, np.array([1.0, -700.0, 668.0, 2000.0]))
    chiral_model(2).field_matrix(0.0, 664.0)  # x = 422.7 still converges

    def no_table(*args):
        raise AssertionError("Bessel table built")

    monkeypatch.setattr(master_equation, "_bessel_table", no_table)
    with pytest.raises(ValueError, match=r"below order 1806 at x = "):
        chiral_model(3).field_matrix(0.0, 1e30)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_field_sits_in_su_n(n):
    model = chiral_model(n)
    for w, z in ((0.0, 0.0), (0.7, 0.4), (-0.5, 1.2)):
        m = model.field_matrix(w, z)
        assert np.max(np.abs(m + m.conj().T)) <= 1e-11
        assert abs(np.trace(m)) <= 1e-11


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fold_projected_expansion_equals_model(n):
    # project the torus-mode expansion at the matched deformation and
    # compare with the closed finite-rank combination
    hbar = matched_hbar(n)
    model = chiral_model(n)
    for w, z in ((0.3, 0.7), (-0.2, 1.1)):
        exp = fourier_expansion_theta(hbar, w, z, band_limit=40)
        got = chi_project(exp.field, n)
        want = model.field_matrix(w, z)
        assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# torus-mode expansion

def test_expansion_matches_solution_modes():
    hbar = 2 * np.pi / 5
    w, z = 0.3, 0.7
    exp = fourier_expansion_theta(hbar, w, z, band_limit=40)
    target = example_solution(hbar).mode_field(w, z, band_limit=40, torus_n=128)
    assert (exp.field - target).max_abs_coeff() <= 1e-8
    assert exp.field.is_real(1e-12)
    assert exp.tail_bound < 1e-10
    assert exp.band_limit == 40


def test_expansion_at_z_zero_and_validation():
    exp = fourier_expansion_theta(0.9, 0.25, 0.0, band_limit=6)
    assert abs(exp.field.coeff(1, 1) - np.pi / 4) < 1e-15
    assert abs(exp.field.coeff(0, 1) - 0.5j * 0.25) < 1e-15
    assert abs(exp.field.coeff(1, 0)) == 0.0
    assert exp.tail_bound == 0.0
    with pytest.raises(ValueError):
        fourier_expansion_theta(0.9, 0.0, 0.0, band_limit=0)
    # at the least subnormal z, |x| / 2 rounds to 0 and the bound underflows
    assert fourier_expansion_theta(1.0, 0.0, 5e-324, 4).tail_bound == 0.0


# ---------------------------------------------------------------------------
# equation residuals at finite rank

def chiral_grids(nz: int):
    return SpacetimeGrid(
        {"w": np.linspace(-0.5, 0.5, nz), "z": np.linspace(0.1, 1.1, nz)}
    )


def test_residual_second_order_in_steps():
    model = chiral_model(3)
    sups = []
    for nodes in (9, 17):
        rep = residual_chiral(model.matrix_field(chiral_grids(nodes)))
        sups.append(rep.sup)
        assert rep.label == "chiral"
        assert abs(rep.hbar - matched_hbar(3)) < 1e-15
    order = richardson_order(sups[0], sups[1])
    assert 1.7 <= order <= 2.3, order


def test_constant_field_has_zero_residual():
    grid = chiral_grids(5)
    const = 1j * np.broadcast_to(SIGMA3, (5, 5, 2, 2)).copy()
    rep = residual_chiral(MatrixField(grid, const, 2))
    assert rep.sup == 0.0


def test_residual_guards():
    model = chiral_model(2)
    tiny = SpacetimeGrid({"w": [0.0, 0.1], "z": [0.0, 0.1, 0.2]})
    with pytest.raises(ValueError):
        residual_chiral(model.matrix_field(tiny))
    swapped = SpacetimeGrid({"z": [0.0, 0.1, 0.2], "w": [0.0, 0.1, 0.2]})
    bad = MatrixField(swapped, np.zeros((3, 3, 2, 2), dtype=complex), 2)
    with pytest.raises(ValueError):
        residual_chiral(bad)


def whole_grid_residual(field):
    grid, v = field.grid, field.values
    dw = grid_diff(v, grid, "w")
    dz = grid_diff(v, grid, "z")
    return _frobenius(grid_diff2(v, grid, "w") + grid_diff2(v, grid, "z") + dw @ dz - dz @ dw)


def whole_grid_system_sups(field):
    grid, v = field.grid, field.values
    a_w = -grid_diff(v, grid, "z")
    a_z = grid_diff(v, grid, "w")
    aw_c, az_c = a_w[1:-1, 1:-1], a_z[1:-1, 1:-1]
    curv = grid_diff(a_z, grid, "w") - grid_diff(a_w, grid, "z") + aw_c @ az_c - az_c @ aw_c
    div = grid_diff(a_w, grid, "w") + grid_diff(a_z, grid, "z")
    return float(np.max(_frobenius(curv))), float(np.max(_frobenius(div)))


# 17 w nodes: 15 interior rows for the residual and 13 for the system check,
# in slabs of one row, of four rows (the last one shorter) or in one slab
@pytest.mark.parametrize("row_budget, rows", [(0.5, 1), (4.5, 4), (100, 100)])
def test_w_slabs_are_bit_identical_to_the_whole_grid(monkeypatch, row_budget, rows):
    grid = SpacetimeGrid({"w": np.linspace(-0.5, 0.5, 17), "z": np.linspace(0.1, 1.1, 11)})
    rng = np.random.default_rng(5)
    spoil = rng.standard_normal((17, 11, 4, 4)) + 1j * rng.standard_normal((17, 11, 4, 4))
    field = MatrixField(grid, chiral_model(4).matrix_field(grid).values + 0.1 * spoil, 4)
    row = field.values[0].size
    monkeypatch.setattr(chiral, "_SLAB", int(row_budget * row))
    assert max(1, chiral._SLAB // row) == rows
    rep = residual_chiral(field)
    assert rep.per_point.shape == (15, 9)
    assert np.array_equal(rep.per_point, whole_grid_residual(field))
    assert rep.sup == float(np.max(rep.per_point))
    sys_rep = chiral_system_check(field)
    assert (sys_rep.curvature_sup, sys_rep.divergence_sup) == whole_grid_system_sups(field)


def test_stencil_memory_stays_within_a_slab():
    # the cli-studies field: 129^2 nodes at n = 8, 17.0 MB
    grid = SpacetimeGrid.regular({"w": (-1.0, 1.0), "z": (0.0, 2.0)}, 1.0 / 64.0)
    field = chiral_model(8).matrix_field(grid)
    budget = field.values.nbytes / 4
    tracemalloc.start()
    try:
        residual_chiral(field)
        residual_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        chiral_system_check(field)
        system_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual_peak < budget, (residual_peak, budget)
    assert system_peak < budget, (system_peak, budget)


def random_windows(rng, n, nodes=4):
    """Dense [0, n)^2 windows, every row occupied, (0, 0) dropped."""
    window = rng.standard_normal((nodes, n, n)) + 1j * rng.standard_normal((nodes, n, n))
    window[:, 0, 0] = 0.0
    return window


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_window_norm_is_the_frobenius_norm(n):
    # distinct L_mu are trace-orthogonal with |L_mu|_F = sqrt(n) n / 2 pi
    window = random_windows(np.random.default_rng(n), n)
    mats = _window_matrices(window, n)
    assert np.allclose(chiral._window_norm(window, n), _frobenius(mats), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_structure_constant_commutator_equals_the_matrix_commutator(n):
    rng = np.random.default_rng(10 + n)
    a, b = random_windows(rng, n), random_windows(rng, n)
    ma, mb = _window_matrices(a, n), _window_matrices(b, n)
    want = ma @ mb - mb @ ma
    acc = random_windows(rng, n)
    got = chiral._add_commutator(acc.copy(), a, b, range(n), n)
    scale = np.max(np.abs(ma @ mb))
    assert np.max(np.abs(_window_matrices(got, n) - _window_matrices(acc, n) - want)) <= 1e-13 * scale
    assert np.array_equal(got[:, 0, 0], acc[:, 0, 0])  # the trace part is dropped
    # sparse operands, in either order: only their occupied entries are taken
    sparse = np.zeros_like(a)
    sparse[:, 0, 1 % n] = a[:, 0, 1 % n]
    for x, y in ((sparse, b), (b, sparse)):
        mx, my = _window_matrices(x, n), _window_matrices(y, n)
        got = _window_matrices(chiral._add_commutator(np.zeros_like(a), x, y, range(n), n), n)
        assert np.max(np.abs(got - (mx @ my - my @ mx))) <= 1e-13 * scale


def test_commutator_off_the_window_rows_raises():
    n, rows = 5, (0, 1, 4)
    a = np.zeros((1, 3, n), dtype=complex)
    a[0, 1, 2] = 1.0  # on row 1, so [a, a] would land on row 2
    with pytest.raises(ValueError, match="window row 2"):
        chiral._add_commutator(np.zeros_like(a), a, a, rows, n)


def cancelling_terms(field):
    """Per node, the larger Frobenius norm of the two parts of the residual,
    vartheta_ww + vartheta_zz and [vartheta_w, vartheta_z], which cancel."""
    grid, v = field.grid, field.values
    dw, dz = grid_diff(v, grid, "w"), grid_diff(v, grid, "z")
    lin = grid_diff2(v, grid, "w") + grid_diff2(v, grid, "z")
    return np.maximum(_frobenius(lin), _frobenius(dw @ dz - dz @ dw))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_model_residual_on_windows_equals_the_matrix_residual(n):
    model = chiral_model(n)
    grids = [SpacetimeGrid.regular({"w": (-1.0, 1.0), "z": (0.0, 2.0)}, h) for h in (0.125, 1.0 / 32.0)]
    # an off-dyadic w axis, whose differences vary from row to row by rounding
    grids.append(SpacetimeGrid({"w": np.linspace(-0.7, 0.9, 37), "z": np.linspace(0.0, 2.0, 33)}))
    for grid in grids:
        field = model.matrix_field(grid)
        want, got = residual_chiral(field), model.residual(grid)
        scale = cancelling_terms(field)
        assert got.per_point.shape == want.per_point.shape
        assert np.all(np.abs(got.per_point - want.per_point) <= 1e-12 * scale), (n, grid.steps)
        assert (got.label, got.hbar, got.steps) == (want.label, want.hbar, want.steps)
        system, oracle = model.system_check(grid), chiral_system_check(field)
        assert abs(system.curvature_sup - oracle.curvature_sup) <= 1e-12 * np.max(scale)
        assert system.divergence_sup <= 1e-12 * np.max(scale)
        assert oracle.divergence_sup <= 1e-12 * np.max(scale)
    with pytest.raises(ValueError):
        model.residual(SpacetimeGrid({"w": [0.0, 0.1], "z": [0.0, 0.1, 0.2]}))
    with pytest.raises(ValueError):
        model.system_check(chiral_grids(4))


@pytest.mark.parametrize("row_budget, rows", [(0.5, 1), (4.5, 4), (100, 100)])
def test_window_slabs_are_bit_identical_to_one_slab(monkeypatch, row_budget, rows):
    model = chiral_model(5)
    grid = SpacetimeGrid({"w": np.linspace(-0.5, 0.5, 17), "z": np.linspace(0.1, 1.1, 11)})
    whole = model.residual(grid), model.system_check(grid)
    row = 11 * len(model.rows) * 5  # window coefficients per w row
    monkeypatch.setattr(chiral, "_SLAB", int(row_budget * row))
    assert max(1, chiral._SLAB // row) == rows
    assert np.array_equal(model.residual(grid).per_point, whole[0].per_point)
    assert model.system_check(grid) == whole[1]


def slab_on_windows(model, grid, halo, equations):
    """`ChiralModel._on_windows` as it was before the one-strip form: the
    kernel over every w row of the window coefficients, per `_per_w_slab`
    slab, frozen here as the strip's reference."""
    rows, n = model.rows, model.n
    kernel = equations(
        grid,
        lambda acc, a, b: chiral._add_commutator(acc, a, b, rows, n),
        lambda c: chiral._window_norm(c, n),
    )
    zwin = model._z_windows(grid.axis("z"))
    w = np.broadcast_to(grid.axis("w")[:, None, None, None], grid.shape[:1] + zwin.shape)
    return chiral._per_w_slab(w, halo, lambda ws: kernel(zwin + ws[:, :1, :1, :1] * model.w_window))


def verify_chiral_grids():
    """verify-chiral's dyadic grids: the default spans at h = 1/64, and at
    h = 1/32 the benchmark's spans shifted by w0, z0 in steps of 1/32, every
    w0 in [-4, 4] and every z0 in [0, 4] among them, (0, 0) the default."""

    def grid(w0, z0, h):
        return SpacetimeGrid.regular({"w": (w0 - 1.0, w0 + 1.0), "z": (z0, z0 + 2.0)}, h)

    yield grid(0.0, 0.0, 1.0 / 64.0)
    for w0 in range(-4, 5):
        yield grid(w0 / 32.0, (w0 % 5) / 32.0, 1.0 / 32.0)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
def test_window_strip_is_bit_identical_to_the_w_slabs(n):
    model = chiral_model(n)
    for grid in verify_chiral_grids():
        for halo, equations in ((1, chiral._residual_kernel), (2, chiral._system_kernel)):
            got = model._on_windows(grid, halo, equations)
            want = slab_on_windows(model, grid, halo, equations)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b), (n, grid.steps, halo)


def flat_row_z_windows(model, z):
    """`ChiralModel._z_windows` as it was before the fold's closed form, with
    the window rows `projection._bin` then kept inlined: flat (node, mode,
    coefficient) rows of the modes (+-1, +-l), l below each node's cut-off,
    and pi/4 on (+-1, +-1), each coefficient times its fold sign added with
    np.add.at at its mode's window slot, frozen here as the reference."""
    n, rows = model.n, np.asarray(model.rows)
    z = np.asarray(z, dtype=np.float64)
    kept = chiral._kept_orders(n, z.ravel() * model.sigma)
    row = _expansion_row(matched_hbar(n), z.ravel(), int(kept.max(initial=2)) - 1)
    node, ell = np.nonzero(np.arange(row.shape[1]) < kept[:, None])
    coeff, pos, every = row[node, ell], ell > 0, np.arange(z.size)
    # rows (1, l), (1, -l) with one coefficient and pi/4 on (1, 1), then
    # their mirrors (-1, -m2) with the conjugates
    node = np.concatenate([node, node[pos], every])
    m2 = np.concatenate([ell, -ell[pos], np.ones_like(every)])
    coeff = np.concatenate([coeff, coeff[pos], np.full(z.size, np.pi / 4.0)])
    modes = np.stack([np.repeat([1, -1], m2.size), np.concatenate([m2, -m2])], axis=1)
    coeffs = np.concatenate([coeff, coeff.conj()])
    slot = np.full(n, -1)
    slot[rows] = np.arange(rows.size)
    (mu1, mu2), sign = fold_mode(n, modes[:, 0], modes[:, 1])
    assert (slot[mu1] >= 0).all()
    window = np.zeros((z.size, rows.size, n), dtype=np.complex128)
    np.add.at(window, (np.tile(node, 2), slot[mu1], mu2), sign * coeffs)
    window[:, slot[0], 0] = 0.0
    return window.reshape(z.shape + window.shape[1:])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 256])
def test_z_windows_are_bit_identical_to_the_flat_rows(n):
    model = chiral_model(n)
    axes = [grid.axis("z") for grid in verify_chiral_grids()]
    axes += [
        np.array([-1.5, -0.0, 0.0, 5e-324, -5e-324, -2.0, 0.75]),
        np.linspace(-2.0, 2.0, 12).reshape(3, 4),
        np.array([]),
        np.zeros((2, 0)),
    ]
    for z in axes:
        got, want = model._z_windows(z), flat_row_z_windows(model, z)
        assert got.shape == want.shape == z.shape + (len(model.rows), n)
        assert got.tobytes() == want.tobytes(), (n, z)


def test_z_windows_peak_near_their_size():
    # n = 256 on verify-chiral's 129 z nodes: the flat rows peaked at ~10x
    model = chiral_model(256)
    z = np.linspace(0.0, 2.0, 129)
    model._z_windows(z)
    tracemalloc.start()
    try:
        window = model._z_windows(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * window.nbytes, (peak, window.nbytes)


@pytest.mark.parametrize("name, halo", [("_residual_kernel", 1), ("_system_kernel", 2)])
def test_model_equations_run_once_on_one_w_strip(monkeypatch, name, halo):
    equations, strips = getattr(chiral, name), []

    def spied(grid, add_commutator, norm):
        kernel = equations(grid, add_commutator, norm)
        return lambda v: strips.append(v.shape[0]) or kernel(v)

    monkeypatch.setattr(chiral, name, spied)
    model = chiral_model(5)
    grid = SpacetimeGrid({"w": np.linspace(-0.5, 0.5, 17), "z": np.linspace(0.1, 1.1, 11)})
    if halo == 1:
        per_point = model.residual(grid).per_point
        assert per_point.shape == (15, 9) and per_point.flags.writeable
        # every interior w row holds the same residual
        assert all(np.array_equal(row, per_point[0]) for row in per_point)
    else:
        model.system_check(grid)
    assert strips == [2 * halo + 1]


def test_window_residual_forms_no_matrix_per_node():
    # n = 32 on the cli-studies fine grid: its matrix field alone is 272 MB
    grid = SpacetimeGrid.regular({"w": (-1.0, 1.0), "z": (0.0, 2.0)}, 1.0 / 64.0)
    model = chiral_model(32)
    tracemalloc.start()
    try:
        model.residual(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_first_order_system_check():
    model = chiral_model(4)
    coarse = chiral_system_check(model.matrix_field(chiral_grids(9)))
    fine = chiral_system_check(model.matrix_field(chiral_grids(17)))
    # mixed partials commute, the discrete divergence cancels identically
    assert coarse.divergence_sup < 1e-10
    assert fine.divergence_sup < 1e-10
    ratio = coarse.curvature_sup / fine.curvature_sup
    assert 3.0 <= ratio <= 5.0, ratio


def test_system_check_flags_non_solution():
    model = chiral_model(2)
    grid = chiral_grids(9)
    mf = model.matrix_field(grid)
    ws = grid.axis("w")
    spoiled = mf.values + 0.1j * ws[:, None, None, None] ** 2 * SIGMA3
    rep = chiral_system_check(MatrixField(grid, spoiled, 2))
    assert rep.curvature_sup > 0.05


# ---------------------------------------------------------------------------
# approach to the large-rank limit

def test_convergence_is_quadratic():
    rep = convergence_study([2, 4, 8, 16])
    assert rep.monotone
    assert 1.7 <= rep.exponent <= 2.3, rep.exponent
    assert rep.n_values == [2, 4, 8, 16]
    d = rep.to_dict()
    assert d["monotone"] is True
    assert len(d["distances"]) == 4


def test_convergence_study_matches_per_point_expansions():
    ns, points, band, hbar_ref = [2, 3, 8, 16], [(0.0, 0.5), (0.3, 0.9), (-0.2, 1.3)], 24, 1e-8
    rep = convergence_study(ns, points=points, band_limit=band, hbar_ref=hbar_ref)
    for n, d in zip(ns, rep.distances):
        worst = 0.0
        for w, z in points:
            diff = (
                fourier_expansion_theta(matched_hbar(n), w, z, band).field
                - fourier_expansion_theta(hbar_ref, w, z, band).field
            )
            for (m1, m2), c in diff.items():
                if 0 <= m1 < n and 0 <= m2 < n and (m1, m2) != (0, 0):
                    worst = max(worst, abs(c))
        assert abs(d - worst) <= 1e-14, (n, d, worst)


def test_convergence_validation():
    with pytest.raises(ValueError):
        convergence_study([4])
    with pytest.raises(ValueError):
        convergence_study([1, 4])
    with pytest.raises(ValueError):
        convergence_study([2, 64], band_limit=40)

    # a repeated rank gives a degenerate fit; the error names the rank
    for ranks in ([4, 4], [2, 4, 4], [8, 2, 8]):
        with pytest.raises(ValueError, match=f"rank {max(ranks)} is repeated"):
            convergence_study(ranks)


@pytest.mark.parametrize("points", [[], [(0.5,)], [0.5, 0.7]])
def test_convergence_study_rejects_points_that_are_not_rows_of_two(points):
    with pytest.raises(ValueError, match=r"one or more rows \(w, z\)"):
        convergence_study([2, 4], points=points)
