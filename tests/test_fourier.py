"""Mode-space star product and brackets against independent oracles."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from startorus import (
    FourierField,
    chi_project,
    eval_on_torus,
    fft_project,
    matched_hbar,
    moyal_bracket,
    poisson_bracket,
    sample_on_grid,
    star_product,
)
from startorus import fourier

# ---------------------------------------------------------------------------
# dict-based reference algebra, written without reference to the package's
# pairwise kernel so the two implementations can disagree

def conv(f: FourierField, g: FourierField) -> dict:
    """Plain pointwise product as mode convolution."""
    acc: dict = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            key = (a + c, b + d)
            acc[key] = acc.get(key, 0j) + cf * cg
    return acc


def dict_add(acc: dict, table: dict, scale: complex) -> None:
    for key, val in table.items():
        acc[key] = acc.get(key, 0j) + scale * val


def dict_diff(a: dict, f: FourierField) -> float:
    keys = set(a) | {m for m, _ in f.items()}
    return max(abs(a.get(k, 0j) - f.coeff(*k)) for k in keys) if keys else 0.0


def dn(f: FourierField, n1: int, n2: int) -> FourierField:
    out = f
    for _ in range(n1):
        out = out.derivative(0)
    for _ in range(n2):
        out = out.derivative(1)
    return out


def bidifferential_term(f: FourierField, g: FourierField, k: int) -> dict:
    # (m x n)^k f_m g_n E_{m+n} written through derivatives:
    # (-1)^k sum_r (-1)^r C(k,r) [d1^(k-r) d2^r f] . [d2^(k-r) d1^r g]
    acc: dict = {}
    for r in range(k + 1):
        left = dn(f, k - r, r)
        right = dn(g, r, k - r)
        dict_add(acc, conv(left, right), (-1) ** (k + r) * math.comb(k, r))
    return acc


def oracle_star(f: FourierField, g: FourierField, hbar: float, kmax: int) -> dict:
    acc: dict = {}
    for k in range(kmax + 1):
        scale = (0.5j * hbar) ** k / math.factorial(k)
        dict_add(acc, bidifferential_term(f, g, k), scale)
    return acc


def oracle_moyal(f: FourierField, g: FourierField, hbar: float, kmax: int) -> dict:
    acc: dict = {}
    for j in range(kmax + 1):
        k = 2 * j + 1
        scale = (-1) ** j * (0.5 * hbar) ** (2 * j) / math.factorial(k)
        dict_add(acc, bidifferential_term(f, g, k), scale)
    return acc


def random_field(rng, n_modes: int, band: int, real: bool = False) -> FourierField:
    modes = rng.integers(-band, band + 1, size=(n_modes, 2))
    coeffs = rng.uniform(-1, 1, size=n_modes) + 1j * rng.uniform(-1, 1, size=n_modes)
    f = FourierField(modes, coeffs)
    if real:
        f = 0.5 * (f + f.conjugate())
    return f


def dense_field(rng, band: int) -> FourierField:
    """Every mode of the band filled: operands the FFT route takes."""
    side = 2 * band + 1
    return FourierField.from_window(
        rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    )


# ---------------------------------------------------------------------------
# oracle comparisons

def test_star_matches_bidifferential_series():
    rng = np.random.default_rng(42)
    hbar = 0.3
    for _ in range(5):
        f = random_field(rng, 5, 2)
        g = random_field(rng, 5, 2)
        approx = oracle_star(f, g, hbar, 20)
        assert dict_diff(approx, star_product(f, g, hbar)) <= 1e-12


def test_moyal_matches_bidifferential_series():
    rng = np.random.default_rng(43)
    hbar = 0.3
    for _ in range(5):
        f = random_field(rng, 5, 2)
        g = random_field(rng, 5, 2)
        approx = oracle_moyal(f, g, hbar, 9)  # odd orders through 19
        assert dict_diff(approx, moyal_bracket(f, g, hbar)) <= 1e-12


def test_poisson_matches_grid_bracket():
    # classical bracket evaluated pointwise on a 64x64 grid, then re-projected
    rng = np.random.default_rng(44)
    n = 64
    ang = 2 * np.pi * np.arange(n) / n
    P, Q = np.meshgrid(ang, ang, indexing="ij")

    def values(table: dict) -> np.ndarray:
        out = np.zeros((n, n), dtype=complex)
        for (m1, m2), c in table.items():
            out += c * np.exp(1j * (m1 * P + m2 * Q))
        return out

    for _ in range(3):
        f = random_field(rng, 4, 3)
        g = random_field(rng, 4, 3)
        f_p = values({m: 1j * m[0] * c for m, c in f.items()})
        f_q = values({m: 1j * m[1] * c for m, c in f.items()})
        g_p = values({m: 1j * m[0] * c for m, c in g.items()})
        g_q = values({m: 1j * m[1] * c for m, c in g.items()})
        grid = f_q * g_p - f_p * g_q
        spect = np.fft.fft2(grid) / (n * n)
        result = poisson_bracket(f, g)
        assert result.band_limit <= 6
        for (m1, m2), c in result.items():
            assert abs(spect[m1 % n, m2 % n] - c) < 1e-12
        # and nothing appears on the grid that the mode rule missed
        total = sum(abs(c) for _, c in result.items())
        assert abs(np.sum(np.abs(spect)) - 0) >= 0  # spectrum exists
        recon = values(result.to_dict())
        assert np.max(np.abs(recon - grid)) < 1e-11 * max(1.0, total)


def test_poisson_of_sines_is_minus_product_of_cosines():
    # {sin x1, sin x2} = -cos x1 cos x2 under the mode rule's sign convention
    sin1 = FourierField([[1, 0], [-1, 0]], [-0.5j, 0.5j])
    sin2 = FourierField([[0, 1], [0, -1]], [-0.5j, 0.5j])
    got = poisson_bracket(sin1, sin2)
    want = {(1, 1): -0.25, (1, -1): -0.25, (-1, 1): -0.25, (-1, -1): -0.25}
    assert dict_diff(want, got) < 1e-15


# ---------------------------------------------------------------------------
# pinned single-mode values

def test_star_single_modes():
    e10 = FourierField.basis(1, 0)
    e01 = FourierField.basis(0, 1)
    out = star_product(e10, e01, np.pi)
    assert out.size == 1
    assert abs(out.coeff(1, 1) - 1j) < 1e-15

    # identity element
    rng = np.random.default_rng(45)
    f = random_field(rng, 6, 4)
    same = star_product(FourierField.basis(0, 0), f, 0.7)
    assert same.to_dict() == f.to_dict()


def test_moyal_single_modes():
    e10 = FourierField.basis(1, 0)
    e01 = FourierField.basis(0, 1)
    for n in range(2, 9):
        hbar = 2 * np.pi / n
        out = moyal_bracket(e10, e01, hbar)
        want = (n / np.pi) * np.sin(np.pi / n)
        assert abs(out.coeff(1, 1) - want) < 1e-14
    # parallel modes annihilate
    assert moyal_bracket(FourierField.basis(2, 1), FourierField.basis(4, 2), 0.9).size == 0


def test_self_bracket_is_exactly_empty():
    rng = np.random.default_rng(46)
    fields = [random_field(rng, 7, 5) * 1e4 for _ in range(20)]
    fields += [dense_field(rng, band) * 1e4 for band in (3, 6, 9)]
    # a real field with -0.0 imaginary parts and its value-equal copy with
    # +0.0 ones: equal values, different bytes
    real = FourierField.from_window(rng.normal(size=(13, 13)))
    signed = FourierField(real.modes, np.conj(real.coeffs.real.astype(complex)), prune=0.0)
    unsigned = FourierField(real.modes, real.coeffs.real.astype(complex), prune=0.0)
    assert signed.coeffs.tobytes() != unsigned.coeffs.tobytes()
    pairs = [(f, f) for f in fields]
    pairs += [(f, FourierField(f.modes.copy(), f.coeffs.copy())) for f in fields]
    pairs += [(signed, unsigned), (unsigned, signed)]
    for f, g in pairs:
        assert moyal_bracket(f, g, 0.37).size == 0
        assert poisson_bracket(f, g).size == 0


def test_poisson_single_modes_and_small_hbar_limit():
    e10 = FourierField.basis(1, 0)
    e01 = FourierField.basis(0, 1)
    got = poisson_bracket(e10, e01)
    assert got.to_dict() == {(1, 1): 1.0 + 0j}
    near = moyal_bracket(e10, e01, 1e-6)
    assert abs(near.coeff(1, 1) - 1.0) <= 1e-11


def test_moyal_approaches_poisson_at_second_order():
    rng = np.random.default_rng(47)
    f = random_field(rng, 5, 3)
    g = random_field(rng, 5, 3)
    classical = poisson_bracket(f, g)

    def gap(hbar: float) -> float:
        diff = moyal_bracket(f, g, hbar) - classical
        return diff.max_abs_coeff()

    r1, r2 = gap(0.1), gap(0.05)
    assert r1 > 1e-9  # the pair actually probes the deformation
    assert 3.7 <= r1 / r2 <= 4.3


# ---------------------------------------------------------------------------
# algebraic properties (randomized)

coeff_floats = st.floats(-2, 2, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def small_fields(draw, band: int = 3, max_modes: int = 4, real: bool = False):
    n = draw(st.integers(1, max_modes))
    modes = draw(
        st.lists(
            st.tuples(st.integers(-band, band), st.integers(-band, band)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    coeffs = [complex(draw(coeff_floats), draw(coeff_floats)) for _ in modes]
    f = FourierField(np.array(modes, dtype=np.int64), np.array(coeffs))
    if real:
        f = 0.5 * (f + f.conjugate())
    return f


hbars = st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(small_fields(), small_fields(), small_fields(), hbars)
def test_star_associative(f, g, h, hbar):
    left = star_product(star_product(f, g, hbar), h, hbar)
    right = star_product(f, star_product(g, h, hbar), hbar)
    scale = max(1.0, f.sup_bound() * g.sup_bound() * h.sup_bound())
    assert (left - right).max_abs_coeff() <= 1e-13 * scale


def assert_exact_negatives(a: FourierField, b: FourierField) -> None:
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.coeffs, -b.coeffs)


@settings(max_examples=150, deadline=None)
@given(small_fields(), small_fields(), hbars)
def test_moyal_antisymmetric(f, g, hbar):
    assert_exact_negatives(moyal_bracket(f, g, hbar), moyal_bracket(g, f, hbar))


@settings(max_examples=150, deadline=None)
@given(small_fields(), small_fields())
def test_poisson_antisymmetric(f, g):
    assert_exact_negatives(poisson_bracket(f, g), poisson_bracket(g, f))


def test_antisymmetry_is_exact_where_merge_order_matters():
    # colliding terms of this pair round differently in the two operand
    # orders; summing the pairs in a swap-invariant order still left 4.4e-16
    f = FourierField.from_dict({(-1, 0): -1, (-1, 1): 1j, (0, 2): 1, (2, -2): -1j, (2, 1): 1j})
    g = FourierField.from_dict({(-2, 1): 1j, (-1, 1): 1, (0, 0): 1j, (1, 0): -1j, (2, 1): 1})
    assert_exact_negatives(moyal_bracket(f, g, 0.5), moyal_bracket(g, f, 0.5))
    assert_exact_negatives(poisson_bracket(f, g), poisson_bracket(g, f))
    assert moyal_bracket(f, g, 0.5).size > 0 and poisson_bracket(f, g).size > 0


def test_antisymmetry_is_exact_on_dense_bands():
    rng = np.random.default_rng(52)
    for bands in ((6, 6), (7, 4), (0, 9)):
        f, g = (dense_field(rng, band) for band in bands)
        for hbar in (1e-3, 0.5, 2 * np.pi / 7):
            assert_exact_negatives(moyal_bracket(f, g, hbar), moyal_bracket(g, f, hbar))
        assert_exact_negatives(poisson_bracket(f, g), poisson_bracket(g, f))


def test_each_bracket_is_one_pairwise_pass(monkeypatch):
    rng = np.random.default_rng(53)
    calls = []
    kernel = fourier._pairwise
    monkeypatch.setattr(fourier, "_pairwise", lambda *a: calls.append(1) or kernel(*a))
    for f, g in (
        (random_field(rng, 9, 6), random_field(rng, 11, 6)),
        (dense_field(rng, 8), dense_field(rng, 7)),
    ):
        for bracket in (lambda a, b: moyal_bracket(a, b, 0.5), poisson_bracket):
            for a, b in ((f, g), (g, f)):
                calls.clear()
                assert bracket(a, b).size > 0
                assert len(calls) == 1


def test_bracket_depends_on_operand_values_only():
    # the operand order is read off the tables, not the objects: copies made
    # after both operands give the same bytes
    rng = np.random.default_rng(55)
    for _ in range(10):
        f, g = random_field(rng, 9, 6), random_field(rng, 11, 6)
        f2, g2 = (FourierField(h.modes.copy(), h.coeffs.copy()) for h in (f, g))
        assert_exact_negatives(moyal_bracket(f2, g, 0.5), -moyal_bracket(f, g, 0.5))
        assert_exact_negatives(moyal_bracket(g2, f, 0.5), -moyal_bracket(g, f, 0.5))
        assert_exact_negatives(poisson_bracket(f2, g), -poisson_bracket(f, g))
        assert_exact_negatives(poisson_bracket(g2, f), -poisson_bracket(g, f))


def test_swapped_operands_leave_no_negative_zero():
    # 0 - P(g, f) rather than -P(g, f): an exact zero part reads 0.0 in
    # either operand order, as in `startorus star`'s printed result
    e10, e01 = FourierField.basis(1, 0), FourierField.basis(0, 1)
    for a, b in ((e10, e01), (e01, e10)):
        for bracket in (moyal_bracket(a, b, 1.0), poisson_bracket(a, b)):
            assert bracket.size == 1 and "-0.0" not in bracket.to_json()


def two_pass_bracket(f: FourierField, g: FourierField, weight) -> FourierField:
    """The bracket as (P(f, g) - P(g, f)) / 2 with P = `fourier._pairwise`,
    each pass merged unpruned: the exactly antisymmetric two-pass form that
    the one-pass bracket replaced, kept as its reference."""
    fg = fourier._pairwise(f, g, weight, 0.0)
    gf = fourier._pairwise(g, f, weight, 0.0)
    return FourierField(
        np.concatenate([fg.modes, gf.modes]), 0.5 * np.concatenate([fg.coeffs, -gf.coeffs])
    )


def test_one_pass_bracket_agrees_with_the_two_pass_average(monkeypatch):
    rng = np.random.default_rng(54)
    routes = []
    for name in ("_sparse_pairwise", "_fft_pairwise"):
        kernel = getattr(fourier, name)
        monkeypatch.setattr(
            fourier, name, lambda *a, k=kernel, n=name: routes.append(n) or k(*a)
        )
    pairs = {
        "_fft_pairwise": [(dense_field(rng, 13), dense_field(rng, 12)),
                          (dense_field(rng, 8), dense_field(rng, 7))],
        "_sparse_pairwise": [(random_field(rng, 9, 6), random_field(rng, 11, 6))],
    }
    for route, operands in pairs.items():
        for f, g in operands:
            band = f.band_limit + g.band_limit
            for hbar in (2 * np.pi / 12, 1e-3, 0.0):
                routes.clear()
                got = moyal_bracket(f, g, hbar) if hbar else poisson_bracket(f, g)
                assert set(routes) == {route}
                want = two_pass_bracket(f, g, fourier._bracket_weight(hbar))
                gap = np.max(np.abs(got.window(band) - want.window(band)))
                assert gap <= 1e-14 * want.max_abs_coeff()


def pairwise_reference(f: FourierField, g: FourierField, weight) -> dict:
    """sum_{m,n} w(m x n) f_m g_n on mode m + n, one term at a time."""
    acc: dict = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            key = (a + c, b + d)
            acc[key] = acc.get(key, 0j) + weight(a * d - b * c) * cf * cg
    return acc


def test_dense_brackets_match_pairwise_definition():
    rng = np.random.default_rng(50)
    for band, hbar in ((7, 0.5), (8, 2 * np.pi / 7)):
        side = 2 * band + 1
        f, g = (
            FourierField.from_window(
                rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            )
            for _ in range(2)
        )
        cases = [
            (moyal_bracket(f, g, hbar), lambda x: (2 / hbar) * math.sin(0.5 * hbar * x)),
            (poisson_bracket(f, g), float),
        ]
        for got, weight in cases:
            want = pairwise_reference(f, g, weight)
            largest = max(abs(v) for v in want.values())
            assert dict_diff(want, got) <= 1e-12 * largest


# ---------------------------------------------------------------------------
# the two routes of `fourier._pairwise`

def route_weights(hbar: float) -> dict:
    return {
        "star": fourier._star_weight(hbar),
        "moyal": fourier._moyal_weight(hbar),
        "poisson": fourier._POISSON_WEIGHT,
    }


@pytest.mark.parametrize("hbar", [1e-3, 0.5, 2 * np.pi / 7])
@pytest.mark.parametrize("bands", [(0, 5), (5, 0), (6, 3), (2, 7), (4, 4)])
def test_fft_route_matches_sparse_route(bands, hbar):
    rng = np.random.default_rng(53 + 10 * bands[0] + bands[1])
    f, g = (dense_field(rng, band) for band in bands)
    f = f + FourierField.basis(bands[0], -bands[0], 1e3)  # one dominant mode
    for name, weight in route_weights(hbar).items():
        sparse = fourier._sparse_pairwise(f, g, weight.closed, 0.0)
        fast = fourier._fft_pairwise(f, g, weight.split, 0.0)
        assert fast.band_limit <= bands[0] + bands[1]
        assert (fast - sparse).max_abs_coeff() <= 1e-12 * sparse.max_abs_coeff(), name


def test_routing_keeps_sparse_operands_bit_exact():
    rng = np.random.default_rng(54)
    e10, e01, e00 = FourierField.basis(1, 0), FourierField.basis(0, 1), FourierField.basis(0, 0)
    sparse_pairs = [(e10, e01), (e00, random_field(rng, 6, 4)), (e00, dense_field(rng, 8))]
    dense_pair = (dense_field(rng, 6), dense_field(rng, 5))
    for weight in route_weights(0.7).values():
        for f, g in sparse_pairs:
            got = fourier._pairwise(f, g, weight, 0.0)
            want = fourier._sparse_pairwise(f, g, weight.closed, 0.0)
            assert np.array_equal(got.modes, want.modes)
            assert np.array_equal(got.coeffs, want.coeffs)
        got = fourier._pairwise(*dense_pair, weight, 0.0)
        want = fourier._fft_pairwise(*dense_pair, weight.split, 0.0)
        assert np.array_equal(got.modes, want.modes)
        assert np.array_equal(got.coeffs, want.coeffs)


def test_fft_route_row_batches_agree_with_one_batch(monkeypatch):
    rng = np.random.default_rng(55)
    f, g = dense_field(rng, 5), dense_field(rng, 4)
    weight = fourier._moyal_weight(0.5)
    whole = fourier._fft_pairwise(f, g, weight.split, 0.0)
    # batches of one f row and four of g's nine rows, the last one short
    monkeypatch.setattr(fourier, "_FFT_BATCH", 4 * fourier._fft_length(19))
    batched = fourier._fft_pairwise(f, g, weight.split, 0.0)
    assert (batched - whole).max_abs_coeff() <= 1e-14 * whole.max_abs_coeff()


def per_row_fft_pairwise(f: FourierField, g: FourierField, split) -> FourierField:
    """The FFT route as a loop over row blocks of two full windows, frozen
    from before the route shared its kernel with the gridded residuals."""
    rf, rg = f.band_limit, g.band_limit
    fw, gw = f.window(rf), g.window(rg)
    m, n = np.arange(-rf, rf + 1), np.arange(-rg, rg + 1)
    side = 2 * (rf + rg) + 1
    length = fourier._fft_length(side)
    cols = min(2 * rg + 1, max(1, fourier._FFT_BATCH // length))
    rows = max(1, fourier._FFT_BATCH // (cols * length))
    acc = np.zeros((side, length), dtype=np.complex128)
    for u, v in split:
        fv = v(np.multiply.outer(n, m))
        gu = u(np.multiply.outer(m, n))
        for i in range(0, 2 * rf + 1, rows):
            for j in range(0, 2 * rg + 1, cols):
                fi, gj = slice(i, i + rows), slice(j, j + cols)
                part = np.fft.fft(fw[fi, None] * fv[None, gj], length)
                part *= np.fft.fft(gw[None, gj] * gu[fi, None], length)
                for k, block in enumerate(part, start=i + j):
                    acc[k : k + len(block)] += block
    return FourierField.from_window(np.fft.ifft(acc)[:, :side], 0.0)


@pytest.mark.parametrize("bands", [(5, 5), (8, 7), (13, 12)])
def test_fft_route_is_bit_identical_to_per_row_loop(bands):
    rng = np.random.default_rng(58 + bands[0])
    f, g = (dense_field(rng, band) for band in bands)
    for name, weight in route_weights(2 * np.pi / 12).items():
        got = fourier._fft_pairwise(f, g, weight.split, 0.0)
        want = per_row_fft_pairwise(f, g, weight.split)
        assert np.array_equal(got.modes, want.modes), name
        assert np.array_equal(got.coeffs, want.coeffs), name


def test_fft_rows_keeps_only_occupied_rows():
    # rows m1 in {-2, 1} of a band-4 f and m1 = 3 of a band-3 g give output
    # rows 1..4 only; the trimmed kernel agrees with the sparse route
    rng = np.random.default_rng(59)
    f = FourierField.from_dict({(-2, 4): 1.0 + 0.5j, (1, -3): -0.7, (0, 2): 0.3j})
    g = FourierField.from_dict({(3, k): complex(*rng.normal(size=2)) for k in range(-3, 4)})
    weight = fourier._moyal_weight(0.5)
    first, out = fourier._fft_rows(f.window(4), g.window(3), weight.split)
    assert (first, out.shape) == (1, (4, 15))
    want = fourier._sparse_pairwise(f, g, weight.closed, 0.0).window(7)[8:12]
    assert np.max(np.abs(out - want)) <= 1e-15 * np.max(np.abs(want))
    _, out = fourier._fft_rows(np.zeros((2, 9, 9)), np.ones((2, 7, 7)), weight.split)
    assert out.shape == (2, 0, 15)


def test_fft_rows_takes_slabs_from_their_first_row_and_pairwise_scans_nothing(monkeypatch):
    # a slab of f's rows m1 = -2..1 given with its first m1 gives the full
    # window's bits; _fft_pairwise reads its rows off the modes, with no scan
    f = FourierField.from_dict({(-2, 4): 1.0 + 0.5j, (1, -3): -0.7, (0, 2): 0.3j})
    g = FourierField.from_dict({(3, k): 0.1 * k + 1j for k in range(-3, 4)})
    split = fourier._moyal_weight(0.5).split
    first, want = fourier._fft_rows(f.window(4), g.window(3), split)
    (fw, f1), (gw, g1) = fourier._mode_slab(f, 4), fourier._mode_slab(g, 3)
    assert (f1, fw.shape, g1, gw.shape) == (-2, (4, 9), 3, (1, 7))
    got = fourier._fft_rows(fw, gw, split, f1, g1)
    assert got[0] == first and got[1].tobytes() == want.tobytes()
    assert fw.tobytes() == f.window(4)[2:6].tobytes() and gw.tobytes() == g.window(3)[6:].tobytes()
    scans, windows = [], []
    rows, window = fourier._occupied_rows, FourierField.window
    monkeypatch.setattr(fourier, "_occupied_rows", lambda w: scans.append(1) or rows(w))
    monkeypatch.setattr(FourierField, "window", lambda f, r: windows.append(r) or window(f, r))
    pair = fourier._fft_pairwise(f, g, split, 0.0)
    # the slabs are scattered from the modes: no window, and the bands are
    # the values stored when f and g were built, not a scan of their modes
    assert (scans, windows) == ([], [])
    assert "band_limit" in FourierField.__slots__ and (f.band_limit, g.band_limit) == (4, 3)
    assert np.array_equal(pair.window(7)[7 + first : 7 + first + len(want)], want)


def test_fft_length_is_smooth():
    assert [fourier._fft_length(n) for n in (1, 7, 13, 51, 97, 129)] == [1, 8, 15, 54, 100, 135]


def test_star_associative_on_dense_bands():
    rng = np.random.default_rng(56)
    f, g, h = (dense_field(rng, 6) for _ in range(3))
    for hbar in (1e-3, 0.5, 2 * np.pi / 7):
        left = star_product(star_product(f, g, hbar), h, hbar)
        right = star_product(f, star_product(g, h, hbar), hbar)
        assert (left - right).max_abs_coeff() <= 1e-12 * left.max_abs_coeff()


@pytest.mark.parametrize("n", [3, 5, 8])
def test_fold_homomorphism_on_dense_bands(n):
    rng = np.random.default_rng(57 + n)
    f, g = dense_field(rng, 6), dense_field(rng, 5)
    lhs = chi_project(moyal_bracket(f, g, matched_hbar(n)), n)
    pf, pg = chi_project(f, n), chi_project(g, n)
    rhs = pf @ pg - pg @ pf
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


@settings(max_examples=100, deadline=None)
@given(small_fields(band=5), small_fields(band=5), small_fields(band=5), hbars)
def test_moyal_jacobi(f, g, h, hbar):
    total = (
        moyal_bracket(f, moyal_bracket(g, h, hbar), hbar)
        + moyal_bracket(g, moyal_bracket(h, f, hbar), hbar)
        + moyal_bracket(h, moyal_bracket(f, g, hbar), hbar)
    )
    weight = 2 * 5 * 5  # largest |m x n| at this band
    scale = max(1.0, f.sup_bound() * g.sup_bound() * h.sup_bound()) * weight**2
    assert total.max_abs_coeff() <= 5e-15 * scale


@settings(max_examples=100, deadline=None)
@given(
    small_fields(real=True),
    small_fields(real=True),
    hbars,
)
def test_moyal_preserves_reality(f, g, hbar):
    assert moyal_bracket(f, g, hbar).is_real(1e-12)


@settings(max_examples=100, deadline=None)
@given(small_fields(), small_fields(), small_fields(), hbars)
def test_moyal_derivation_over_star(f, g, h, hbar):
    # bracket with f acts as a derivation of the star algebra
    left = moyal_bracket(f, star_product(g, h, hbar), hbar)
    right = star_product(moyal_bracket(f, g, hbar), h, hbar) + star_product(
        g, moyal_bracket(f, h, hbar), hbar
    )
    scale = max(1.0, f.sup_bound() * g.sup_bound() * h.sup_bound()) * 60
    assert (left - right).max_abs_coeff() <= 5e-15 * scale


# ---------------------------------------------------------------------------
# container mechanics

def test_duplicate_modes_merge():
    f = FourierField([[1, 2], [1, 2], [0, 0]], [1.0, 2.5, -1.0])
    assert f.size == 2
    assert f.coeff(1, 2) == 3.5
    assert f.coeff(0, 0) == -1.0
    assert f.coeff(5, 5) == 0.0


def test_prune_drops_tiny_coefficients():
    f = FourierField([[0, 1], [1, 0]], [1e-16, 1.0])
    assert f.to_dict() == {(1, 0): 1.0 + 0j}
    kept = FourierField([[0, 1], [1, 0]], [1e-16, 1.0], prune=0.0)
    assert kept.size == 2


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        FourierField([[1, 0], [0, 1]], [1.0])


def test_non_finite_coefficients_rejected():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            FourierField([[0, 0], [1, 2]], [1.0, bad])
    with pytest.raises(ValueError, match=r"mode \(1, 2\)"):
        FourierField.from_dict({(0, 0): 1.0, (1, 2): np.nan})


def test_arithmetic_and_norms():
    f = FourierField([[1, 0]], [2.0])
    g = FourierField([[0, 1]], [1.0 + 1j])
    s = f + g
    assert s.coeff(1, 0) == 2.0 and s.coeff(0, 1) == 1.0 + 1j
    assert (f - f).size == 0
    assert (-f).coeff(1, 0) == -2.0
    assert (3 * f).coeff(1, 0) == 6.0
    assert (f * 3).coeff(1, 0) == 6.0
    assert abs(s.l2_norm() - np.sqrt(4 + 2)) < 1e-15
    assert abs(s.sup_bound() - (2 + np.sqrt(2))) < 1e-15
    assert s.max_abs_coeff() == 2.0
    assert FourierField.zero().max_abs_coeff() == 0.0
    assert FourierField.zero().band_limit == 0


def test_derivative_rules():
    f = FourierField.basis(2, 3, 1.5)
    assert f.derivative(0).coeff(2, 3) == 1.5 * 2j
    assert f.derivative(1).coeff(2, 3) == 1.5 * 3j
    with pytest.raises(ValueError):
        f.derivative(2)


def test_reality_predicate_and_conjugate():
    real = FourierField([[1, 1], [-1, -1]], [0.5 + 0.25j, 0.5 - 0.25j])
    assert real.is_real()
    assert not FourierField.basis(1, 0, 1j).is_real()
    conj = FourierField.basis(1, 2, 1 + 2j).conjugate()
    assert conj.to_dict() == {(-1, -2): 1 - 2j}


def test_restrict_and_band_limit():
    f = FourierField([[3, 0], [1, 1]], [1.0, 2.0])
    assert f.band_limit == 3
    cut = f.restrict(1)
    assert cut.to_dict() == {(1, 1): 2.0 + 0j}


def test_json_round_trip_and_determinism():
    rng = np.random.default_rng(48)
    f = random_field(rng, 6, 4)
    text = f.to_json()
    assert text == f.to_json()  # byte-stable
    back = FourierField.from_json(text)
    assert back.to_dict() == f.to_dict()
    data = json.loads(text)
    assert data["band_limit"] == f.band_limit
    assert FourierField.from_json('{"modes": []}').size == 0


MALFORMED_PAYLOADS = [
    "5", '"abc"', "null", "[]", "{}", '{"modes": 3}', '{"modes": [7]}',
    '{"modes": [[1, 0, 1]]}', '{"modes": [[1, 0]]}', '{"modes": [[1, 0, 1, 0, 0]]}',
    '{"modes": [[1, 0, "1", 0]]}', '{"modes": [[true, 0, 1, 0]]}',
    '{"modes": [[1.5, 0, 1, 0]]}', '{"modes": [[0, Infinity, 1, 0]]}',
    # modes past |m| <= 2**30: past int64, a float past it, 2**62, 2**63 - 1
    '{"modes": [[99999999999999999999, 0, 1, 0]]}', '{"modes": [[1e30, 0, 1, 0]]}',
    '{"modes": [[4611686018427387904, 0, 1, 0]]}',
    '{"modes": [[9223372036854775807, 0, 1, 0]]}',
    # coefficients past the float range: a 401-digit integer, a float literal
    pytest.param('{"modes": [[1, 0, 1' + "0" * 400 + ', 0]]}', id="int_coefficient_past_float"),
    '{"modes": [[1, 0, 0, -1e400]]}',
]


@pytest.mark.parametrize("text", MALFORMED_PAYLOADS)
def test_from_json_rejects_malformed_payloads(text):
    with pytest.raises(ValueError):
        FourierField.from_json(text)


@pytest.mark.parametrize("text", MALFORMED_PAYLOADS)
def test_from_payload_rejects_the_same_payloads_decoded(text):
    with pytest.raises(ValueError) as decoded:
        FourierField.from_payload(json.loads(text))
    with pytest.raises(ValueError) as read:
        FourierField.from_json(text)
    assert str(decoded.value) == str(read.value)


def per_item_to_json(f: FourierField) -> str:
    """`to_json` as it was written before `payload`: one int()/float() per
    mode through `items()`, kept as the reference for its bytes."""
    rows = [[int(m1), int(m2), float(c.real), float(c.imag)] for (m1, m2), c in f.items()]
    return json.dumps({"band_limit": f.band_limit, "modes": rows})


def _json_fields():
    rng = np.random.default_rng(63)
    edge = 2**30
    return {
        "empty": FourierField.zero(),
        "sparse": random_field(rng, 12, 9),
        "dense": dense_field(rng, 25),
        "signed_zeros": FourierField(
            [[0, 1], [1, 0], [-2, 3]], [complex(-0.0, 1.5), complex(2.0, -0.0), -0.25]
        ),
        "mode_bound": FourierField(
            [[edge, -edge], [-edge, edge], [edge, 0]], [1 + 2j, -3.5, 1e-300j]
        ),
    }


@pytest.mark.parametrize("name", list(_json_fields()))
def test_to_json_writes_the_per_item_bytes_and_reads_them_back(name):
    f = _json_fields()[name]
    text = f.to_json()
    assert text == per_item_to_json(f)
    assert json.dumps(f.payload()) == text
    assert FourierField.from_json(text).to_json() == text
    assert FourierField.from_payload(f.payload()).to_json() == text
    if name == "signed_zeros":
        assert "[0, 1, -0.0, 1.5]" in text and "[1, 0, 2.0, -0.0]" in text
    if name == "dense":
        assert f.size == 51 * 51


def test_from_json_reads_integral_floats_and_keeps_signed_zeros():
    f = FourierField.from_json('{"modes": [[1.0, -2, -0.0, 1.5], [0, 3, 2.0, -0.0]]}')
    assert f.to_dict() == {(1, -2): 1.5j, (0, 3): 2.0}
    signs = {m: (math.copysign(1, c.real), math.copysign(1, c.imag)) for m, c in f.items()}
    assert signs == {(1, -2): (-1.0, 1.0), (0, 3): (1.0, -1.0)}


def test_from_payload_names_the_row_of_a_non_finite_coefficient():
    huge = 10**400
    for row in ([1, 0, huge, 0], [1, 0, 0, -huge], [0, 1, float("inf"), 0], [2, 2, 1.0, float("nan")]):
        with pytest.raises(ValueError, match="non-finite coefficient") as err:
            FourierField.from_payload({"modes": [[0, 1, 1.0, 0.0], row]})
        assert str(err.value).startswith(f"mode row {row!r}")
    # the largest finite double is still a coefficient, as an int or a float
    top = float(np.finfo(np.float64).max)
    f = FourierField.from_payload({"modes": [[1, 0, int(top), -top]]})
    assert f.to_dict() == {(1, 0): complex(top, -top)}


def test_modes_are_bounded_by_two_to_the_thirty():
    edge = 2**30
    for mode in ((edge, 0), (0, -edge), (-edge, edge)):
        assert FourierField(np.array([mode]), np.array([1.0])).modes.tolist() == [list(mode)]
    assert FourierField.from_json(f'{{"modes": [[{edge}, {-edge}, 1, 0]]}}').size == 1
    for mode in ((edge + 1, 0), (0, -edge - 1), (2**63 - 1, 0), (-(2**63), 0)):
        with pytest.raises(ValueError, match=rf"mode \({mode[0]}, {mode[1]}\) outside"):
            FourierField(np.array([mode]), np.array([1.0]))
    # within the bound, sums and cross products of modes stay exact
    cross = poisson_bracket(FourierField.basis(edge, 0), FourierField.basis(0, -edge))
    assert cross.to_dict() == {(edge, -edge): -(2.0**60)}
    # a product of in-range fields whose result leaves the range
    with pytest.raises(ValueError, match=rf"mode \({edge + 1}, 0\) outside"):
        star_product(FourierField.basis(edge, 0), FourierField.basis(1, 0), 1.0)


def test_mode_past_int64_is_rejected_before_the_cast():
    with pytest.raises(ValueError, match=r"mode \(1180591620717411303424, 0\) outside"):
        FourierField.basis(2**70, 0)
    with pytest.raises(ValueError, match=r"mode \(0, -1180591620717411303424\) outside"):
        FourierField.from_dict({(1, 1): 1.0, (0, -(2**70)): 1.0})
    with pytest.raises(ValueError, match=rf"mode \({10**400}, 0\) outside"):
        FourierField.basis(10**400, 0)  # past the float range too


def test_float_modes_must_be_integral():
    with pytest.raises(ValueError, match=r"mode \(1.5, 0.0\) is not integral"):
        FourierField(np.array([[1.5, 0]]), [1.0])
    with pytest.raises(ValueError, match="is not integral"):
        FourierField(np.array([[0.0, np.nan]]), [1.0])
    f = FourierField(np.array([[3.0, -2.0], [-0.0, 1.0]]), [1.0, 2.0])
    assert f.modes.dtype == np.int64 and f.to_dict() == {(0, 1): 2.0, (3, -2): 1.0}


def test_float_mode_past_the_bound_is_rejected_not_cast():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it casts 1e30 to int64
        for mode in ((1e30, 0.0), (0.0, -np.inf), (2.0**30 + 1, 0.0)):
            with pytest.raises(ValueError, match=re.escape(f"mode {mode} outside")):
                FourierField(np.array([mode]), [1.0])


def test_from_dict_round_trip():
    table = {(1, 2): 1.5 + 0.5j, (-1, 0): 2.0}
    f = FourierField.from_dict(table)
    assert f.to_dict() == {(1, 2): 1.5 + 0.5j, (-1, 0): 2.0 + 0j}
    assert FourierField.from_dict({}).size == 0


def test_moyal_requires_positive_hbar():
    f = FourierField.basis(1, 0)
    g = FourierField.basis(0, 1)
    for bad in (0.0, -1.0, -np.inf):
        with pytest.raises(ValueError):
            moyal_bracket(f, g, bad)


def test_non_finite_hbar_rejected():
    f = FourierField.basis(1, 0)
    g = FourierField.basis(0, 1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            moyal_bracket(f, g, bad)
        with pytest.raises(ValueError, match="finite"):
            star_product(f, g, bad)


# ---------------------------------------------------------------------------
# evaluation and projection

def test_eval_on_torus_values():
    assert abs(eval_on_torus(FourierField.basis(1, 1), 0.0, 0.0) - 1.0) < 1e-15
    assert abs(eval_on_torus(FourierField.basis(1, 0), np.pi, 0.0) + 1.0) < 1e-15
    # initial profile (pi/2)cos(p+q) - w sin q at w=0, p=q=0
    prof = FourierField.from_dict({(1, 1): np.pi / 4, (-1, -1): np.pi / 4})
    assert abs(eval_on_torus(prof, 0.0, 0.0) - np.pi / 2) < 1e-15


def test_eval_broadcasts():
    f = FourierField.basis(1, 0) + FourierField.basis(0, 2, 0.5)
    p = np.linspace(0, 2 * np.pi, 7)
    q = np.linspace(0, 2 * np.pi, 7)
    vals = eval_on_torus(f, p, q)
    want = np.exp(1j * p) + 0.5 * np.exp(2j * q)
    assert np.max(np.abs(vals - want)) < 1e-14


def test_fft_project_recovers_single_mode():
    n = 16
    ang = 2 * np.pi * np.arange(n) / n
    P, Q = np.meshgrid(ang, ang, indexing="ij")
    samples = np.exp(1j * (3 * P - 2 * Q))
    f = fft_project(samples, band_limit=4)
    assert abs(f.coeff(3, -2) - 1.0) < 1e-13
    assert (f - FourierField.basis(3, -2)).max_abs_coeff() < 1e-13


def test_sample_project_round_trip():
    rng = np.random.default_rng(49)
    f = random_field(rng, 10, 8)
    samples = sample_on_grid(f, 18)
    back = fft_project(samples, band_limit=8)
    assert (back - f).max_abs_coeff() <= 1e-12


def per_mode_sample_on_grid(f: FourierField, n: int) -> np.ndarray:
    """`sample_on_grid` as it was written before `np.add.at`: one spectrum
    entry per mode through `items()`, kept as the reference for its bits."""
    spect = np.zeros((n, n), dtype=np.complex128)
    for (m1, m2), c in f.items():
        spect[m1 % n, m2 % n] += c
    return np.fft.ifft2(spect) * n * n


def test_sample_on_grid_matches_the_per_mode_spectrum_bit_for_bit():
    rng = np.random.default_rng(64)
    fields = [random_field(rng, 30, 8), dense_field(rng, 6), _json_fields()["signed_zeros"]]
    for f in fields + [FourierField.zero()]:
        for n in (2 * f.band_limit + 1, 2 * f.band_limit + 6):
            want = per_mode_sample_on_grid(f, n)
            assert sample_on_grid(f, n).tobytes() == want.tobytes()


def test_projection_guards():
    with pytest.raises(ValueError):
        fft_project(np.zeros((4, 4)), band_limit=4)
    with pytest.raises(ValueError):
        fft_project(np.zeros(16), band_limit=2)
    assert fft_project(np.zeros((8, 8)), band_limit=2).size == 0
    wide = FourierField.basis(5, 0)
    with pytest.raises(ValueError):
        sample_on_grid(wide, 10)  # 10 <= 2*5 aliases
