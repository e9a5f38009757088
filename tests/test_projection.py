"""Folding mode fields onto matrices and the bracket homomorphism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from startorus import (
    FourierField,
    GriddedFourierField,
    MatrixField,
    SpacetimeGrid,
    basis_matrix,
    chi_project,
    chi_project_gridded,
    commutator_defect,
    fold_mode,
    matched_hbar,
    moyal_bracket,
)


def random_real_field(rng, n_modes: int, band: int) -> FourierField:
    modes = rng.integers(-band, band + 1, size=(n_modes, 2))
    coeffs = rng.uniform(-1, 1, size=n_modes) + 1j * rng.uniform(-1, 1, size=n_modes)
    f = FourierField(modes, coeffs)
    return 0.5 * (f + f.conjugate())


def test_matched_hbar():
    assert matched_hbar(2) == np.pi
    assert abs(matched_hbar(5) - 2 * np.pi / 5) < 1e-16
    with pytest.raises(ValueError):
        matched_hbar(1)


def test_single_modes_land_on_window_matrices():
    for n in (2, 3, 5):
        assert np.array_equal(chi_project(FourierField.basis(1, 1), n), basis_matrix(n, 1, 1))
        # wrapped mode carries the periodicity sign
        got = chi_project(FourierField.basis(1, 1 + n), n)
        want_sign = -1.0 if (1 + 1) % 2 else 1.0  # (mu1+1)*r2 with r2=1
        assert np.max(np.abs(got - want_sign * basis_matrix(n, 1, 1))) < 1e-14


def test_lattice_modes_are_annihilated():
    for n in (2, 4):
        assert np.max(np.abs(chi_project(FourierField.basis(0, 0), n))) == 0.0
        assert np.max(np.abs(chi_project(FourierField.basis(n, 0), n))) == 0.0
        assert np.max(np.abs(chi_project(FourierField.basis(-n, 2 * n), n))) == 0.0
    mixed = FourierField.from_dict({(2, 0): 1.0, (1, 0): 2.0})
    got = chi_project(mixed, 2)
    assert np.max(np.abs(got - 2.0 * basis_matrix(2, 1, 0))) < 1e-14


def test_projection_is_linear():
    rng = np.random.default_rng(5)
    f = random_real_field(rng, 6, 4)
    g = random_real_field(rng, 6, 4)
    for n in (2, 5):
        lhs = chi_project(f + 2.5 * g, n)
        rhs = chi_project(f, n) + 2.5 * chi_project(g, n)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_bracket_homomorphism_random_pairs():
    rng = np.random.default_rng(6)
    for n in range(2, 8):
        worst = 0.0
        for _ in range(30):
            f = random_real_field(rng, 5, 4)
            g = random_real_field(rng, 5, 4)
            worst = max(worst, commutator_defect(f, g, n))
        assert worst <= 1e-10, (n, worst)


coeff_floats = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
ranks = st.integers(2, 16)


@st.composite
def real_fields(draw, band: int = 4, max_modes: int = 6) -> FourierField:
    """Real fields, c_{-m} = conj(c_m), on at most max_modes modes |m_i| <= band."""
    mode = st.tuples(st.integers(-band, band), st.integers(-band, band))
    modes = draw(st.lists(mode, min_size=1, max_size=max_modes, unique=True))
    coeffs = [complex(draw(coeff_floats), draw(coeff_floats)) for _ in modes]
    f = FourierField(np.array(modes, dtype=np.int64), np.array(coeffs))
    return 0.5 * (f + f.conjugate())


@settings(max_examples=200, deadline=None)
@given(real_fields(), real_fields(), ranks)
def test_fold_is_a_bracket_homomorphism(f, g, n):
    # chi_n({f, g}_{2 pi/n}) = [chi_n f, chi_n g] within 1e-10 of the
    # largest entry of either side (or of 1)
    lhs = chi_project(moyal_bracket(f, g, matched_hbar(n)), n)
    a, b = chi_project(f, n), chi_project(g, n)
    scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(a @ b - b @ a)))
    assert commutator_defect(f, g, n) <= 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(real_fields(), ranks)
def test_fold_of_a_real_field_is_in_su_n(f, n):
    # anti-hermitian and traceless within 1e-12 of the largest entry (or of 1)
    m = chi_project(f, n)
    scale = max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(m + m.conj().T)) <= 1e-12 * scale
    assert abs(np.trace(m)) <= 1e-12 * scale


def test_homomorphism_handles_folds_to_zero():
    # pairs whose bracket lands on annihilated modes must agree with the
    # vanishing commutator on the matrix side
    n = 3
    f = FourierField.basis(1, 0) + FourierField.basis(-1, 0)
    g = FourierField.basis(2, 0) + FourierField.basis(-2, 0)
    # all output modes are multiples of (1,0) with zero cross products
    assert commutator_defect(f, g, n) < 1e-14
    h = FourierField.basis(2, 1)
    k = FourierField.basis(1, 2)
    # single output mode (3,3) folds to (0,0) and is annihilated
    lhs = chi_project(moyal_bracket(h, k, matched_hbar(n)), n)
    ph, pk = chi_project(h, n), chi_project(k, n)
    assert np.max(np.abs(lhs)) < 1e-14
    assert np.max(np.abs(ph @ pk - pk @ ph)) < 1e-14


def test_matrix_field_shape_guard_and_defects():
    grid = SpacetimeGrid({"w": [0.0, 1.0]})
    good = np.zeros((2, 3, 3), dtype=complex)
    mf = MatrixField(grid, good, 3)
    assert mf.anti_hermitian_defect() == 0.0
    assert mf.trace_defect() == 0.0
    with pytest.raises(ValueError):
        MatrixField(grid, np.zeros((2, 2, 3)), 3)
    herm = np.zeros((2, 2, 2), dtype=complex)
    herm[:, 0, 0] = 1.0  # hermitian, not anti-hermitian
    mf2 = MatrixField(grid, herm, 2)
    assert abs(mf2.anti_hermitian_defect() - 2.0) < 1e-15
    assert abs(mf2.trace_defect() - 1.0) < 1e-15


def test_gridded_projection_requires_matched_hbar():
    grid = SpacetimeGrid({"w": [0.0, 1.0]})
    values = np.zeros((2, 3, 3), dtype=complex)
    values[0, 1 + 1, 1 + 0] = 0.5
    values[1, 1 + 0, 1 + 1] = 1j
    n = 4
    gf = GriddedFourierField(grid, values, hbar=matched_hbar(n))
    mf = chi_project_gridded(gf, n)
    assert mf.values.shape == (2, 4, 4)
    assert np.max(np.abs(mf.values[0] - 0.5 * basis_matrix(4, 1, 0))) < 1e-14
    assert np.max(np.abs(mf.values[1] - 1j * basis_matrix(4, 0, 1))) < 1e-14
    off = GriddedFourierField(grid, values, hbar=0.9)
    with pytest.raises(ValueError):
        chi_project_gridded(off, n)


def test_chi_project_rejects_small_n():
    with pytest.raises(ValueError):
        chi_project(FourierField.basis(1, 0), 1)


@pytest.mark.parametrize("n", [2, 5, 12, 32])
def test_fold_matches_naive_sum_of_basis_matrices(n):
    rng = np.random.default_rng(n)
    modes = rng.integers(-3 * n, 3 * n + 1, size=(80, 2))
    modes[:4] = [[0, 0], [n, 0], [-n, 2 * n], [1, 1]]  # lattice modes fold to zero
    f = FourierField(modes, rng.normal(size=80) + 1j * rng.normal(size=80))
    naive = np.zeros((n, n), dtype=complex)
    for (m1, m2), c in f.items():
        mu, sign = fold_mode(n, m1, m2)
        if mu != (0, 0):
            naive += sign * c * basis_matrix(n, *mu)
    got = chi_project(f, n)
    assert np.max(np.abs(got - naive)) <= 1e-12 * np.max(np.abs(naive))


def test_gridded_fold_equals_per_node_fold():
    rng = np.random.default_rng(11)
    grid = SpacetimeGrid({"w": [0.0, 0.5, 1.0], "z": [0.0, 1.0]})
    n, band = 6, 9
    values = np.zeros(grid.shape + (2 * band + 1, 2 * band + 1), dtype=complex)
    for index in np.ndindex(*grid.shape):
        size = int(rng.integers(0, 12))
        modes = rng.integers(-band, band + 1, size=(size, 2))
        field = FourierField(modes, rng.normal(size=size) + 1j * rng.normal(size=size))
        values[index] = field.window(band)
    values[0, 1] = 0.0
    gf = GriddedFourierField(grid, values, hbar=matched_hbar(n))
    mf = chi_project_gridded(gf, n)
    for index in np.ndindex(*grid.shape):
        want = chi_project(gf.node(index), n)
        assert np.max(np.abs(mf.values[index] - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(mf.values[0, 1])) == 0.0


def test_window_matrices_take_the_window_rows_asked_for():
    from startorus.projection import _bin, _window_matrices

    modes = np.array([[1, 2], [-1, 3], [0, 1], [5, 5]])
    coeffs = np.array([1.0, 2.0j, -0.5, 3.0])
    full = _bin(np.zeros(4, dtype=np.int64), modes, coeffs, 1, 5)
    assert full[0, 0, 0] == 0.0  # (5, 5) folds onto (0, 0), which is dropped
    rows = (0, 1, 4)
    assert not full[:, [2, 3]].any()  # every mode sits on the rows kept
    assert np.array_equal(_window_matrices(full[:, rows], 5, rows), _window_matrices(full, 5))
