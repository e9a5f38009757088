"""Trigonometric matrix basis: closed forms against brute-force matrices."""

import json

import numpy as np
import pytest

import startorus.sine_basis as sine_basis
from startorus import (
    FourierField,
    basis_matrix,
    chi_project,
    clock_matrix,
    det_closed_form,
    fold_mode,
    fundamental_window,
    matrix_from_json,
    matrix_to_json,
    shift_matrix,
    structure_constant,
    su_n_basis,
    verify_basis_properties,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def reference_basis(n: int, m1: int, m2: int) -> np.ndarray:
    """Independent construction via explicit inverses for negative powers."""
    k = np.arange(n)
    s = np.exp(1j * np.pi / n) * np.diag(np.exp(2j * np.pi * k / n))
    t = np.zeros((n, n), dtype=complex)
    t[np.arange(n - 1), np.arange(1, n)] = 1.0
    t[n - 1, 0] = -1.0

    def power(mat, p):
        if p < 0:
            mat = np.linalg.inv(mat)
            p = -p
        out = np.eye(n, dtype=complex)
        for _ in range(p):
            out = out @ mat
        return out

    phase = np.exp(1j * np.pi * m1 * m2 / n)
    return (1j * n / (2 * np.pi)) * phase * power(s, m1) @ power(t, m2)


def test_clock_and_shift_generators():
    for n in (2, 3, 5):
        s, t = clock_matrix(n), shift_matrix(n)
        # unitary
        assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-14
        assert np.max(np.abs(t @ t.conj().T - np.eye(n))) < 1e-14
        # both square to minus the identity at power n
        assert np.max(np.abs(np.linalg.matrix_power(s, n) + np.eye(n))) < 1e-13
        assert np.max(np.abs(np.linalg.matrix_power(t, n) + np.eye(n))) < 1e-13
        # exchange relation S T = conj(w) T S with w = exp(2 pi i / n)
        w = np.exp(2j * np.pi / n)
        assert np.max(np.abs(s @ t - np.conj(w) * (t @ s))) < 1e-14
    with pytest.raises(ValueError):
        clock_matrix(1)
    with pytest.raises(ValueError):
        shift_matrix(0)


def test_basis_matrix_against_reference():
    for n, reach in ((2, 2), (3, 3), (4, 4), (5, 5), (7, 14), (16, 32)):
        for m1 in range(-reach, reach + 1):
            for m2 in range(-reach, reach + 1):
                got = basis_matrix(n, m1, m2)
                assert np.max(np.abs(got - reference_basis(n, m1, m2))) < 1e-12, (n, m1, m2)


def test_basis_matrices_are_read_only():
    mat = basis_matrix(3, 1, 2)
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0


def test_pauli_identifications_at_n2():
    assert np.max(np.abs(basis_matrix(2, 1, 1) - (-1j / np.pi) * SIGMA1)) < 1e-15
    assert np.max(np.abs(basis_matrix(2, 0, 1) - (-1 / np.pi) * SIGMA2)) < 1e-15
    assert np.max(np.abs(basis_matrix(2, 1, 0) - (-1 / np.pi) * SIGMA3)) < 1e-15


def test_product_rule_single_case():
    # L_mu L_nu = (i n / 2 pi) exp(i pi (nu x mu)/n) L_{mu+nu}
    n = 5
    mu, nu = (1, 2), (3, 1)
    cross = nu[0] * mu[1] - nu[1] * mu[0]
    want = (
        (1j * n / (2 * np.pi))
        * np.exp(1j * np.pi * cross / n)
        * basis_matrix(n, mu[0] + nu[0], mu[1] + nu[1])
    )
    got = basis_matrix(n, *mu) @ basis_matrix(n, *nu)
    assert np.max(np.abs(got - want)) < 1e-13


def test_commutator_closes_on_structure_constants():
    for n in (2, 3, 4):
        for mu in fundamental_window(n):
            for nu in fundamental_window(n):
                lmu, lnu = basis_matrix(n, *mu), basis_matrix(n, *nu)
                comm = lmu @ lnu - lnu @ lmu
                want = structure_constant(n, mu, nu) * basis_matrix(
                    n, mu[0] + nu[0], mu[1] + nu[1]
                )
                assert np.max(np.abs(comm - want)) < 1e-11


def test_structure_constant_values():
    assert abs(structure_constant(2, (1, 0), (0, 1)) - 2 / np.pi) < 1e-15
    assert structure_constant(4, (1, 0), (2, 0)) == 0.0
    # antisymmetry
    for n in (3, 7):
        a = structure_constant(n, (1, 2), (2, 1))
        b = structure_constant(n, (2, 1), (1, 2))
        assert abs(a + b) < 1e-15


def test_fold_mode_window_and_signs():
    assert fold_mode(3, 1, 2) == ((1, 2), 1)
    # stepping by n flips by (-1)^((mu1+1) r2 + (mu2+1) r1 + n r1 r2)
    assert fold_mode(3, 4, 2) == ((1, 2), -1)  # r1=1: exponent mu2+1 = 3
    assert fold_mode(3, 1, 5) == ((1, 2), 1)  # r2=1: exponent mu1+1 = 2
    assert fold_mode(2, -1, 0) == ((1, 0), -1)
    assert fold_mode(4, 0, 0) == ((0, 0), 1)
    # every fold reproduces the actual matrix relation
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        for _ in range(25):
            m1, m2 = (int(v) for v in rng.integers(-2 * n, 2 * n + 1, size=2))
            (mu1, mu2), sign = fold_mode(n, m1, m2)
            assert 0 <= mu1 < n and 0 <= mu2 < n
            lhs = basis_matrix(n, m1, m2)
            rhs = sign * basis_matrix(n, mu1, mu2)
            assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_fundamental_window_enumeration():
    assert fundamental_window(2) == [(0, 1), (1, 0), (1, 1)]
    win = fundamental_window(6)
    assert len(win) == 35
    assert win == sorted(win)


def test_property_report_all_n():
    for n in range(2, 9):
        report = verify_basis_properties(n)
        assert report.passed, (n, report.deviations, report.det_rel_dev)
        assert set(report.deviations) == {
            "periodicity",
            "trace_window",
            "trace_lattice",
            "product",
            "commutator",
            "adjoint",
            "inverse",
        }
        table = report.to_dict()
        assert table["passed"] is True
        assert table["determinant_ok"] is True
        assert all(table[f"{k}_ok"] for k in report.deviations)


def test_determinant_sign_correction():
    # even n with odd m1*m2 separates the corrected exponent from the
    # variant that multiplies the whole n(m1+m2+m1 m2) combination
    for n in (2, 4):
        report = verify_basis_properties(n)
        assert report.det_rel_dev <= 1e-10
        assert report.det_rel_dev_naive > 0.5
    for n in (3, 5):
        report = verify_basis_properties(n)
        assert report.det_rel_dev_naive <= 1e-10  # parities agree at odd n
    # direct check of the closed form at the separating mode
    det = np.linalg.det(basis_matrix(2, 1, 1))
    assert abs(det - det_closed_form(2, 1, 1)) / abs(det) < 1e-13


def test_su_basis_span_and_antihermiticity():
    for n in range(2, 7):
        elems = su_n_basis(n)
        assert len(elems) == n * n - 1
        rows = []
        for e in elems:
            assert np.max(np.abs(e.matrix + e.matrix.conj().T)) < 1e-12
            assert abs(np.trace(e.matrix)) < 1e-12
            rows.append(np.concatenate([e.matrix.real.ravel(), e.matrix.imag.ravel()]))
        rank = np.linalg.matrix_rank(np.array(rows), tol=1e-8)
        assert rank == n * n - 1


def test_matrix_json_round_trip():
    mat = basis_matrix(3, 1, 1)
    text = matrix_to_json(mat)
    assert text == matrix_to_json(mat)
    back = matrix_from_json(text)
    assert np.max(np.abs(back - mat)) == 0.0
    payload = json.loads(text)
    assert payload["n"] == 3
    with pytest.raises(ValueError):
        matrix_to_json(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_from_json('{"n": 2, "re": [[1.0]], "im": [[0.0]]}')


def test_matrix_json_keeps_signed_zeros_and_infinite_parts():
    for text in (
        '{"im": [[1.0]], "n": 1, "re": [[-0.0]]}',
        '{"im": [[Infinity, -0.0], [-Infinity, 2.5]], "n": 2, "re": [[-0.0, -Infinity], [0.0, Infinity]]}',
    ):
        assert matrix_to_json(matrix_from_json(text)) == text


def per_entry_matrix_to_json(mat: np.ndarray) -> str:
    """`matrix_to_json` as it was written before `tolist()`: one float() per
    entry, kept as the reference for its bytes."""
    return json.dumps(
        {
            "n": mat.shape[0],
            "re": [[float(v) for v in row] for row in mat.real],
            "im": [[float(v) for v in row] for row in mat.imag],
        },
        sort_keys=True,
    )


def test_matrix_to_json_writes_the_per_entry_bytes():
    rng = np.random.default_rng(65)
    side = 2 * 20 + 1
    field = FourierField.from_window(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    fold = chi_project(field, 32)
    signed = np.array([[-0.0, 1.0 - 0.0j], [complex(0.0, -0.0), complex(-0.0, 2.5)]])
    for mat in (fold, signed, basis_matrix(3, 1, 1)):
        text = matrix_to_json(mat)
        assert text == per_entry_matrix_to_json(mat)
        assert np.array_equal(matrix_from_json(text), mat)
    assert fold.shape == (32, 32) and '"n": 32' in matrix_to_json(fold)
    assert "-0.0" in matrix_to_json(signed)


def dense_report(n: int) -> dict:
    """The property deviations from dense matrix products over the window."""
    pref = 1j * n / (2 * np.pi)
    window = fundamental_window(n)
    shifts = [(r1, r2) for r1 in range(-2, 3) for r2 in range(-2, 3)]
    keys = ("periodicity", "trace_window", "trace_lattice", "product", "commutator")
    dev = dict.fromkeys(keys + ("adjoint", "inverse"), 0.0)

    def worst(key, value):
        dev[key] = max(dev[key], float(np.max(np.abs(value))))

    for mu in window:
        lmu = basis_matrix(n, *mu)
        for r1, r2 in shifts:
            _, sign = fold_mode(n, mu[0] + n * r1, mu[1] + n * r2)
            worst("periodicity", basis_matrix(n, mu[0] + n * r1, mu[1] + n * r2) - sign * lmu)
        worst("trace_window", np.trace(lmu))
        for nu in window:
            lnu = basis_matrix(n, *nu)
            total = basis_matrix(n, mu[0] + nu[0], mu[1] + nu[1])
            cross = nu[0] * mu[1] - nu[1] * mu[0]
            worst("product", lmu @ lnu - pref * np.exp(1j * np.pi * cross / n) * total)
            worst("commutator", lmu @ lnu - lnu @ lmu - structure_constant(n, mu, nu) * total)
        worst("adjoint", lmu.conj().T + basis_matrix(n, -mu[0], -mu[1]))
        worst("inverse", lmu.conj().T - (n / (2 * np.pi)) ** 2 * np.linalg.inv(lmu))
    for r1, r2 in shifts:
        sign = -1.0 if (r1 + r2 + n * r1 * r2) % 2 else 1.0
        lattice = np.trace(basis_matrix(n, n * r1, n * r2))
        worst("trace_lattice", lattice - sign * 1j * n * n / (2 * np.pi))
    return dev


def plant(monkeypatch, mu, defect):
    """Spoil row 0 of L_mu alone: one phase, or its column swapped with row 1's."""
    monomial = sine_basis._monomial

    def planted(n, m1, m2):
        col, val = monomial(n, m1, m2)
        hit = (np.asarray(m1)[..., None] == mu[0]) & (np.asarray(m2)[..., None] == mu[1])
        row0 = hit & (np.arange(n) == 0)
        if defect == "phase":
            return col, np.where(row0, val * np.exp(1j * np.pi / n), val)
        row1 = hit & (np.arange(n) == 1)
        swapped = np.where(row0, col[..., 1:2], np.where(row1, col[..., 0:1], col))
        return swapped, val

    monkeypatch.setattr(sine_basis, "_monomial", planted)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("defect", [None, "phase", "column"])
def test_monomial_checks_agree_with_dense_products(monkeypatch, n, defect):
    if defect:
        plant(monkeypatch, (1, 1), defect)
    report = verify_basis_properties(n)
    dense = dense_report(n)
    for key, want in dense.items():
        assert report.deviations[key] == pytest.approx(want, rel=1e-9, abs=1e-13), key


@pytest.mark.parametrize("n", [1, 0, -3])
def test_basis_report_needs_n_at_least_two(n):
    # n = 1 once failed unpacking the one-mode window
    with pytest.raises(ValueError, match="n must be >= 2"):
        verify_basis_properties(n)


@pytest.mark.parametrize("defect", ["phase", "column"])
def test_planted_defect_fails_the_report(monkeypatch, defect):
    plant(monkeypatch, (2, 3), defect)
    report = verify_basis_properties(5)
    assert report.passed is False
    assert report.deviations["product"] > 0.1
    assert report.deviations["commutator"] > 0.1
    assert report.to_dict()["passed"] is False
