"""Acceptance gate: nine numbered criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every verdict; without
-s the verdicts still appear for any failing criterion.
"""

import json

import numpy as np

from startorus import (
    FourierField,
    SpacetimeGrid,
    admissible_points,
    basis_matrix,
    bessel_identity_check,
    chi_project,
    chiral_model,
    convergence_study,
    example_cauchy_data,
    example_metric,
    example_solution,
    example_tetrad,
    fourier_expansion_theta,
    freq_factor,
    kowalewska_series,
    matched_hbar,
    metric_from_tetrad,
    moyal_bracket,
    poisson_bracket,
    pp_wave_check,
    residual_chiral,
    residual_moyal_hp,
    richardson_order,
    star_product,
    verify_basis_properties,
    weyl_report,
)
from startorus.cli import main


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    tail = f" [{detail}]" if detail else ""
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def _random_real_field(rng, band: int, n_modes: int) -> FourierField:
    table = {}
    for _ in range(n_modes):
        m1 = int(rng.integers(-band, band + 1))
        m2 = int(rng.integers(-band, band + 1))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        table[(m1, m2)] = table.get((m1, m2), 0j) + c
        table[(-m1, -m2)] = table.get((-m1, -m2), 0j) + c.conjugate()
    return FourierField.from_dict(table)


def _random_field(rng, band: int, n_modes: int) -> FourierField:
    table = {}
    for _ in range(n_modes):
        m1 = int(rng.integers(-band, band + 1))
        m2 = int(rng.integers(-band, band + 1))
        table[(m1, m2)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FourierField.from_dict(table)


def test_criterion_1_sine_basis():
    worst_entry = 0.0
    worst_det = 0.0
    ok = True
    for n in range(2, 9):
        rep = verify_basis_properties(n, tol=1e-11, det_rtol=1e-10)
        ok = ok and rep.passed
        d = rep.to_dict()
        worst_entry = max(
            worst_entry,
            d["periodicity"], d["trace_window"], d["trace_lattice"],
            d["product"], d["commutator"], d["adjoint"], d["inverse"],
        )
        worst_det = max(worst_det, d["det_rel_dev"])
    _verdict(
        1, "finite basis properties, ranks 2..8", ok,
        f"worst entrywise {worst_entry:.2e}, worst det rel {worst_det:.2e}",
    )


def test_criterion_2_projection_homomorphism():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in range(2, 8):
        hbar = matched_hbar(n)
        for _ in range(100):
            f = _random_real_field(rng, band=4, n_modes=5)
            g = _random_real_field(rng, band=4, n_modes=5)
            lhs = chi_project(moyal_bracket(f, g, hbar), n)
            a = chi_project(f, n)
            b = chi_project(g, n)
            gap = np.max(np.abs(lhs - (a @ b - b @ a)))
            worst = max(worst, float(gap))
    _verdict(
        2, "bracket-to-commutator projection, ranks 2..7, 100 pairs each",
        worst <= 1e-10, f"worst entrywise {worst:.2e}",
    )


def test_criterion_3_star_algebra():
    rng = np.random.default_rng(303)

    worst_assoc = 0.0
    for _ in range(100):
        hbar = rng.uniform(0.05, 3.0)
        f = _random_field(rng, 3, 4)
        g = _random_field(rng, 3, 4)
        h = _random_field(rng, 3, 4)
        gap = (
            star_product(star_product(f, g, hbar), h, hbar)
            - star_product(f, star_product(g, h, hbar), hbar)
        ).max_abs_coeff()
        worst_assoc = max(worst_assoc, gap)

    exact = True
    for _ in range(100):
        hbar = rng.uniform(0.05, 3.0)
        f = _random_field(rng, 5, 5)
        g = _random_field(rng, 5, 5)
        a = moyal_bracket(f, g, hbar)
        b = moyal_bracket(g, f, hbar)
        exact = exact and np.array_equal(a.modes, b.modes)
        exact = exact and np.array_equal(a.coeffs, -b.coeffs)
        exact = exact and moyal_bracket(f, f, hbar).size == 0

    worst_jacobi = 0.0
    for _ in range(100):
        hbar = rng.uniform(0.05, 3.0)
        f = _random_field(rng, 5, 4)
        g = _random_field(rng, 5, 4)
        h = _random_field(rng, 5, 4)
        total = (
            moyal_bracket(f, moyal_bracket(g, h, hbar), hbar)
            + moyal_bracket(g, moyal_bracket(h, f, hbar), hbar)
            + moyal_bracket(h, moyal_bracket(f, g, hbar), hbar)
        )
        worst_jacobi = max(worst_jacobi, total.max_abs_coeff())

    ratios = []
    for _ in range(20):
        f = _random_field(rng, 3, 4)
        g = _random_field(rng, 3, 4)
        gap1 = (moyal_bracket(f, g, 0.1) - poisson_bracket(f, g)).max_abs_coeff()
        gap2 = (moyal_bracket(f, g, 0.05) - poisson_bracket(f, g)).max_abs_coeff()
        if gap2 > 1e-9:
            ratios.append(gap1 / gap2)
    quad = bool(ratios) and all(3.0 <= r <= 5.0 for r in ratios)

    real_ok = True
    for _ in range(20):
        f = _random_real_field(rng, 4, 4)
        g = _random_real_field(rng, 4, 4)
        real_ok = real_ok and moyal_bracket(f, g, 0.7).is_real(1e-12)

    ok = worst_assoc <= 1e-12 and exact and worst_jacobi <= 1e-12 and quad and real_ok
    _verdict(
        3, "star algebra: associative, antisymmetric, Jacobi, quadratic limit",
        ok,
        f"assoc {worst_assoc:.2e}, antisym exact {exact}, "
        f"jacobi {worst_jacobi:.2e}, quadratic {quad}, real {real_ok}",
    )


def test_criterion_4_master_equation():
    hbars = [2 * np.pi / k for k in range(2, 9)] + [1e-3]
    orders = []
    for hbar in hbars:
        sol = example_solution(hbar)
        sups = []
        for nz in (17, 33):
            grid = SpacetimeGrid(
                {"w": np.linspace(-0.3, 0.3, 3), "z": np.linspace(0.1, 0.9, nz)}
            )
            sups.append(residual_moyal_hp(sol.gridded(grid, 24)).sup)
        orders.append(richardson_order(sups[0], sups[1]))
    orders_ok = all(1.7 <= o <= 2.3 for o in orders)

    theta0, theta1 = example_cauchy_data()
    worst_series = 0.0
    for hbar in (0.3, 2 * np.pi / 5):
        s = freq_factor(hbar)
        series = kowalewska_series(theta0, theta1, hbar, terms=7)
        for k in range(2, 7):
            got = series.orders[k].at_w(0.0)
            # closed form -s^(k-1) cos^(k-1) q d_p^(k-2) cos p
            cosq = FourierField.from_dict({(0, 1): 0.5, (0, -1): 0.5})
            acc = FourierField.from_dict({(0, 0): -(s ** (k - 1))})
            for _ in range(k - 1):
                acc = star_product(acc, cosq, 0.0)
            dp = FourierField.from_dict({(1, 0): 0.5, (-1, 0): 0.5})
            for _ in range(k - 2):
                dp = dp.derivative(0)
            want = star_product(acc, dp, 0.0)
            worst_series = max(worst_series, (got - want).max_abs_coeff())

    hbar = 2 * np.pi / 5
    series = kowalewska_series(theta0, theta1, hbar, terms=13)
    target = example_solution(hbar).mode_field(0.3, 0.4, band_limit=16, torus_n=48)
    trunc_gap = (series.field_at(0.3, 0.4) - target).max_abs_coeff()

    ok = orders_ok and worst_series <= 1e-12 and trunc_gap <= 1e-8
    _verdict(
        4, "deformed equation: residual orders, recursion, truncation",
        ok,
        f"orders {['%.3f' % o for o in orders]}, series {worst_series:.2e}, "
        f"truncation {trunc_gap:.2e}",
    )


def test_criterion_5_geometry():
    pts20 = admissible_points(20, seed=11)
    frame = example_tetrad()
    tetrad_gap = max(
        float(np.max(np.abs(metric_from_tetrad(frame, pt).matrix - example_metric(pt).matrix)))
        for pt in pts20
    )
    rep = weyl_report(pts20, step=1e-3)
    pp_gap = max(pp_wave_check(pt) for pt in admissible_points(50, seed=12))
    ok = (
        tetrad_gap <= 1e-10
        and rep.max_c1_rel_err <= 1e-4
        and rep.max_dotted_norm < 1e-3
        and rep.single_component_type
        and pp_gap <= 1e-10
    )
    _verdict(
        5, "tetrad, connection type, curvature component, plane-wave chart",
        ok,
        f"tetrad {tetrad_gap:.2e}, C1 rel {rep.max_c1_rel_err:.2e}, "
        f"dotted {rep.max_dotted_norm:.2e}, other rel {rep.max_other_rel_norm:.2e}, "
        f"pp {pp_gap:.2e}",
    )


def test_criterion_6_chiral_fields():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    model2 = chiral_model(2)
    ws = np.linspace(-1, 1, 65)[:, None]
    zs = np.linspace(-1, 1, 65)[None, :]
    w, z = ws[..., None, None], zs[..., None, None]
    want = (
        np.cos(2 * z / np.pi) / 2j * s1
        + w / (np.pi * 1j) * s2
        + np.sin(2 * z / np.pi) / 2j * s3
    )
    pauli_gap = float(np.max(np.abs(model2.field_matrix(ws, zs) - want)))

    su_gap = 0.0
    orders = []
    for n in range(2, 7):
        model = chiral_model(n)
        for w, z in ((0.0, 0.0), (0.6, 0.8), (-0.4, 1.5)):
            m = model.field_matrix(w, z)
            su_gap = max(su_gap, float(np.max(np.abs(m + m.conj().T))))
            su_gap = max(su_gap, abs(np.trace(m)))
        sups = []
        for nodes in (9, 17):
            grid = SpacetimeGrid(
                {"w": np.linspace(-0.5, 0.5, nodes), "z": np.linspace(0.1, 1.1, nodes)}
            )
            sups.append(residual_chiral(model.matrix_field(grid)).sup)
        orders.append(richardson_order(sups[0], sups[1]))
    orders_ok = all(1.7 <= o <= 2.3 for o in orders)

    fold_gap = 0.0
    for n in (3, 4, 5):
        model = chiral_model(n)
        for w, z in ((0.3, 0.7), (-0.2, 1.1)):
            exp = fourier_expansion_theta(matched_hbar(n), w, z, band_limit=40)
            gap = np.max(np.abs(chi_project(exp.field, n) - model.field_matrix(w, z)))
            fold_gap = max(fold_gap, float(gap))

    ok = pauli_gap <= 1e-9 and su_gap <= 1e-11 and orders_ok and fold_gap <= 1e-7
    _verdict(
        6, "finite-rank chiral fields: rank 2 closed form, algebra membership, residual order, folding",
        ok,
        f"rank2 {pauli_gap:.2e}, su {su_gap:.2e}, "
        f"orders {['%.3f' % o for o in orders]}, fold {fold_gap:.2e}",
    )


def test_criterion_7_large_rank_convergence():
    rep = convergence_study([2, 4, 8, 16, 32])
    ok = rep.monotone and 1.7 <= rep.exponent <= 2.3
    _verdict(
        7, "approach to the limit over ranks 2..32",
        ok,
        f"d {['%.2e' % d for d in rep.distances]}, exponent {rep.exponent:.3f}",
    )


def test_criterion_8_bessel_identities():
    rep = bessel_identity_check(zeta_max=4.0, terms=40)
    # the end-to-end rank-2 closed form only matches when the standard
    # normalization of the odd resummation is used; record both deviations
    model2 = chiral_model(2)
    want = (
        np.cos(2 * 0.9 / np.pi) / 2j * np.array([[0, 1], [1, 0]], dtype=complex)
        + 0.5 / (np.pi * 1j) * np.array([[0, -1j], [1j, 0]], dtype=complex)
        + np.sin(2 * 0.9 / np.pi) / 2j * np.array([[1, 0], [0, -1]], dtype=complex)
    )
    end_to_end = float(np.max(np.abs(model2.field_matrix(0.5, 0.9) - want)))
    ok = (
        rep.second_dev <= 1e-12
        and rep.standard_first_dev <= 1e-10
        and rep.printed_first_dev > 0.5
        and rep.first_identity_form == "standard"
        and end_to_end <= 1e-9
    )
    _verdict(
        8, "resummation identities on [0, 4]",
        ok,
        f"second {rep.second_dev:.2e}, first printed {rep.printed_first_dev:.2e} "
        f"vs standard {rep.standard_first_dev:.2e}, rank-2 check {end_to_end:.2e}",
    )


def test_criterion_9_cli_determinism(capsys, tmp_path):
    commands = [
        ["basis", "--n", "3"],
        ["star", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]", "--op", "star",
         "--hbar", "3.141592653589793"],
        ["solve", "--terms", "8", "--hbar", "0.3"],
        ["verify-chiral", "--n", "2", "--h", "0.25"],
        ["converge", "--n-list", "2,4"],
        ["bessel-check"],
    ]
    identical = True
    for argv in commands:
        outs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            identical = identical and code == 0
            outs.append(captured.out)
        identical = identical and outs[0] == outs[1] and len(outs[0]) > 0
    # file output is byte-stable too
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["basis", "--n", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    identical = identical and paths[0].read_bytes() == paths[1].read_bytes()
    _verdict(9, "repeated command line runs are byte-identical", identical)
