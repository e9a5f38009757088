"""Heavenly metric, null coframe, connection extraction, curvature type."""

import math

import numpy as np
import pytest

from startorus import (
    FRAME_METRIC,
    MetricField,
    SingularMetricError,
    ThetaDerivatives,
    admissible_points,
    cartan_first,
    example_connection,
    example_metric,
    example_solution,
    example_tetrad,
    example_theta,
    fd_theta_derivatives,
    hp_metric,
    metric_from_tetrad,
    pp_wave_check,
    weyl_c1,
    weyl_report,
    weyl_sample,
)
from startorus.numerics import central_diff

POINTS = admissible_points(20, seed=7)


def classical_scalar(pt):
    w, z, p, q = pt
    return example_solution(0.0).evaluate(w, z, p, q)


def test_fd_pack_matches_closed_pack():
    # cross differences carry eps/h^2 noise, so h = 1e-4 balances both terms
    closed = example_theta()
    fd = fd_theta_derivatives(classical_scalar, step=1e-4)
    for pt in POINTS[:5]:
        for name in ("d_w", "d_z", "d_pw", "d_qw", "d_pz", "d_qz"):
            a = getattr(closed, name)(pt)
            b = getattr(fd, name)(pt)
            assert abs(a - b) < 1e-6, (name, pt)


def test_metric_from_fd_derivatives_matches_example():
    fd = fd_theta_derivatives(classical_scalar, step=1e-4)
    for pt in POINTS[:5]:
        got = hp_metric(fd, pt).matrix
        want = example_metric(pt).matrix
        assert np.max(np.abs(got - want)) < 1e-6


def test_metric_shape_and_symmetry():
    g = example_metric((0.2, -0.4, 0.5, 0.1))
    assert g.matrix.shape == (4, 4)
    assert g.symmetry_defect() == 0.0
    assert g.point == (0.2, -0.4, 0.5, 0.1)
    with pytest.raises(ValueError):
        MetricField(np.eye(3), (0.0, 0.0, 0.0, 0.0))


def test_degenerate_bracket_raises_with_location():
    flat_pack = ThetaDerivatives(
        d_w=lambda pt: 1.0,
        d_z=lambda pt: 1.0,
        d_pw=lambda pt: 0.0,
        d_qw=lambda pt: 0.0,
        d_pz=lambda pt: 0.0,
        d_qz=lambda pt: 0.0,
    )
    with pytest.raises(SingularMetricError) as err:
        hp_metric(flat_pack, (0.1, 0.2, 0.3, 0.4))
    assert err.value.location == (0.1, 0.2, 0.3, 0.4)


def test_tetrad_reconstructs_metric():
    frame = example_tetrad()
    worst = 0.0
    for pt in POINTS:
        gap = np.max(np.abs(metric_from_tetrad(frame, pt).matrix - example_metric(pt).matrix))
        worst = max(worst, float(gap))
    assert worst <= 1e-10, worst


def test_frame_metric_contracts_the_coframe():
    # e^T eta e must equal the explicit 2 e1e2 + 2 e3e4 assembly
    frame = example_tetrad()
    for pt in POINTS[:5]:
        e = frame.at(pt)
        g = e.T @ FRAME_METRIC @ e
        assert np.max(np.abs(g - metric_from_tetrad(frame, pt).matrix)) < 1e-14
    assert np.array_equal(FRAME_METRIC, FRAME_METRIC.T)
    assert np.array_equal(FRAME_METRIC @ FRAME_METRIC, np.eye(4))


def test_tetrad_branch_locus_raises():
    frame = example_tetrad()
    with pytest.raises(SingularMetricError):
        frame.at((0.0, 0.0, 0.0, np.pi / 2))
    with pytest.raises(SingularMetricError):
        frame.at((0.0, 0.0, np.pi / 2, 0.0))  # second cosine vanishes
    # a negative cosine is fine for the frame, only near-zero is excluded
    frame.at((0.0, 0.0, np.pi, 0.0))


def test_cartan_solve_is_consistent():
    frame = example_tetrad()
    for pt in POINTS[:5]:
        res = cartan_first(frame, pt, step=1e-3)
        assert res.solve_residual < 1e-12
        # de is a 2-form in the lower indices
        assert np.max(np.abs(res.de + np.transpose(res.de, (0, 2, 1)))) == 0.0


def test_extracted_connection_matches_closed_form():
    frame = example_tetrad()
    for pt in POINTS[:5]:
        got = cartan_first(frame, pt, step=1e-3).conn
        want = example_connection(pt)
        worst = max(
            float(np.max(np.abs(got.get(a, b) - want.get(a, b))))
            for a in range(1, 5)
            for b in range(1, 5)
        )
        assert worst < 1e-4, (pt, worst)


def test_closed_connection_solves_structure_equation():
    # de^a = -Gamma^a_b ^ e^b with the frame index raised by FRAME_METRIC
    frame = example_tetrad()
    pt = POINTS[0]
    de = cartan_first(frame, pt, step=1e-3).de
    e = frame.at(pt)
    conn = example_connection(pt)
    for a in range(4):
        rhs = np.zeros((4, 4))
        for c in range(4):
            eta = FRAME_METRIC[a, c]
            if eta == 0.0:
                continue
            for b in range(4):
                gamma = eta * conn.get(c + 1, b + 1)
                rhs -= np.outer(gamma, e[b]) - np.outer(e[b], gamma)
        assert np.max(np.abs(de[a] - rhs)) < 1e-4


def test_closed_connection_dotted_part_vanishes_exactly():
    for pt in POINTS[:5]:
        assert example_connection(pt).dotted_defect() == 0.0


def test_weyl_c1_origin_value():
    assert weyl_c1((0.0, 0.0, 0.0, 0.0)) == 8.0


def test_weyl_report_single_component():
    rep = weyl_report(POINTS[:8], step=1e-3)
    assert rep.max_c1_rel_err <= 1e-4
    assert rep.max_other_rel_norm < 1e-3
    assert rep.max_dotted_norm < 1e-4
    assert rep.single_component_type
    d = rep.to_dict()
    assert d["single_component_type"] is True
    assert len(d["samples"]) == 8


def test_weyl_error_shrinks_with_step():
    pt = POINTS[1]
    coarse = weyl_sample(pt, step=1e-3).c1_rel_err
    fine = weyl_sample(pt, step=5e-4).c1_rel_err
    assert fine < 0.5 * coarse


def test_weyl_closed_connection_route():
    pt = POINTS[2]
    s = weyl_sample(pt, step=1e-3, extracted=False)
    assert s.dotted_norm == 0.0
    assert s.c1_rel_err < 1e-4
    assert abs(weyl_sample((0.0, 0.0, 0.0, 0.0), extracted=False).c1_estimate - 8.0) < 1e-3


def test_pp_wave_pullback():
    worst = max(pp_wave_check(pt) for pt in admissible_points(50, seed=3))
    assert worst <= 1e-10, worst


def test_pp_wave_needs_positive_branch():
    with pytest.raises(SingularMetricError):
        pp_wave_check((0.0, 0.0, np.pi, 0.0))


def test_admissible_points_deterministic_and_margined():
    a = admissible_points(12, seed=5)
    b = admissible_points(12, seed=5)
    assert a == b
    assert len(a) == 12
    for w, z, p, q in a:
        assert math.cos(q) >= 0.3
        assert math.cos(z * math.cos(q) + p) >= 0.3
        assert -1.0 <= w <= 1.0 and -1.0 <= z <= 1.0
    assert admissible_points(3, seed=5) != admissible_points(3, seed=6)


@pytest.mark.parametrize("margin", [1.0, 1.5])
def test_admissible_points_rejects_unreachable_margin(margin):
    # cos q >= 1 has probability zero, so such a margin would draw forever
    with pytest.raises(ValueError, match="margin"):
        admissible_points(1, margin=margin)


@pytest.mark.parametrize("count", [0, -2])
def test_admissible_points_rejects_a_count_below_one(count):
    with pytest.raises(ValueError, match="at least one point"):
        admissible_points(count)


def test_weyl_sample_solves_nine_times_and_reports_the_centre_residual(monkeypatch):
    import startorus.geometry as geometry

    core, at = geometry._cartan, geometry.TetradFrame.at
    batches, nodes = [], []

    def counted(frames, step):
        batches.append(frames.shape)
        return core(frames, step)

    def recorded(frame, point):
        nodes.append(np.asarray(point))
        return at(frame, point)

    monkeypatch.setattr(geometry, "_cartan", counted)
    monkeypatch.setattr(geometry.TetradFrame, "at", recorded)
    pt = POINTS[3]
    sample = geometry.weyl_sample(pt, step=1e-3)
    monkeypatch.undo()
    # one coframe call on the nested stencil, one solve over its nine
    # centres, the point among them once
    assert batches == [(1, 9, 9, 4, 4)]
    assert [n.shape for n in nodes] == [(1, 9, 9, 4)]
    centres = [tuple(c) for c in nodes[0][0, :, 0].tolist()]
    assert len(set(centres)) == 9 and centres.count(tuple(pt)) == 1
    direct = cartan_first(example_tetrad(), pt, 1e-3)
    assert sample.structure_residual == direct.solve_residual
    assert sample.dotted_norm == direct.conn.dotted_defect()
    assert weyl_sample(pt, extracted=False).structure_residual == 0.0


def test_weyl_sample_is_its_point_of_a_report():
    # bit for bit: a point's figures do not depend on the points batched with it
    for extracted in (True, False):
        report = weyl_report(POINTS, step=1e-3, extracted=extracted)
        for k in (0, 7):
            alone = weyl_sample(POINTS[k], step=1e-3, extracted=extracted)
            one = weyl_report([POINTS[k]], step=1e-3, extracted=extracted).samples[0]
            assert alone == one == report.samples[k]


def test_stencil_node_on_the_branch_locus_raises_at_the_first_such_node():
    # cos q = 2e-3 clears the branch tolerance at the point and at its
    # neighbours, but the +q neighbour's own +q neighbour sits on q = pi/2
    step = 1e-3
    q = math.pi / 2 - 2 * step
    with pytest.raises(SingularMetricError) as err:
        weyl_report([POINTS[0], (0.1, 0.2, -0.3, q), (0.0, 0.0, 0.0, math.pi / 2)], step=step)
    assert err.value.location == (0.1, 0.2, -0.3, q + step + step)
    assert "branch locus" in str(err.value)


@pytest.mark.parametrize(
    "points", [[(0.1, 0.2, 0.3)], [0.1, 0.2, 0.3, 0.4], [[POINTS[0]]], [], np.zeros((0, 4))]
)
def test_weyl_report_rejects_points_that_are_not_rows_of_four(points):
    with pytest.raises(ValueError, match="rows"):
        weyl_report(points)


# The per-point chain that weyl_report batches, frozen as its oracle: a
# scalar coframe, central_diff of it into one Cartan solve per stencil
# centre, and central_diff of the nine solves' undotted triples.


def _frozen_coframe(pt):
    w, z, p, q = pt
    cq, sq, ca = math.cos(q), math.sin(q), math.cos(z * math.cos(q) + p)
    r = 1.0 / math.sqrt(2.0)
    phi = cq / ca
    e = np.zeros((4, 4))
    e[0] = r / phi * np.array([0.0, cq, 1.0, -z * sq])
    e[1] = r * np.array([0.0, 0.0, -1.0, z * sq])
    e[2] = np.array([0.0, 0.0, 0.0, -r])
    e[3] = r * np.array([cq, 0.0, 0.0, phi])
    return e


def _frozen_cartan(pt, step):
    e = _frozen_coframe(pt)
    grad = np.array([central_diff(_frozen_coframe, pt, i, step) for i in range(4)])
    de = np.transpose(grad, (1, 0, 2)) - np.transpose(grad, (1, 2, 0))
    e_inv = np.linalg.inv(e)
    low = np.einsum("ab,bij,ic,jd->acd", FRAME_METRIC, de, e_inv, e_inv)
    gamma = 0.5 * (low + np.einsum("bca->abc", low) - np.einsum("cab->abc", low))
    forms = np.einsum("abc,cm->abm", gamma, e)
    forms = 0.5 * (forms - np.transpose(forms, (1, 0, 2)))
    wedge = np.einsum("ac,cbi,bj->aij", FRAME_METRIC, forms, e)
    resid = float(np.max(np.abs(de + wedge - np.transpose(wedge, (0, 2, 1)))))
    return de, forms, resid


def _frozen_sample(pt, step):
    """The sample's figures, and the scales of de and of the connection."""

    def triple(x):
        f = _frozen_cartan(x, step)[1]
        return np.array([f[3, 1], 0.5 * (f[0, 1] + f[2, 3]), f[2, 0]])

    def wedge(u, v):
        return np.outer(u, v) - np.outer(v, u)

    de, forms, resid = _frozen_cartan(pt, step)
    a0, b0, c0 = triple(pt)
    grad = np.array([central_diff(triple, pt, i, step) for i in range(4)])
    da, db, dc = (grad[:, t] - grad[:, t].T for t in range(3))
    r_a, r_b, r_c = da + wedge(a0, 2.0 * b0), db + wedge(a0, c0), dc + wedge(2.0 * b0, c0)
    e = _frozen_coframe(pt)
    basis = wedge(e[2], e[0])
    iu = np.triu_indices(4, k=1)
    c1 = 2.0 * float(np.sum(r_c[iu] * basis[iu])) / float(np.sum(basis[iu] ** 2))
    dotted = (forms[3, 0], 0.5 * (forms[2, 3] - forms[0, 1]), forms[2, 1])
    figures = {
        "c1_estimate": c1,
        "off_component_norm": float(np.max(np.abs(r_c - 0.5 * c1 * basis))),
        "ra_norm": float(np.max(np.abs(r_a))),
        "rb_norm": float(np.max(np.abs(r_b))),
        "dotted_norm": float(max(np.max(np.abs(c)) for c in dotted)),
        "structure_residual": resid,
    }
    return figures, float(np.max(np.abs(de))), float(np.max(np.abs(forms)))


def test_batched_curvature_matches_the_frozen_per_point_chain():
    # the two differ by round-off only, so each figure agrees to 1e-12 of
    # the scale it is computed at: curvature components at |C1|, the
    # connection's dotted part at max |Gamma|, the structure residual at max |de|
    points = admissible_points(32, seed=3)
    for pt, got in zip(points, weyl_report(points, step=1e-3).samples):
        want, de_scale, conn_scale = _frozen_sample(pt, 1e-3)
        curvature = ("c1_estimate", "off_component_norm", "ra_norm", "rb_norm")
        scales = dict.fromkeys(curvature, abs(want["c1_estimate"]))
        scales.update(dotted_norm=conn_scale, structure_residual=de_scale)
        for name, scale in scales.items():
            assert abs(getattr(got, name) - want[name]) <= 1e-12 * scale, (pt, name)


class _WavyFrame:
    """Smooth coframe e[a, mu] = delta + 0.3 sin(A[a, mu] . x), not a null tetrad."""

    def __init__(self, seed=11):
        self.freq = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, 4, 4))

    def at(self, point):
        return np.eye(4) + 0.3 * np.sin(self.freq @ np.asarray(point, dtype=float))


@pytest.mark.parametrize("frame", [_WavyFrame(), example_tetrad()], ids=["wavy", "tetrad"])
def test_cartan_connection_of_a_generic_frame(frame):
    # torsion free and eta-compatible, also beyond the one frame
    # example_connection knows; exactly antisymmetric, as get(b, a) is read
    for pt in POINTS[:5]:
        assert np.linalg.cond(frame.at(pt)) < 1e3
        res = cartan_first(frame, pt, step=1e-3)
        forms = res.conn.forms
        assert forms.shape == (4, 4, 4)
        assert np.array_equal(forms, -np.transpose(forms, (1, 0, 2)))
        assert np.max(np.abs(forms)) > 0.1
        assert res.solve_residual <= 1e-12 * np.max(np.abs(res.de)), pt


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
def test_step_that_is_not_finite_and_positive_is_rejected(step):
    pt = POINTS[0]
    with pytest.raises(ValueError, match="step must be finite and > 0"):
        cartan_first(example_tetrad(), pt, step)
    for extracted in (True, False):
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            weyl_sample(pt, step=step, extracted=extracted)
