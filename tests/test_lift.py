"""Geometry, grid inversion, and the commonotone lift contracts."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskcal import (
    CoherentUtility,
    ConditionalUtility,
    DistortionFunction,
    Filtration,
    GeometryPoint,
    OutcomeSpace,
    RandomVariable,
    ScenarioSet,
    additivity_probe,
    build_uniform_grid,
    conditional_eval,
    find_b,
    geometry_xyl,
    is_commonotone_pair,
    lift_pair,
)
import riskcal.lift

SPACE8 = OutcomeSpace.uniform(8)
FILT8 = Filtration.two_period(SPACE8, [[0, 1, 2, 3], [4, 5, 6, 7]])
SPACE12 = OutcomeSpace.uniform(12)
FILT12 = Filtration.two_period(SPACE12, [list(range(6)), list(range(6, 12))])

EXPECT = CoherentUtility.from_distortion(DistortionFunction.expectation())
ES_HALF = CoherentUtility.from_distortion(DistortionFunction.es((1, 2)))

CU8_EXP = ConditionalUtility(EXPECT, SPACE8, FILT8)
CU8_ES = ConditionalUtility(ES_HALF, SPACE8, FILT8)
GRID8 = build_uniform_grid(SPACE8, FILT8, 4)


def in_v(xv: float, ev: float, m: float) -> bool:
    return (ev == -m and xv <= m) or (xv == m and ev >= -m)


# ---------------------------------------------------------------- geometry

def test_geometry_center_point():
    x, y, lam = geometry_xyl(GeometryPoint(0.0, 0.0), 1.0)
    assert (x.x, x.y) == (-1.0, -1.0)
    assert (y.x, y.y) == (1.0, 1.0)
    assert lam == 0.5


def test_geometry_corner_point():
    p = GeometryPoint(1.0, -1.0)
    x, y, lam = geometry_xyl(p, 1.0)
    assert x == p and y == p
    assert lam == 0.0


def test_geometry_boundary_point():
    x, y, lam = geometry_xyl(GeometryPoint(1.0, 0.0), 1.0)
    assert (x.x, x.y) == (0.0, -1.0)
    assert (y.x, y.y) == (1.0, 0.0)
    assert lam == 1.0


def test_geometry_rejects_outside_wedge():
    with pytest.raises(ValueError, match="outside the wedge"):
        geometry_xyl(GeometryPoint(2.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="outside the wedge"):
        geometry_xyl(GeometryPoint(0.0, -2.0), 1.0)
    with pytest.raises(ValueError, match="must be positive"):
        geometry_xyl(GeometryPoint(0.0, 0.0), 0.0)


@given(
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(0.1, 4.0),
)
def test_geometry_reconstruction(fx, gy, extra):
    m = max(abs(fx), abs(gy)) + extra
    x, y, lam = geometry_xyl(GeometryPoint(fx, gy), m)
    d = 2 * m + gy - fx
    assert x.y == -m and y.x == m
    assert x.x <= m and y.y >= -m
    assert y.x - x.x == pytest.approx(d, abs=1e-12)
    assert y.y - x.y == pytest.approx(d, abs=1e-12)
    assert lam * y.x + (1 - lam) * x.x == pytest.approx(fx, abs=1e-12)
    assert lam * y.y + (1 - lam) * x.y == pytest.approx(gy, abs=1e-12)


# ------------------------------------------------------------------ find_b

def test_find_b_identity_grid():
    space = OutcomeSpace.uniform(4)
    filt = Filtration.two_period(space, [[0, 1], [2, 3]])
    cu = ConditionalUtility(EXPECT, space, filt)
    grid = build_uniform_grid(space, filt, 2)
    target = RandomVariable.constant(0.5, 4)
    b, achieved = find_b(cu, grid, target)
    assert achieved.values == (0.5, 0.5, 0.5, 0.5)
    for block in filt.f1.blocks:
        assert sum(1 for i in block if b.member[i]) == 1


def test_find_b_es_half_exact_intersection():
    cu = CU8_ES
    target = RandomVariable.constant(0.5, 8)
    b, achieved = find_b(cu, GRID8, target)
    assert achieved.values == (0.5,) * 8
    for block in FILT8.f1.blocks:
        assert sum(1 for i in block if b.member[i]) == 3   # psi(3/4) = 1/2
    u = conditional_eval(cu, b.indicator())
    assert u.values == (0.5,) * 8


def test_find_b_zero_target_empty():
    b, achieved = find_b(CU8_ES, GRID8, RandomVariable.constant(0.0, 8))
    assert b.indices() == ()
    assert achieved.values == (0.0,) * 8


def test_find_b_tie_prefers_smaller_set():
    # es(1/2) on n=4: psi = (0, 0, 0, 1/2, 1) over k=0..4; target 1/4 ties k=3 with k<=2
    b, achieved = find_b(CU8_ES, GRID8, RandomVariable.constant(0.25, 8))
    assert achieved.values == (0.0,) * 8
    assert b.indices() == ()


def test_find_b_requires_distortion_base():
    scen = CoherentUtility.from_scenarios(ScenarioSet.of([[0.125] * 8]))
    cu = ConditionalUtility(scen, SPACE8, FILT8)
    with pytest.raises(ValueError, match="non-distortion base"):
        find_b(cu, GRID8, RandomVariable.constant(0.5, 8))


def test_find_b_requires_measurable_target():
    with pytest.raises(ValueError, match="F1-measurable"):
        find_b(CU8_ES, GRID8, RandomVariable.of([0.5, 0.4] * 4))


# ---------------------------------------------------------------- lift_pair

def test_golden_lift_expectation_base():
    f = RandomVariable.from_block_values([0.0, 1.0], FILT8.f1, 8)
    g = RandomVariable.from_block_values([0.0, -1.0], FILT8.f1, 8)
    pair, diag = lift_pair(CU8_EXP, GRID8, f, g)

    assert pair.m == 1.0
    assert all(in_v(a, b, 1.0) for a, b in zip(pair.xi.values, pair.eta.values))
    ok, _ = is_commonotone_pair(pair.xi, pair.eta, SPACE8)
    assert ok
    assert pair.xi.sup_norm() == 1.0 <= 3 * pair.m
    assert pair.eta.sup_norm() <= 3 * pair.m

    u_xi = conditional_eval(CU8_EXP, pair.xi)
    u_eta = conditional_eval(CU8_EXP, pair.eta)
    u_sum = conditional_eval(CU8_EXP, pair.xi + pair.eta)
    for i in range(8):
        assert u_xi.values[i] == pytest.approx(f.values[i], abs=1e-9)
        assert u_eta.values[i] == pytest.approx(g.values[i], abs=1e-9)
        assert u_sum.values[i] == pytest.approx(f.values[i] + g.values[i], abs=1e-9)

    assert diag.snap_error == 0.0
    # block 0 splits half-half; block 1 is the corner and stays off B
    assert sum(1 for i in FILT8.f1.blocks[0] if pair.b.member[i]) == 2
    assert all(not pair.b.member[i] for i in FILT8.f1.blocks[1])
    assert set(zip(pair.xi.values[4:], pair.eta.values[4:])) == {(1.0, -1.0)}


def test_degenerate_lambda_path():
    f = RandomVariable.from_block_values([1.0, 0.0], FILT8.f1, 8)
    g = RandomVariable.from_block_values([0.0, -1.0], FILT8.f1, 8)
    pair, diag = lift_pair(CU8_EXP, GRID8, f, g)
    # block 0: lambda = 1, entire block in B, pair sits at Y = (1, 0)
    assert all(pair.b.member[i] for i in FILT8.f1.blocks[0])
    assert set(zip(pair.xi.values[:4], pair.eta.values[:4])) == {(1.0, 0.0)}
    # block 1: lambda = 0, corner excluded from B, pair sits at (0, -1)
    assert all(not pair.b.member[i] for i in FILT8.f1.blocks[1])
    assert set(zip(pair.xi.values[4:], pair.eta.values[4:])) == {(0.0, -1.0)}
    assert max(diag.err_f) <= 1e-12 and max(diag.err_g) <= 1e-12


def test_zero_inputs_trivial_lift():
    zero = RandomVariable.constant(0.0, 8)
    pair, diag = lift_pair(CU8_EXP, GRID8, zero, zero)
    assert pair.xi.values == zero.values
    assert pair.eta.values == zero.values
    assert pair.m == 0.0
    assert diag.snap_error == 0.0


def test_lift_requires_measurable_inputs():
    with pytest.raises(ValueError, match="F1-measurable"):
        lift_pair(CU8_EXP, GRID8, RandomVariable.of([1, 0] * 4),
                  RandomVariable.constant(0.0, 8))


def test_lift_requires_distortion_base():
    scen = CoherentUtility.from_scenarios(ScenarioSet.of([[0.125] * 8]))
    cu = ConditionalUtility(scen, SPACE8, FILT8)
    zero = RandomVariable.constant(0.0, 8)
    one = RandomVariable.constant(1.0, 8)
    with pytest.raises(ValueError, match="non-distortion base"):
        lift_pair(cu, GRID8, one, zero)


def test_lift_random_suite_invariants():
    rng = np.random.default_rng(43)
    for cu in (CU8_EXP, CU8_ES):
        for _ in range(40):
            f = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), FILT8.f1, 8)
            g = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), FILT8.f1, 8)
            pair, diag = lift_pair(cu, GRID8, f, g)
            m = pair.m
            assert all(in_v(a, b, m) for a, b in zip(pair.xi.values, pair.eta.values))
            ok, _ = is_commonotone_pair(pair.xi, pair.eta, SPACE8)
            assert ok
            assert pair.xi.sup_norm() <= 3 * m + 1e-12
            assert pair.eta.sup_norm() <= 3 * m + 1e-12

            u_xi = conditional_eval(cu, pair.xi)
            u_eta = conditional_eval(cu, pair.eta)
            u_sum = conditional_eval(cu, pair.xi + pair.eta)
            for bi, block in enumerate(FILT8.f1.blocks):
                i = block[0]
                x_pt, y_pt, _ = geometry_xyl(GeometryPoint(f.values[i], g.values[i]), m)
                d = y_pt.x - x_pt.x
                lam_a = pair.lambda_achieved.values[i]
                # equalities against the achieved weight
                assert u_xi.values[i] == pytest.approx(x_pt.x + d * lam_a, abs=1e-9)
                assert u_sum.values[i] == pytest.approx(
                    u_xi.values[i] + u_eta.values[i], abs=1e-9)
                # approximation contract against the target weight
                assert abs(u_xi.values[i] - f.values[i]) <= d * diag.snap_error + 1e-9
                assert abs(u_eta.values[i] - g.values[i]) <= d * diag.snap_error + 1e-9
                assert diag.err_f[bi] == pytest.approx(abs(u_xi.values[i] - f.values[i]), abs=1e-12)


def test_lift_returns_the_boundary_points_it_computed():
    f = RandomVariable.from_block_values([0.75, -0.25], FILT8.f1, 8)
    g = RandomVariable.from_block_values([-0.5, 1.0], FILT8.f1, 8)
    with mock.patch.object(riskcal.lift, "geometry_xyl", wraps=geometry_xyl) as spy:
        pair, _ = lift_pair(CU8_ES, GRID8, f, g)
    assert spy.call_count == len(FILT8.f1.blocks)
    want = [geometry_xyl(GeometryPoint(f.values[b[0]], g.values[b[0]]), pair.m) for b in FILT8.f1.blocks]
    assert pair.boundary == tuple((x_pt, y_pt) for x_pt, y_pt, _ in want)
    assert pair.lambda_target == RandomVariable.from_block_values([lam for *_, lam in want], FILT8.f1, 8)


def test_lift_of_zero_payoffs_puts_every_boundary_point_at_the_origin():
    zero = RandomVariable.constant(0.0, 8)
    pair, _ = lift_pair(CU8_ES, GRID8, zero, zero)
    assert pair.m == 0.0
    assert pair.boundary == ((GeometryPoint(0.0, 0.0), GeometryPoint(0.0, 0.0)),) * 2


# ---------------------------------------------------------- additivity probe

def test_additivity_probe_expectation_base_vanishes():
    rng = np.random.default_rng(47)
    for _ in range(50):
        f = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), FILT8.f1, 8)
        g = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), FILT8.f1, 8)
        report = additivity_probe(CU8_EXP, GRID8, f, g)
        assert abs(report.a_value) <= 1e-9


def test_additivity_probe_es_exhibit_is_one():
    cu = ConditionalUtility(ES_HALF, SPACE12, FILT12)
    grid = build_uniform_grid(SPACE12, FILT12, 6)
    f = RandomVariable.from_block_values([1.0, 0.0], FILT12.f1, 12)
    g = RandomVariable.from_block_values([0.0, 1.0], FILT12.f1, 12)
    report = additivity_probe(cu, grid, f, g)
    assert report.snap_error == 0.0
    assert report.a_value == pytest.approx(1.0, abs=1e-9)
    assert report.u01_f == pytest.approx(0.0, abs=1e-12)
    assert report.u01_g == pytest.approx(0.0, abs=1e-12)
    assert report.u01_fg == pytest.approx(1.0, abs=1e-12)
    ok, _ = is_commonotone_pair(report.pair.xi, report.pair.eta, SPACE12)
    assert ok


def test_additivity_probe_commonotone_f1_inputs_vanish():
    # f and g ordered the same way across blocks: distortions add up on them
    f = RandomVariable.from_block_values([0.2, 0.8], FILT8.f1, 8)
    g = RandomVariable.from_block_values([-0.5, 0.3], FILT8.f1, 8)
    report = additivity_probe(CU8_ES, GRID8, f, g)
    assert abs(report.u01_fg - report.u01_f - report.u01_g) <= 1e-12
    assert abs(report.a_value) <= 1e-9 + 2 * 2.6 * report.snap_error


def test_additivity_probe_snap_error_zero_cases_match_f_side():
    report = additivity_probe(CU8_EXP, GRID8,
                              RandomVariable.from_block_values([0.5, -0.5], FILT8.f1, 8),
                              RandomVariable.from_block_values([0.25, 0.5], FILT8.f1, 8))
    if report.snap_error == 0.0:
        assert report.u_hat_xi == pytest.approx(report.u01_f, abs=1e-9)
        assert report.u_hat_eta == pytest.approx(report.u01_g, abs=1e-9)


def test_lift_refuses_a_nan_inside_a_block():
    space = OutcomeSpace.uniform(4)
    filt = Filtration.two_period(space, [[0, 1], [2, 3]])
    cu = ConditionalUtility(ES_HALF, space, filt)
    with pytest.raises(ValueError, match="F1-measurable"):
        lift_pair(cu, build_uniform_grid(space, filt), RandomVariable.of([1, float("nan"), 0, 0]),
                  RandomVariable.constant(0.0, 4))


def test_find_b_refuses_a_nan_target():
    # singleton blocks, so the NaN block is measurable and the range test is what refuses it
    space = OutcomeSpace.uniform(2)
    filt = Filtration.two_period(space, [[0], [1]])
    cu = ConditionalUtility(ES_HALF, space, filt)
    with pytest.raises(ValueError, match=r"lambda_target value nan outside \[0, 1\]"):
        find_b(cu, build_uniform_grid(space, filt, 1), RandomVariable.of([float("nan"), 0.5]))
