"""Geometry, grid inversion, and the commonotone lift contracts."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcal import (
    CoherentUtility,
    ConditionalUtility,
    DistortionFunction,
    EventSet,
    Filtration,
    GeometryPoint,
    LiftDiagnostics,
    OutcomeSpace,
    Partition,
    RandomVariable,
    ScenarioSet,
    UniformGrid,
    additivity_probe,
    build_uniform_grid,
    conditional_eval,
    default_probes,
    find_b,
    geometry_xyl,
    is_commonotone_pair,
    lift_pair,
    tc_gap,
)
import riskcal.lift
from reference import conditional_commonotone_additivity_check, set_with_conditional_mass

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


CU8_P = ConditionalUtility(CoherentUtility.from_scenarios(ScenarioSet.of([[0.125] * 8])), SPACE8, FILT8)


def test_find_b_of_the_scenario_set_p_matches_the_expectation_base():
    # {P} values every indicator as the expectation does, so its table inverts to the same sets
    table = [k / 4 for k in range(5)]
    mids = [(a + b) / 2 for a, b in zip(table, table[1:])]
    for target in [0.0, 1.0, *table, *mids, 0.3]:
        lam = RandomVariable.from_block_values([target, 1.0 - target], FILT8.f1, 8)
        assert find_b(CU8_P, GRID8, lam) == find_b(CU8_EXP, GRID8, lam)


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


def test_lift_of_a_scenario_base_reproduces_f_and_g():
    # on each block xi = X + d 1_B, so u_A(xi) = X + d u_A(1_B) for any coherent base
    rng = np.random.default_rng(29)
    for _ in range(40):
        f, g = (RandomVariable.from_block_values(rng.uniform(-1, 1, 2), FILT8.f1, 8) for _ in "fg")
        pair, diag = lift_pair(CU8_P, GRID8, f, g)
        for (big_x, big_y), err_f, err_g, err_sum in zip(pair.boundary, diag.err_f, diag.err_g, diag.err_sum):
            bound = (big_y.x - big_x.x) * diag.snap_error + 1e-12  # d times the snap error; twice on xi + eta
            assert err_f <= bound and err_g <= bound and err_sum <= 2 * bound
        assert is_commonotone_pair(pair.xi, pair.eta, SPACE8)[0]


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


# ------------------------------------------- reference: the rank scan and expand-and-read

def reference_find_b(cu, grid, lambda_target):
    """find_b as a scan of the grid ranks: the first k nearest the target in
    the psi table, then {rank <= k} on each block."""
    n = grid.resolution
    psi_table = [float(cu.base.distortion.psi(Fraction(k, n))) for k in range(n + 1)]
    member = [False] * cu.space.size
    achieved = [0.0] * cu.space.size
    for block in cu.filtration.f1.blocks:
        target = lambda_target.values[block[0]]
        best_k = 0
        best_err = abs(psi_table[0] - target)
        for k in range(1, n + 1):
            err = abs(psi_table[k] - target)
            if err < best_err:
                best_k, best_err = k, err
        for i in block:
            achieved[i] = psi_table[best_k]
            if grid.ranks[i] <= best_k:
                member[i] = True
    return EventSet(tuple(member)), RandomVariable(tuple(achieved))


def reference_diagnostics(cu, grid, pair, f, g):
    """lift_pair's diagnostics read back at block[0] from conditional_eval,
    which expands each block value to every outcome."""
    u_xi = conditional_eval(cu, pair.xi)
    u_eta = conditional_eval(cu, pair.eta)
    u_sum = conditional_eval(cu, pair.xi + pair.eta)
    err_f, err_g, err_sum = [], [], []
    snap = 0.0
    for block in cu.filtration.f1.blocks:
        i = block[0]
        err_f.append(abs(u_xi.values[i] - f.values[i]))
        err_g.append(abs(u_eta.values[i] - g.values[i]))
        err_sum.append(abs(u_sum.values[i] - f.values[i] - g.values[i]))
        snap = max(snap, abs(pair.lambda_target.values[i] - pair.lambda_achieved.values[i]))
    return LiftDiagnostics(tuple(err_f), tuple(err_g), tuple(err_sum), snap, grid.resolution)


def reference_gaps(cu, x, y):
    cx, cy, cxy = conditional_eval(cu, x), conditional_eval(cu, y), conditional_eval(cu, x + y)
    return tuple(cxy.values[b[0]] - cx.values[b[0]] - cy.values[b[0]] for b in cu.filtration.f1.blocks)


REFERENCE_BASES = [
    EXPECT,
    ES_HALF,
    CoherentUtility.from_distortion(DistortionFunction.es((2, 7))),
    CoherentUtility.from_distortion(DistortionFunction.power(0.5)),
    CoherentUtility.from_distortion(DistortionFunction.piecewise([(0, 0), (0.5, 0.25), (1, 1)])),
]


@st.composite
def split_lifts(draw, bases=st.sampled_from(REFERENCE_BASES)):
    """A ConditionalUtility of a base from `bases` on 1-3 shuffled F1 blocks
    that each split into n groups of equal mass (n <= 12, a group being one
    or two outcomes), and the grid that ranks each outcome by its group."""
    n = draw(st.integers(1, 12))
    block_weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    total = n * sum(block_weights)
    masses, ranks, sizes = [], [], []
    for w in block_weights:
        parts = []
        for rank in range(1, n + 1):
            group = draw(st.sampled_from([(1,), (1, 1), (1, 3), (2, 1)]))
            parts += [(Fraction(p * w, sum(group) * total), rank) for p in group]
        parts = draw(st.permutations(parts))
        masses += [m for m, _ in parts]
        ranks += [r for _, r in parts]
        sizes.append(len(parts))
    order = draw(st.permutations(range(len(masses))))  # position j of the blocks is outcome order[j]
    where = {i: j for j, i in enumerate(order)}
    blocks, start = [], 0
    for size in sizes:
        blocks.append(order[start:start + size])
        start += size
    space = OutcomeSpace.from_masses([masses[where[i]] for i in range(len(masses))])
    filt = Filtration.two_period(space, blocks)
    cu = ConditionalUtility(draw(bases), space, filt)
    return cu, UniformGrid(resolution=n, ranks=tuple(ranks[where[i]] for i in range(len(masses))))


def lambda_targets(psi_table):
    """On-grid weights (the table's own values, ties included), midpoints
    between neighbours, which tie exactly where representable, and any weight."""
    mids = [(a + b) / 2 for a, b in zip(psi_table, psi_table[1:])]
    return st.one_of(st.sampled_from(psi_table), st.sampled_from(mids or psi_table), st.floats(0, 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_find_b_matches_the_rank_scan(data):
    cu, grid = data.draw(split_lifts())
    n = grid.resolution
    psi_table = [float(cu.base.distortion.psi(Fraction(k, n))) for k in range(n + 1)]
    blocks = cu.filtration.f1.blocks
    targets = data.draw(st.lists(lambda_targets(psi_table), min_size=len(blocks), max_size=len(blocks)))
    lam = RandomVariable.from_block_values(targets, cu.filtration.f1, cu.space.size)
    assert find_b(cu, grid, lam) == reference_find_b(cu, grid, lam)


DISTORTIONS = st.one_of(
    st.just(DistortionFunction.expectation()),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda ab: DistortionFunction.es(
        Fraction(min(ab), max(ab)))),
    st.floats(0, 1).map(DistortionFunction.power),
    st.floats(0.05, 0.95).flatmap(lambda p: st.floats(0, p).map(
        lambda y: DistortionFunction.piecewise([(0, 0), (p, y), (1, 1)]))),
).map(CoherentUtility.from_distortion)


def psi_table_find_b(cu, grid, lambda_target):
    """find_b as a shared psi table: float(psi(k/n)) for k = 0..n, on each
    block the nearest value with ties to the smaller k, then B cut by
    set_with_conditional_mass at k/n."""
    n = grid.resolution
    psi_table = [float(cu.base.distortion.psi(Fraction(k, n))) for k in range(n + 1)]
    f1, size = cu.filtration.f1, cu.space.size
    ks = [min(range(n + 1), key=lambda k: abs(psi_table[k] - lambda_target.values[block[0]])) for block in f1.blocks]
    h = RandomVariable.from_block_values([k / n for k in ks], f1, size)
    b = set_with_conditional_mass(cu.space, cu.filtration, grid, h).event
    return b, RandomVariable.from_block_values([psi_table[k] for k in ks], f1, size)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_find_b_reads_the_psi_table_of_every_distortion_kind(data):
    # a distortion base's indicator table is float(psi(k/n)) bit for bit, so B and lambda_achieved are too
    cu, grid = data.draw(split_lifts(DISTORTIONS))
    n = grid.resolution
    psi_table = [float(cu.base.distortion.psi(Fraction(k, n))) for k in range(n + 1)]
    blocks = cu.filtration.f1.blocks
    targets = data.draw(st.lists(lambda_targets(psi_table), min_size=len(blocks), max_size=len(blocks)))
    lam = RandomVariable.from_block_values(targets, cu.filtration.f1, cu.space.size)
    (b, achieved), (want_b, want_achieved) = find_b(cu, grid, lam), psi_table_find_b(cu, grid, lam)
    assert b == want_b
    assert [v.hex() for v in achieved.values] == [v.hex() for v in want_achieved.values]


def indicator_tables(cu, grid):
    """Each F1 block's whole table k -> u_A(1_{B_k}), k = 0..n, evaluated on the
    block's utility and law as cu.conditioned holds them."""
    return [[u.evaluate(RandomVariable(tuple(float(grid.ranks[i] <= k) for i in block)), law)
             for k in range(grid.resolution + 1)] for block, (u, law, _) in cu.conditioned.items()]


def linear_scan_find_b(cu, grid, lambda_target):
    """find_b as a linear scan of each block's whole table: the first k whose
    value is nearest the target, then B cut by set_with_conditional_mass at k/n."""
    n = grid.resolution
    f1, size = cu.filtration.f1, cu.space.size
    ks, achieved = [], []
    for block, table in zip(cu.conditioned, indicator_tables(cu, grid)):
        target = lambda_target.values[block[0]]
        k = min(range(n + 1), key=lambda k: abs(table[k] - target))
        ks.append(k)
        achieved.append(table[k])
    h = RandomVariable.from_block_values([k / n for k in ks], f1, size)
    b = set_with_conditional_mass(cu.space, cu.filtration, grid, h).event
    return b, RandomVariable.from_block_values(achieved, f1, size)


@st.composite
def scenario_lifts(draw):
    """split_lifts' space and grid under an exact scenario base of 1-3 measures;
    with two or more blocks, every measure may leave one block uncharged, so
    that the expectation stands in there as the fallback."""
    cu, grid = draw(split_lifts())
    blocks, size = cu.filtration.f1.blocks, cu.space.size
    uncharged = set(draw(st.sampled_from([(), *blocks]))) if len(blocks) > 1 else set()
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        weights = [0 if i in uncharged else draw(st.integers(0, 4)) for i in range(size)]
        if not any(weights):
            weights[min(set(range(size)) - uncharged)] = 1
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    base = CoherentUtility.from_scenarios(ScenarioSet.of(rows))
    return ConditionalUtility(base, cu.space, cu.filtration), grid


ES_TWELFTH = CoherentUtility.from_distortion(DistortionFunction.es((1, 12)))  # a plateau of zeros up to 11/12


def assert_find_b_matches_the_linear_scan(cu, grid, lam):
    (b, achieved), (want_b, want_achieved) = find_b(cu, grid, lam), linear_scan_find_b(cu, grid, lam)
    assert b == want_b
    assert [v.hex() for v in achieved.values] == [v.hex() for v in want_achieved.values]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_find_b_bisection_equals_the_linear_scan(data):
    cu, grid = data.draw(split_lifts(DISTORTIONS | st.just(ES_TWELFTH)) | scenario_lifts())
    tables = indicator_tables(cu, grid)
    assert all(a <= b for table in tables for a, b in zip(table, table[1:]))  # what the bisection relies on
    targets = [data.draw(lambda_targets(table) | st.sampled_from([0.0, 1.0])) for table in tables]
    assert_find_b_matches_the_linear_scan(cu, grid, RandomVariable.from_block_values(
        targets, cu.filtration.f1, cu.space.size))


# on 96 outcomes: one measure on the first half only, one rising 1..96 over 96 * 97 / 2
HALF_AND_RAMP = ScenarioSet.of([[Fraction(1, 48)] * 48 + [0] * 48, [Fraction(i, 48 * 97) for i in range(1, 97)]])


@pytest.mark.parametrize("base", [EXPECT, ES_TWELFTH, CoherentUtility.from_distortion(DistortionFunction.power(0.5)),
                                  CoherentUtility.from_scenarios(HALF_AND_RAMP)],
                         ids=["expectation", "es-1/12", "power", "scenario"])
def test_find_b_bisection_equals_the_linear_scan_on_every_level_of_a_long_table(base):
    # two blocks of 48 at n = 48: every table value and every midpoint of each block, 0 and 1
    space = OutcomeSpace.uniform(96)
    filt = Filtration.two_period(space, [list(range(48)), list(range(48, 96))])
    cu, grid = ConditionalUtility(base, space, filt), build_uniform_grid(space, filt, 48)
    first, second = ([*table, *((a + b) / 2 for a, b in zip(table, table[1:])), 0.0, 1.0]
                     for table in indicator_tables(cu, grid))
    for targets in zip(first, reversed(second)):
        assert_find_b_matches_the_linear_scan(cu, grid, RandomVariable.from_block_values(targets, filt.f1, 96))


PAYOFF = st.one_of(st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]), st.floats(-1, 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lift_pair_diagnostics_match_the_expand_and_read_form(data):
    cu, grid = data.draw(split_lifts())
    f1, size = cu.filtration.f1, cu.space.size
    count = len(f1.blocks)
    f, g = (RandomVariable.from_block_values(data.draw(st.lists(PAYOFF, min_size=count, max_size=count)), f1, size)
            for _ in "fg")
    pair, diag = lift_pair(cu, grid, f, g)
    assert (pair.b, pair.lambda_achieved) == reference_find_b(cu, grid, pair.lambda_target)
    assert diag == reference_diagnostics(cu, grid, pair, f, g)
    _, gaps = conditional_commonotone_additivity_check(cu, pair.xi, pair.eta)
    assert gaps == reference_gaps(cu, pair.xi, pair.eta)


def test_find_b_levels_round_trip_through_the_conditional_mass_set():
    # the lemma at h = k / n, as the lift oracles call it: each level must come back as k, unsnapped, for every n up to 1030
    space = OutcomeSpace.uniform(1031)
    f0, f2 = Partition.trivial(1031), Partition.singletons(1031)
    for n in range(1, 1031):
        f1 = Partition(tuple((i,) for i in range(n + 1)) + (tuple(range(n + 1, 1031)),) * (n < 1030))
        grid = UniformGrid(resolution=n, ranks=(1,) * 1031)
        h = RandomVariable.of([k / n for k in range(n + 1)] + [0.0] * (1030 - n))
        result = set_with_conditional_mass(space, Filtration(f0, f1, f2), grid, h)
        assert not result.snapped
        assert result.achieved == tuple(Fraction(k, n) for k in range(n + 1)) + (Fraction(0),) * (n < 1030)


def test_find_b_cuts_the_conditional_mass_set_at_every_level_of_a_1030_grid():
    # find_b cuts B as {rank <= k}; the lemma, reading h = k / n back to k, must give the same set at large n
    space = OutcomeSpace.uniform(1030)
    filt = Filtration.two_period(space, [range(1030)])
    cu, grid = ConditionalUtility(EXPECT, space, filt), build_uniform_grid(space, filt, 1030)
    n = grid.resolution
    for k in sorted({0, 1, n - 1, n, *range(0, n + 1, 37)}):
        h = RandomVariable.constant(k / n, 1030)
        want = set_with_conditional_mass(space, filt, grid, h)
        assert want.achieved == (Fraction(k, n),) and not want.snapped
        assert find_b(cu, grid, h)[0] == want.event


# ------------------------------------------- the converse side: a time-consistent base

def rectangular_scenarios():
    """An m-stable (rectangular) scenario set on SPACE8 (Delbaen 2006): every
    q = mu_j nu_j on block j, for each block weight mu and each choice of one
    conditional nu per block, 2 * 3 * 3 = 18 measures."""
    nus = [(Fraction(1, 4),) * 4, (Fraction(1, 2), Fraction(1, 2), 0, 0),
           (Fraction(1, 8), Fraction(1, 8), Fraction(3, 8), Fraction(3, 8))]
    mus = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))]
    return ScenarioSet.of([tuple(m0 * v for v in nu0) + tuple(m1 * v for v in nu1)
                           for m0, m1 in mus for nu0 in nus for nu1 in nus])


def test_a_rectangular_scenario_set_is_time_consistent_yet_not_commonotone_additive():
    cu = ConditionalUtility(CoherentUtility.from_scenarios(rectangular_scenarios()), SPACE8, FILT8)
    assert tc_gap(cu, default_probes(SPACE8, 200, 1729)).max_gap <= 1e-12
    f = RandomVariable.from_block_values([1.0, 0.0], FILT8.f1, 8)
    g = RandomVariable.from_block_values([0.0, 1.0], FILT8.f1, 8)
    report = additivity_probe(cu, build_uniform_grid(SPACE8, FILT8), f, g)
    assert is_commonotone_pair(report.pair.xi, report.pair.eta, SPACE8)[0]
    assert report.a_value >= 0.2
