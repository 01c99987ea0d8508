"""Conditional evaluation, recomposition audits, and cone decompositions."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcal import (
    CoherentUtility,
    ConditionalUtility,
    DistortionFunction,
    Filtration,
    OutcomeSpace,
    Partition,
    RandomVariable,
    ScenarioSet,
    blockwise_eval,
    conditional_eval,
    cone_decompose,
    core_bound,
    core_extreme_points,
    crafted_ladder,
    default_probes,
    recompose,
    scenario_min_eval,
    tc_gap,
)
from reference import conditional_commonotone_additivity_check, conditional_expectation

SPACE4 = OutcomeSpace.uniform(4)
FILT4 = Filtration.two_period(SPACE4, [[0, 1], [2, 3]])
SPACE8 = OutcomeSpace.uniform(8)
FILT8 = Filtration.two_period(SPACE8, [[0, 1, 2, 3], [4, 5, 6, 7]])

ES_HALF = CoherentUtility.from_distortion(DistortionFunction.es((1, 2)))
EXPECT = CoherentUtility.from_distortion(DistortionFunction.expectation())

CU4_ES = ConditionalUtility(ES_HALF, SPACE4, FILT4)
CU4_EXP = ConditionalUtility(EXPECT, SPACE4, FILT4)
CU8_ES = ConditionalUtility(ES_HALF, SPACE8, FILT8)

LADDER4 = RandomVariable.of([0, 1, 2, 4])


def test_product_base_rejected():
    with pytest.raises(ValueError, match="distortion or scenario base"):
        ConditionalUtility(CoherentUtility.product_example(2, 2), SPACE4, FILT4)


@pytest.mark.parametrize("blocks", [
    [[0, 1], [0, 1], [2, 3]],
    [[0, 1, 2], [2, 3]],
    [[0, 1], [2, 7]],
    [[0, 1], [2, -1]],
    [[0, 1], [2]],
    [[0, 1], [], [2, 3]],
], ids=["repeated", "overlapping", "out-of-range", "negative", "missing", "empty"])
def test_conditional_utility_refuses_f1_blocks_that_do_not_partition_the_outcomes(blocks):
    # `conditioned` is keyed by block: a repeated block collapsed, and conditional_eval of
    # (0, 0, 1, 1) gave (1, 1, 0, 0); overlapping blocks recomposed with no error
    filt = Filtration(FILT4.f0, Partition.from_blocks(blocks), FILT4.f2)
    message = "^the F1 blocks must be nonempty and hold each of the 4 outcomes exactly once$"
    with pytest.raises(ValueError, match=message):
        ConditionalUtility(EXPECT, SPACE4, filt)


@pytest.mark.parametrize("masses, message", [
    ((Fraction(1, 2), Fraction(1, 2), 0, 0), "outcome 2 has non-positive mass 0"),
    ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(-1, 4)), "outcome 3 has non-positive mass -1/4"),
], ids=["zero-block", "negative"])
def test_conditional_utility_refuses_a_non_positive_mass(masses, message):
    # a block of mass 0 raised ZeroDivisionError: Fraction(0, 0) at the first conditional_eval
    space = OutcomeSpace.from_masses(masses)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConditionalUtility(EXPECT, space, Filtration.two_period(space, [[0, 1], [2, 3]]))


# ---------------------------------------------------------- conditional_eval

def test_conditional_eval_worst_half_per_block():
    assert conditional_eval(CU4_ES, LADDER4).values == (0.0, 0.0, 2.0, 2.0)


def test_conditional_eval_expectation_base_is_conditional_expectation():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = RandomVariable.of(rng.uniform(-2, 2, size=8))
        cu = ConditionalUtility(EXPECT, SPACE8, FILT8)
        got = conditional_eval(cu, x)
        want = conditional_expectation(x, FILT8.f1, SPACE8)
        for a, b in zip(got.values, want.values):
            assert a == pytest.approx(b, abs=1e-12)


def test_conditional_eval_fixes_measurable_payoffs():
    x = RandomVariable.of([1.5, 1.5, -0.5, -0.5])
    assert conditional_eval(CU4_ES, x).values == x.values


def test_conditional_eval_axioms_random_suite():
    rng = np.random.default_rng(29)
    for _ in range(50):
        x = RandomVariable.of(rng.uniform(-1, 1, size=8))
        y = RandomVariable.of(rng.uniform(-1, 1, size=8))
        a = RandomVariable.from_block_values(rng.uniform(-1, 1, size=2), FILT8.f1, 8)
        lam = RandomVariable.from_block_values(rng.uniform(0, 2, size=2), FILT8.f1, 8)
        ux = conditional_eval(CU8_ES, x)
        assert ux.is_measurable(FILT8.f1)
        # translation by measurable payoffs
        shifted = conditional_eval(CU8_ES, x + a)
        for i in range(8):
            assert shifted.values[i] == pytest.approx(ux.values[i] + a.values[i], abs=1e-9)
        # positive homogeneity with measurable multipliers
        scaled = conditional_eval(CU8_ES, RandomVariable.of(
            [lv * xv for lv, xv in zip(lam.values, x.values)]))
        for i in range(8):
            assert scaled.values[i] == pytest.approx(lam.values[i] * ux.values[i], abs=1e-9)
        # monotonicity
        bigger = conditional_eval(CU8_ES, x + RandomVariable.of(np.abs(rng.uniform(0, 1, 8))))
        assert all(b >= u - 1e-9 for b, u in zip(bigger.values, ux.values))
        # superadditivity
        uy = conditional_eval(CU8_ES, y)
        uxy = conditional_eval(CU8_ES, x + y)
        assert all(s >= a_ + b_ - 1e-9 for s, a_, b_ in zip(uxy.values, ux.values, uy.values))


def test_scenario_base_conditions_each_measure():
    # two measures; the second concentrates on the first block
    s = ScenarioSet.of([
        [Fraction(1, 4)] * 4,
        [Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)],
    ])
    cu = ConditionalUtility(CoherentUtility.from_scenarios(s), SPACE4, FILT4)
    x = RandomVariable.of([1.0, 0.0, 3.0, 1.0])
    got, flags = conditional_eval(cu, x), cu.fallbacks
    assert flags == ()
    assert got.values[0] == pytest.approx(0.5, abs=1e-12)   # both condition to (1/2, 1/2)
    assert got.values[2] == pytest.approx(2.0, abs=1e-12)   # only the uniform one charges block 2


def test_scenario_base_zero_mass_fallback_flag():
    s = ScenarioSet.of([[Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)]])
    cu = ConditionalUtility(CoherentUtility.from_scenarios(s), SPACE4, FILT4)
    x = RandomVariable.of([1.0, 0.0, 3.0, 1.0])
    got, flags = conditional_eval(cu, x), cu.fallbacks
    assert flags == (1,)
    assert got.values[2] == pytest.approx(2.0, abs=1e-12)   # conditional mean under P


# --------------------------------------------------------------- recompose

def test_recompose_worst_block():
    assert recompose(CU4_ES, LADDER4) == 0.0


def test_recompose_expectation_is_tower():
    rng = np.random.default_rng(31)
    cu = ConditionalUtility(EXPECT, SPACE8, FILT8)
    for _ in range(50):
        x = RandomVariable.of(rng.uniform(-4, 4, size=8))
        ex = sum(float(m) * v for m, v in zip(SPACE8.mass, x.values))
        assert recompose(cu, x) == pytest.approx(ex, abs=1e-9)


def test_recompose_measurable_equals_direct():
    x = RandomVariable.of([1.5, 1.5, -0.5, -0.5])
    assert recompose(CU4_ES, x) == pytest.approx(CU4_ES.base.evaluate(x, CU4_ES.space, CU4_ES.filtration), abs=1e-12)


# ------------------------------------------------------------------ tc_gap

def test_tc_gap_hand_example():
    report = tc_gap(CU4_ES, [LADDER4])
    assert report.max_gap == pytest.approx(0.5, abs=1e-12)
    assert report.witness.values == (0.0, 1.0, 2.0, 4.0)
    pid, direct, recomposed, gap = report.per_vector[0]
    assert (pid, direct, recomposed) == (0, 0.5, 0.0)
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_tc_gap_expectation_base_zero():
    report = tc_gap(ConditionalUtility(EXPECT, SPACE8, FILT8), default_probes(SPACE8, 100))
    assert report.max_gap <= 1e-9


def test_tc_gap_measurable_probes_zero():
    probes = [RandomVariable.from_block_values([a, b], FILT4.f1, 4)
              for a, b in [(0.0, 1.0), (-2.0, 3.0), (1.5, 1.5)]]
    report = tc_gap(CU4_ES, probes)
    assert report.max_gap <= 1e-9


def test_tc_gap_crafted_family_positive_for_es():
    for alpha in [(1, 4), (1, 2), (3, 4)]:
        cu = ConditionalUtility(
            CoherentUtility.from_distortion(DistortionFunction.es(alpha)), SPACE8, FILT8)
        report = tc_gap(cu, [crafted_ladder(SPACE8)])
        assert report.max_gap > 0


def test_tc_gap_empty_probes_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        tc_gap(CU4_ES, [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_tc_gap_rejects_non_finite_value(bad):
    # a NaN gap never exceeds max_gap, so it would pass the audit silently
    with pytest.raises(ValueError, match="probe 1: non-finite"):
        tc_gap(CU4_ES, [LADDER4, RandomVariable.of([bad, 0.0, 0.0, 0.0])])


def test_default_probes_shape_and_determinism():
    a = default_probes(SPACE4, 10, seed=99)
    b = default_probes(SPACE4, 10, seed=99)
    assert a == b
    assert len(a) == 11
    assert a[0].values == (0.0, 1.0, 2.0, 4.0)
    assert all(-1 <= v <= 1 for p in a[1:] for v in p.values)
    nn = default_probes(SPACE4, 10, seed=99, nonnegative=True)
    assert all(v >= 0 for p in nn for v in p.values)


# ----------------------------------------------------------- cone_decompose

def test_cone_infeasible_at_centered_probe():
    centered = LADDER4 - 0.5
    assert CU4_ES.base.evaluate(centered, CU4_ES.space, CU4_ES.filtration) == pytest.approx(0.0, abs=1e-12)
    feasible, witness = cone_decompose(CU4_ES, centered)
    assert not feasible
    assert witness is None


def test_cone_feasible_for_expectation_base():
    rng = np.random.default_rng(37)
    found = 0
    while found < 25:
        x = RandomVariable.of(rng.uniform(-1, 1, size=4))
        if CU4_EXP.base.evaluate(x, CU4_EXP.space, CU4_EXP.filtration) < 0:
            continue
        found += 1
        feasible, witness = cone_decompose(CU4_EXP, x)
        assert feasible
        eta, zeta = witness
        assert eta.is_measurable(FILT4.f1)
        assert all(e + z == v for e, z, v in zip(eta.values, zeta.values, x.values))
        assert CU4_EXP.base.evaluate(eta, CU4_EXP.space, CU4_EXP.filtration) >= -1e-9
        for block in FILT4.f1.blocks:
            masked = RandomVariable.of(
                [zeta.values[i] if i in block else 0.0 for i in range(4)])
            assert CU4_EXP.base.evaluate(masked, CU4_EXP.space, CU4_EXP.filtration) >= -1e-9


def test_cone_measurable_probe_witnessed_by_itself():
    x = RandomVariable.from_block_values([0.5, 1.0], FILT4.f1, 4)
    feasible, (eta, zeta) = cone_decompose(CU4_ES, x)
    assert feasible
    assert eta.values == x.values
    assert zeta.values == (0.0, 0.0, 0.0, 0.0)


def test_cone_rejects_unacceptable():
    with pytest.raises(ValueError, match="not acceptable"):
        cone_decompose(CU4_ES, RandomVariable.of([-1.0, -1.0, -1.0, -1.0]))


def test_cone_feasible_case_for_es():
    # spreading the good block's payoff keeps both periods acceptable
    x = RandomVariable.of([0.0, 0.0, 2.0, 2.0])
    feasible, (eta, zeta) = cone_decompose(CU4_ES, x)
    assert feasible
    assert CU4_ES.base.evaluate(eta, CU4_ES.space, CU4_ES.filtration) >= -1e-9


def test_cone_scenario_base():
    s = ScenarioSet.of([
        [Fraction(1, 4)] * 4,
        [Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)],
    ])
    cu = ConditionalUtility(CoherentUtility.from_scenarios(s), SPACE4, FILT4)
    x = RandomVariable.of([0.5, 0.5, 1.0, 1.0])
    feasible, (eta, zeta) = cone_decompose(cu, x)
    assert feasible
    assert cu.base.evaluate(eta, cu.space, cu.filtration) >= -1e-9


def test_tc_gap_check_cones_collects_verdicts():
    report = tc_gap(CU4_ES, [LADDER4, LADDER4 - 0.5], check_cones=True)
    assert report.cone_verdicts == ((0, True), (1, False))


@st.composite
def _core_bound_cases(draw):
    """Random rational space (3..7 outcomes), 2-3 blocks, distortion base and
    a few (payoff, lift) pairs, payoffs on a coarse grid so that ties are
    common."""
    n = draw(st.integers(3, 7))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    space = OutcomeSpace.from_masses([Fraction(w, sum(weights)) for w in weights])
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(2, 3))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    blocks = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    kind = draw(st.sampled_from(["es", "power", "piecewise", "expectation"]))
    if kind == "es":
        psi = DistortionFunction.es(Fraction(draw(st.integers(1, 12)), 12))
    elif kind == "power":
        psi = DistortionFunction.power(draw(st.floats(0.0, 1.0)))
    elif kind == "piecewise":
        # convex: strictly increasing slopes between the abscissae
        inner = sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=3)))
        xs = [0.0] + [i / 10 for i in inner] + [1.0]
        slopes = sorted(draw(st.sets(st.integers(0, 20), min_size=len(xs) - 1, max_size=len(xs) - 1)))
        ys = [0.0]
        for (p0, p1), sl in zip(zip(xs, xs[1:]), slopes):
            ys.append(ys[-1] + sl * (p1 - p0))
        psi = DistortionFunction.piecewise([(p, y / ys[-1]) for p, y in zip(xs, ys)])
    else:
        psi = DistortionFunction.expectation()
    payoffs = draw(st.lists(
        st.tuples(st.lists(st.integers(-8, 8), min_size=n, max_size=n), st.sampled_from([0.0, 0.25, 1.0])),
        min_size=1, max_size=4))
    cu = ConditionalUtility(CoherentUtility.from_distortion(psi), space, Filtration.two_period(space, blocks))
    return cu, payoffs


def _enumerated_core_bound(vertices, x, block) -> float:
    """min of E_Q[x | A] over the listed vertices Q with Q(A) > 0."""
    caps = []
    for q in vertices:
        qa = sum(float(q[i]) for i in block)
        if qa > 0.0:
            caps.append(sum(float(q[i]) * x.values[i] for i in block) / qa)
    return min(caps)


@settings(max_examples=40, deadline=None)
@given(_core_bound_cases())
def test_core_bound_matches_vertex_enumeration(case):
    cu, payoffs = case
    vertices = core_extreme_points(cu.base.distortion, cu.space).measures
    blocks = cu.filtration.f1.blocks
    for raw, lift in payoffs:
        # shift onto the acceptance boundary (plus a lift), where verdicts split
        y = RandomVariable.of([v / 4 for v in raw])
        x = y - cu.base.evaluate(y, cu.space, cu.filtration) + lift
        scale = max(abs(v) for v in x.values)
        caps = [_enumerated_core_bound(vertices, x, block) for block in blocks]
        for block, cap in zip(blocks, caps):
            assert abs(core_bound(cu, x, block) - cap) <= 1e-12 * scale
        eta = RandomVariable.from_block_values(caps, cu.filtration.f1, cu.space.size)
        value = cu.base.evaluate(eta, cu.space, cu.filtration)
        if abs(value + 1e-12) <= 1e-13 * scale:
            continue  # within float noise of the feasibility threshold
        feasible, witness = cone_decompose(cu, x)
        assert feasible == (value >= -1e-12)
        assert (witness is None) == (not feasible)


@st.composite
def _scenario_cases(draw):
    """Random rational space (4..8 outcomes), 1-3 blocks, 1-3 rational
    measures with frequent zeros (so some blocks go uncharged) and a few
    payoffs on a coarse grid."""
    n = draw(st.integers(4, 8))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    space = OutcomeSpace.from_masses([Fraction(w, sum(weights)) for w in weights])
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    blocks = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    measures = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=n, max_size=n).filter(any))
        measures.append([Fraction(w, sum(q)) for w in q])
    payoffs = draw(st.lists(st.lists(st.integers(-8, 8), min_size=n, max_size=n), min_size=1, max_size=3))
    cu = ConditionalUtility(
        CoherentUtility.from_scenarios(ScenarioSet.of(measures)), space, Filtration.two_period(space, blocks))
    return cu, [RandomVariable.of([v / 4 for v in raw]) for raw in payoffs]


def _exact_scenario_block(cu, x, block):
    """(conditional value, fell back, core bound) on one block, in Fractions:
    min over the measures charging the block of E_Q[x | A]; uncharged, the
    value is E_P[x | A] and the bound is max x on A."""
    xs = {i: Fraction(x.values[i]) for i in block}
    conds = []
    for q in cu.base.scenarios.measures:
        qa = sum(q[i] for i in block)
        if qa > 0:
            conds.append(sum(q[i] * xs[i] for i in block) / qa)
    if conds:
        return min(conds), False, min(conds)
    pa = sum(cu.space.mass[i] for i in block)
    return sum(cu.space.mass[i] * xs[i] for i in block) / pa, True, max(xs.values())


@settings(max_examples=60, deadline=None)
@given(_scenario_cases())
def test_scenario_blockwise_and_core_bound_match_exact_reference(case):
    cu, payoffs = case
    blocks = cu.filtration.f1.blocks
    for x in payoffs:
        got, flags = blockwise_eval(cu.base, cu.space, cu.filtration.f1, x)
        expected_flags = []
        for bi, block in enumerate(blocks):
            value, fell_back, bound = _exact_scenario_block(cu, x, block)
            assert all(abs(got.values[i] - float(value)) <= 1e-12 for i in block)
            assert abs(core_bound(cu, x, block) - float(bound)) <= 1e-12
            if fell_back:
                expected_flags.append(bi)
        assert flags == tuple(expected_flags)


# --------------------------------------- conditional commonotone additivity

def test_conditional_additivity_on_commonotone_pair():
    rng = np.random.default_rng(41)
    for _ in range(25):
        z = rng.uniform(-1, 1, size=8)
        x = RandomVariable.of(z * 1.5 + 0.2)
        y = RandomVariable.of(np.maximum(z, -0.1))
        ok, gaps = conditional_commonotone_additivity_check(CU8_ES, x, y)
        assert ok
        assert all(abs(g) <= 1e-9 for g in gaps)


def test_conditional_additivity_constant_and_self():
    x = RandomVariable.of([0.3, -0.2, 0.9, 0.1])
    ok, _ = conditional_commonotone_additivity_check(CU4_ES, x, RandomVariable.constant(2.0, 4))
    assert ok
    ok, _ = conditional_commonotone_additivity_check(CU4_ES, x, x)
    assert ok


def test_conditional_additivity_rejects_anti_monotone():
    with pytest.raises(ValueError, match="not commonotone"):
        conditional_commonotone_additivity_check(
            CU4_ES, RandomVariable.of([0, 1, 0, 0]), RandomVariable.of([1, 0, 0, 0]))


def test_blockwise_eval_on_finer_partition():
    p2 = Partition.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    x = crafted_ladder(SPACE8)
    y, flags = blockwise_eval(ES_HALF, SPACE8, p2, x)
    assert flags == ()
    assert y.is_measurable(p2)
    assert y.values == (0.0, 0.0, 2.0, 2.0, 8.0, 8.0, 32.0, 32.0)


# ------------------------------------------------- conditioning once per block

@st.composite
def _reused_cases(draw):
    """Random rational space (4..10 outcomes), 1-3 blocks, a distortion or a
    scenario base (whose measures leave the last block uncharged when drawn
    so) and payoffs with frequent ties."""
    n = draw(st.integers(4, 10))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    space = OutcomeSpace.from_masses([Fraction(w, sum(weights)) for w in weights])
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    blocks = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    kind = draw(st.sampled_from(["es", "power", "piecewise", "expectation", "scenario"]))
    if kind == "scenario":
        uncharged = set(blocks[-1]) if k > 1 and draw(st.booleans()) else set()
        charged = [i for i in range(n) if i not in uncharged]
        measures = []
        for _ in range(draw(st.integers(1, 3))):
            q = [0] * n
            for i in charged:
                q[i] = draw(st.sampled_from([0, 0, 1, 2, 5]))
            if not any(q):
                q[charged[0]] = 1
            measures.append([Fraction(w, sum(q)) for w in q])
        base = CoherentUtility.from_scenarios(ScenarioSet.of(measures))
    elif kind == "es":
        base = CoherentUtility.from_distortion(DistortionFunction.es(Fraction(draw(st.integers(1, 12)), 12)))
    elif kind == "power":
        base = CoherentUtility.from_distortion(DistortionFunction.power(draw(st.floats(0.0, 1.0))))
    elif kind == "piecewise":
        # slope s below the knot, (1 - p s) / (1 - p) >= 1 >= s above: convex
        p, slope = draw(st.sampled_from([0.2, 0.5, 0.8])), draw(st.sampled_from([0.0, 0.25, 1.0]))
        base = CoherentUtility.from_distortion(DistortionFunction.piecewise([(0, 0), (p, p * slope), (1, 1)]))
    else:
        base = EXPECT
    value = st.one_of(st.integers(-8, 8).map(lambda v: v / 4), st.floats(-2.0, 2.0))
    payoffs = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4))
    cu = ConditionalUtility(base, space, Filtration.two_period(space, blocks))
    return cu, [RandomVariable.of(v) for v in payoffs]


def _fresh_core_bound(cu, x, block):
    """core_bound without the instance's conditioned blocks: ScenarioSet.given
    per call for a scenario base, a new ConditionalUtility for a distortion."""
    if cu.base.kind != "scenario":
        return core_bound(ConditionalUtility(cu.base, cu.space, cu.filtration), x, block)
    conditioned = cu.base.scenarios.given(block)
    on_block = RandomVariable(tuple(x.values[i] for i in block))
    return max(on_block.values) if conditioned is None else scenario_min_eval(on_block, conditioned)[0]


@settings(max_examples=80, deadline=None)
@given(_reused_cases())
def test_reused_conditioning_matches_fresh_per_call_path(case):
    cu, payoffs = case
    for x in payoffs:  # one ConditionalUtility serves every payoff
        want, want_flags = blockwise_eval(cu.base, cu.space, cu.filtration.f1, x)
        assert (conditional_eval(cu, x), cu.fallbacks) == (want, want_flags)
        assert conditional_eval(cu, x) == want
        assert recompose(cu, x) == cu.base.evaluate(want, cu.space, cu.filtration)
        for block in cu.filtration.f1.blocks:
            assert core_bound(cu, x, block) == _fresh_core_bound(cu, x, block)


@pytest.mark.parametrize("base", [
    ES_HALF,
    CoherentUtility.from_scenarios(ScenarioSet.of([[Fraction(1, 8)] * 8])),
    CoherentUtility.from_scenarios(ScenarioSet.of([[Fraction(1, 4)] * 4 + [Fraction(0)] * 4])),
])
def test_tc_gap_conditions_each_block_once(base, monkeypatch):
    calls = []
    given_once = CoherentUtility.given

    def counting_given(self, space, block):
        calls.append(block)
        return given_once(self, space, block)

    monkeypatch.setattr(CoherentUtility, "given", counting_given)
    report = tc_gap(ConditionalUtility(base, SPACE8, FILT8), default_probes(SPACE8, 40), check_cones=True)
    assert report.cone_verdicts  # the ladder probe at least is acceptable
    assert sorted(calls) == sorted(FILT8.f1.blocks)


def test_tc_gap_evaluates_each_direct_value_once(monkeypatch):
    # a distortion base evaluates on cu.space only for the direct value:
    # blocks evaluate on their conditional laws, recomposition on the quotient
    calls = []
    evaluate_once = CoherentUtility.evaluate

    def counting_evaluate(self, x, space, filtration=None):
        if space is CU8_ES.space:
            calls.append(x)
        return evaluate_once(self, x, space, filtration)

    monkeypatch.setattr(CoherentUtility, "evaluate", counting_evaluate)
    probes = default_probes(SPACE8, 40)
    report = tc_gap(CU8_ES, probes, check_cones=True)
    assert report.cone_verdicts  # the ladder probe at least is acceptable
    assert calls == list(probes)


@pytest.mark.parametrize("entries", [8, 2])
def test_conditional_utility_checks_scenario_lengths(entries):
    base = CoherentUtility.from_scenarios(ScenarioSet.of([[Fraction(1, entries)] * entries]))
    with pytest.raises(ValueError, match=f"^measure 0 has {entries} entries for 4 outcomes$"):
        ConditionalUtility(base, SPACE4, FILT4)


@pytest.mark.parametrize("values", [[1, 2, 3], [1, 2, 3, 4, -100]], ids=["short", "long"])
def test_conditional_evaluation_refuses_a_payoff_of_another_length(values):
    # a long probe lost its extra entries (tc_gap reported max_gap 0.5); a short one raised IndexError
    x = RandomVariable.of(values)
    message = f"^payoff has {len(values)} entries for 4 outcomes$"
    with pytest.raises(ValueError, match=message):
        (conditional_eval(CU4_ES, x), CU4_ES.fallbacks)
    with pytest.raises(ValueError, match=message):
        tc_gap(CU4_ES, [x])


def test_core_bound_on_a_block_whose_float_mass_underflows():
    # P[{0, 3}] = 2 / 10**400 is 0.0 in float64; its conditional law (1/2, 1/2) is exact
    t = 10**400
    space = OutcomeSpace.from_masses([(1, t), (t - 2, 2 * t), (t - 2, 2 * t), (1, t)])
    filt = Filtration.two_period(space, [[0, 3], [1, 2]])
    x = RandomVariable.of([1.0, -0.5, 0.25, -1.0])
    cu = ConditionalUtility(EXPECT, space, filt)
    assert [core_bound(cu, x, block) for block in filt.f1.blocks] == [0.0, -0.125]
    for psi in (DistortionFunction.es((1, 2)), DistortionFunction.power(0.5)):
        cu = ConditionalUtility(CoherentUtility.from_distortion(psi), space, filt)
        bound = core_bound(cu, x, (0, 3))
        assert -1.0 <= bound <= 0.0  # between min x and E_P[x | A] on the block
        assert cone_decompose(cu, RandomVariable.of([1.0] * 4))[0]


@pytest.mark.parametrize("psi,want", [(DistortionFunction.es((1, 2)), -1.0), (DistortionFunction.expectation(), 0.0)],
                         ids=["es-half", "expectation"])
def test_core_bound_on_an_underflowing_block_is_the_exact_vertex_minimum(psi, want):
    # the greedy vertices' masses on {0, 3} are 0.0 as floats; their conditional weights on it are not
    t = 10**400
    space = OutcomeSpace.from_masses([(1, t), (t - 2, 2 * t), (t - 2, 2 * t), (1, t)])
    filt = Filtration.two_period(space, [[0, 3], [1, 2]])
    x = RandomVariable.of([1.0, -0.5, 0.25, -1.0])
    block = (0, 3)
    exact = min(
        sum(q[i] * Fraction(x.values[i]) for i in block) / sum(q[i] for i in block)
        for q in core_extreme_points(psi, space).measures
        if sum(q[i] for i in block)
    )
    assert float(exact) == want
    assert core_bound(ConditionalUtility(CoherentUtility.from_distortion(psi), space, filt), x, block) == want


# ------------------------------------- core_bound on integer mass weights

# the six kinds of test_utility.ALL_KINDS
CORE_KINDS = [
    DistortionFunction.expectation(),
    DistortionFunction.es((1, 2)),
    DistortionFunction.es((1, 4)),
    DistortionFunction.es((2, 3)),
    DistortionFunction.power(0.5),
    DistortionFunction.piecewise([(0, 0), (0.5, 0.25), (1, 1)]),
]
_T = 10**400  # the block {0, 3} of this space has mass 2 / _T, 0.0 in float64
UNDERFLOW = OutcomeSpace.from_masses([(1, _T), (_T - 2, 2 * _T), (_T - 2, 2 * _T), (1, _T)])


def _fraction_core_bound(cu, x, block) -> float:
    """core_bound's distortion branch on Fraction masses: the greedy vertex
    with exact cumulative masses, then each conditional weight float(q_i / q_block)."""
    space, psi = cu.space, cu.base.distortion
    block_mass = sum((space.mass[i] for i in block), Fraction(0))
    on_block = [x.values[i] for i in block]
    inside = set(block)
    t = sum(float(space.mass[i] / block_mass) * v for i, v in zip(block, on_block))
    while True:
        y = [x.values[i] - t if i in inside else 0.0 for i in range(space.size)]
        s = Fraction(0)
        prev = psi.psi(s)
        q = [0] * space.size
        for i in sorted(range(space.size), key=y.__getitem__, reverse=True):
            s += space.mass[i]
            cur = psi.psi(s)
            q[i] = cur - prev
            prev = cur
        q_block = sum(q[i] for i in block)
        if not q_block:
            return t
        t_next = sum(float(q[i] / q_block) * v for i, v in zip(block, on_block))
        if t_next >= t:
            return t
        t = t_next


@st.composite
def _lattice_cases(draw):
    """A space of 1..7 outcomes whose masses are Fractions over mixed
    denominators or plain ints, normalised to a probability or left as
    drawn, 1-3 blocks (or, one time in eight, the underflow space), one of
    the six kinds and tie-heavy payoffs."""
    n = draw(st.integers(1, 7))
    mass = st.one_of(st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=12), st.integers(1, 2))
    masses = draw(st.lists(mass, min_size=n, max_size=n))
    if draw(st.booleans()):
        total = sum(masses, Fraction(0))
        masses = [m / total for m in masses]
    space = OutcomeSpace(tuple(f"w{i}" for i in range(n)), tuple(masses))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(3, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True))) if n > 1 else []
    blocks = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    if draw(st.integers(0, 7)) == 0:
        space, n, blocks = UNDERFLOW, 4, [[0, 3], [1, 2]]
    psi = draw(st.sampled_from(CORE_KINDS))
    value = st.one_of(st.integers(-3, 3).map(lambda v: v / 2), st.sampled_from([0.0, -0.0, 0.1, 1e-300]))
    payoffs = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4))
    cu = ConditionalUtility(CoherentUtility.from_distortion(psi), space, Filtration.two_period(space, blocks))
    return cu, [RandomVariable.of(v) for v in payoffs]


@settings(max_examples=150, deadline=None)
@given(_lattice_cases())
@example((ConditionalUtility(CoherentUtility.from_distortion(DistortionFunction.es((2, 3))), UNDERFLOW,
                             Filtration.two_period(UNDERFLOW, [[0, 3], [1, 2]])),
          [RandomVariable.of([1.0, -0.5, 0.25, -1.0]), RandomVariable.of([-1.0, 0.5, 0.5, 1.0])]))
def test_core_bound_equals_the_fraction_vertex_reference(case):
    cu, payoffs = case
    for x in payoffs:
        for block in cu.filtration.f1.blocks:
            got, want = core_bound(cu, x, block), _fraction_core_bound(cu, x, block)
            assert got == want and repr(got) == repr(want)



def test_scenario_set_of_p_charges_a_block_whose_float_mass_underflows():
    # measures conditioned in float saw {0, 3}'s mass 2 / 10**400 as 0.0: {P} flagged the
    # block as uncharged and bounded x there by max x = 1.0, not by the expectation's 0.0
    filt = Filtration.two_period(UNDERFLOW, [[0, 3], [1, 2]])
    p_only = ConditionalUtility(CoherentUtility.from_scenarios(ScenarioSet.of([UNDERFLOW.mass])), UNDERFLOW, filt)
    x = RandomVariable.of([1.0, -0.5, 0.25, -1.0])
    assert (conditional_eval(p_only, x), p_only.fallbacks)[1] == ()
    assert core_bound(p_only, x, [0, 3]) == core_bound(ConditionalUtility(EXPECT, UNDERFLOW, filt), x, [0, 3]) == 0.0


# ------------------------------------------- recomposition on the F1 quotient

QUOTIENT_BASES = [
    EXPECT,
    ES_HALF,
    CoherentUtility.from_distortion(DistortionFunction.es((2, 7))),
    CoherentUtility.from_distortion(DistortionFunction.power(0.5)),
    CoherentUtility.from_distortion(DistortionFunction.piecewise([(0, 0), (0.5, 0.25), (1, 1)])),
]


def _full_space_recompose(cu, x) -> float:
    """Today's utility of conditional_eval(x), evaluated on every outcome."""
    return cu.base.evaluate(conditional_eval(cu, x), cu.space, cu.filtration)


def _full_space_cone_split(cu, x):
    """cone_decompose with eta's acceptability evaluated on every outcome."""
    eta_cap = [core_bound(cu, x, block) for block in cu.filtration.f1.blocks]
    eta = RandomVariable.from_block_values(eta_cap, cu.filtration.f1, cu.space.size)
    if cu.base.evaluate(eta, cu.space, cu.filtration) < -1e-12:
        return False, None
    zeta = []
    for i, xv in enumerate(x.values):
        z = xv - eta.values[i]
        for _ in range(3):
            r = xv - (eta.values[i] + z)
            if r == 0.0:
                break
            z += r
        zeta.append(z)
    return True, (eta, RandomVariable(tuple(zeta)))


@st.composite
def _quotient_cases(draw):
    """A space of 2..12 outcomes with masses over mixed denominators, 1-4 F1
    blocks whose outcomes interleave, unsorted, listed in a drawn order, one
    of five distortion bases and payoffs from a small set holding 0.0 and
    -0.0, so that blocks tie with each other."""
    n = draw(st.integers(2, 12))
    masses = draw(st.lists(st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=12),
                           min_size=n, max_size=n))
    total = sum(masses, Fraction(0))
    space = OutcomeSpace.from_masses([m / total for m in masses])
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(4, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    blocks = draw(st.permutations([order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]))
    base = draw(st.sampled_from(QUOTIENT_BASES))
    value = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1 / 3])
    payoffs = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4))
    cu = ConditionalUtility(base, space, Filtration.two_period(space, blocks))
    return cu, [RandomVariable.of(v) for v in payoffs]


@settings(max_examples=200, deadline=None)
@given(_quotient_cases())
@example((ConditionalUtility(QUOTIENT_BASES[2], UNDERFLOW, Filtration.two_period(UNDERFLOW, [[2, 1], [3, 0]])),
          [RandomVariable.of([1.0, -0.5, 0.25, -1.0]), RandomVariable.of([-0.0, 0.5, 0.5, -0.0])]))
def test_recompose_on_the_quotient_equals_the_full_space_value(case):
    cu, payoffs = case
    for x in payoffs:
        shifted = RandomVariable.of([v - min(x.values) for v in x.values])  # >= 0, so acceptable
        for y in (x, shifted):
            got, want = recompose(cu, y), _full_space_recompose(cu, y)
            assert got == want and repr(got) == repr(want)  # repr tells 0.0 from -0.0
            if cu.base.evaluate(y, cu.space, cu.filtration) >= 0.0:
                feasible, witness = cone_decompose(cu, y)
                want_feasible, want_witness = _full_space_cone_split(cu, y)
                assert feasible == want_feasible and witness == want_witness


# ------------------------------- per-block facts decided once per instance

def _per_payoff_flags(cu, x):
    """(conditional_eval(cu, x), cu.fallbacks) as it was collected for every payoff:
    each block's value and fallback flag read from cu.conditioned in turn."""
    values, fallbacks = [], []
    for bi, (block, (u, law, fallback)) in enumerate(cu.conditioned.items()):
        if fallback:
            fallbacks.append(bi)
        values.append(u.evaluate(RandomVariable(tuple(x.values[i] for i in block)), law))
    return RandomVariable.from_block_values(values, cu.filtration.f1, cu.space.size), tuple(fallbacks)


@st.composite
def _per_block_cases(draw):
    """A rational space of 2..10 outcomes, 1-4 F1 blocks of unsorted
    outcomes listed in a drawn order, one of the five distortion bases of
    QUOTIENT_BASES or a scenario set that leaves a drawn set of blocks (all
    but one at most) uncharged, and tie-heavy payoffs with their copies
    shifted to be nonnegative, so that some are acceptable."""
    n = draw(st.integers(2, 10))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    space = OutcomeSpace.from_masses([Fraction(w, sum(weights)) for w in weights])
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(4, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    blocks = draw(st.permutations([order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]))
    if draw(st.booleans()):
        uncharged = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
        charged = [i for j, block in enumerate(blocks) if j not in uncharged for i in block]
        measures = []
        for _ in range(draw(st.integers(1, 3))):
            q = [0] * n
            for i in charged:
                q[i] = draw(st.sampled_from([0, 0, 1, 2, 5]))
            if not any(q):
                q[charged[0]] = 1
            measures.append([Fraction(w, sum(q)) for w in q])
        base = CoherentUtility.from_scenarios(ScenarioSet.of(measures))
    else:
        base = draw(st.sampled_from(QUOTIENT_BASES))
    value = st.one_of(st.integers(-4, 4).map(lambda v: v / 4), st.floats(-2.0, 2.0))
    payoffs = [RandomVariable.of(v) for v in draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                                           min_size=1, max_size=4))]
    payoffs += [RandomVariable.of([v - min(x.values) for v in x.values]) for x in payoffs]
    return ConditionalUtility(base, space, Filtration.two_period(space, blocks)), payoffs


@settings(max_examples=150, deadline=None)
@given(_per_block_cases())
def test_fallbacks_match_the_per_payoff_collection(case):
    cu, payoffs = case
    for x in payoffs:
        want = _per_payoff_flags(cu, x)
        assert (conditional_eval(cu, x), cu.fallbacks) == want
        assert cu.fallbacks == want[1]


@settings(max_examples=150, deadline=None)
@given(_per_block_cases())
def test_cone_verdicts_match_cone_decompose(case):
    cu, payoffs = case
    report = tc_gap(cu, payoffs, check_cones=True)
    want = [(pid, cone_decompose(cu, x)[0]) for pid, x in enumerate(payoffs)
            if cu.base.evaluate(x, cu.space, cu.filtration) >= 0.0]
    assert want  # the shifted copies are nonnegative, so acceptable
    assert list(report.cone_verdicts) == want


# ------------------------------- scenario measures at the edge of their fit

def test_conditional_utility_checks_every_scenario_measure_length():
    # only measure 0 was checked, and recompose then raised IndexError on measure 1;
    # a ragged set is now refused as it is built, and a set of equal rows against the space
    with pytest.raises(ValueError, match="^measure 1 has 2 entries, measure 0 has 4$"):
        ScenarioSet(((0.25,) * 4, (0.5, 0.5)))
    base = CoherentUtility.from_scenarios(ScenarioSet(((0.5, 0.5), (0.25, 0.75))))
    with pytest.raises(ValueError, match="^measure 0 has 2 entries for 4 outcomes$"):
        ConditionalUtility(base, SPACE4, FILT4)


SLACK_ROWS = [[-1e-12, 2e-12, 0.5, 0.499999999999]]  # valid: the float slack lets an entry dip to -1e-12


@st.composite
def _slack_cases(draw):
    """Float measures on 2..6 outcomes whose entries are tiny, positive or
    within the -1e-12 slack, so that some blocks are charged by a hair; F1
    blocks in index order and payoffs in [-5, 5]."""
    n = draw(st.integers(2, 6))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        tiny = st.floats(-1e-12, 0.0, exclude_max=True) | st.floats(0.0, 3e-12)
        raw = draw(st.lists(st.integers(0, 4).map(float) | tiny, min_size=n, max_size=n).filter(
            lambda r: any(v >= 1 for v in r)))
        big = sum(v for v in raw if v >= 1)
        rows.append([v / big if v >= 1 else v for v in raw])
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=n - 1, unique=True)))
    blocks = [list(range(a, b)) for a, b in zip([0, *cuts], [*cuts, n])]
    payoffs = draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n), min_size=1, max_size=3))
    return rows, blocks, payoffs


@settings(max_examples=200, deadline=None)
@given(_slack_cases())
@example((SLACK_ROWS, [[0, 1], [2, 3]], [[5.0, 0.0, 0.0, 0.0]]))
def test_block_values_and_core_bounds_of_slack_entries_lie_within_the_block_payoffs(case):
    # a slack entry of -1e-12 over a block mass of 1e-12 became a weight of -1: u1((5, 0, 0, 0)) was -5 on (0, 1)
    rows, blocks, payoffs = case
    space = OutcomeSpace.uniform(len(rows[0]))
    cu = ConditionalUtility(CoherentUtility.from_scenarios(ScenarioSet.of(rows)), space,
                            Filtration.two_period(space, blocks))
    for values in payoffs:
        x = RandomVariable.of(values)
        u1 = conditional_eval(cu, x)
        for block in blocks:
            on_block = [values[i] for i in block]
            low, high = min(on_block), max(on_block)
            slack = 1e-12 * (1.0 + max(map(abs, on_block)))  # rounding of the conditioned weights
            assert low - slack <= u1.values[block[0]] <= high + slack
            assert low - slack <= core_bound(cu, x, block) <= high + slack


def test_a_scenario_set_built_directly_keeps_the_rules_of_of():
    # built without ScenarioSet.of, the slack entry stayed -1e-12 and weighed -1 on block (0, 1)
    x = RandomVariable.of([5.0, 0.0, 0.0, 0.0])
    for scenarios in (ScenarioSet(tuple(map(tuple, SLACK_ROWS))), ScenarioSet.of(SLACK_ROWS)):
        assert scenarios.measures == ((0.0, 2e-12, 0.5, 0.499999999999),)
        cu = ConditionalUtility(CoherentUtility.from_scenarios(scenarios), SPACE4, FILT4)
        assert conditional_eval(cu, x).values[0] == 0.0
        assert core_bound(cu, x, (0, 1)) == 0.0
    # a negative entry far outside the slack gave u((5, 0, 0, 0)) = -2.5
    with pytest.raises(ValueError, match="^measure 0 has a negative entry$"):
        ScenarioSet(((-0.5, 1.5, 0.0, 0.0),))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**128), st.integers(1, 64), st.integers(0, 50), st.booleans())
def test_default_probes_match_the_per_element_conversion(seed, size, count, nonnegative):
    # the reference turns each row of the same default_rng stream through RandomVariable.of
    space = OutcomeSpace.uniform(size)
    rows = np.random.default_rng(seed).uniform(0.0 if nonnegative else -1.0, 1.0, size=(count, size))
    want = (crafted_ladder(space), *(RandomVariable.of(row) for row in rows))
    got = default_probes(space, count, seed, nonnegative)
    assert got == want
    assert all(type(v) is float for x in got for v in x.values)
