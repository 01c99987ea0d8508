"""Distortion, scenario and product-grid utilities, pinned against
independent in-test oracles (Abel-summed Choquet and raw permutation
marginals)."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskcal import (
    CoherentUtility,
    DistortionFunction,
    OutcomeSpace,
    RandomVariable,
    ScenarioSet,
    choquet_eval,
    core_extreme_points,
    is_commonotone_pair,
    product_example_eval,
    product_space,
    relevance_check,
    scenario_min_eval,
)

U2 = OutcomeSpace.uniform(2)
U3 = OutcomeSpace.uniform(3)
U4 = OutcomeSpace.uniform(4)
ES_HALF = DistortionFunction.es((1, 2))
ES_QUARTER = DistortionFunction.es((1, 4))
POWER_HALF = DistortionFunction.power(0.5)
PIECEWISE = DistortionFunction.piecewise([(0, 0), (0.5, 0.25), (1, 1)])
EXPECTATION = DistortionFunction.expectation()


def choquet_oracle(values, masses, psi) -> float:
    """Abel-summed form: sum over descending outcomes of psi(s_k)*(x_k - x_{k+1}).

    Ungrouped (one term per outcome, arbitrary tie order), so it exercises a
    different arithmetic path than the grouped production formula.
    """
    order = sorted(range(len(values)), key=lambda i: -values[i])
    s = Fraction(0)
    total = 0.0
    for pos, i in enumerate(order):
        s += masses[i]
        nxt = values[order[pos + 1]] if pos + 1 < len(order) else 0.0
        total += float(psi.psi(s)) * (values[i] - nxt)
    return total


def marginal_vectors(masses, psi):
    """All permutation marginals of the game psi(P), no dedup, no ordering."""
    n = len(masses)
    out = []
    for perm in itertools.permutations(range(n)):
        s = Fraction(0)
        prev = 0.0
        q = [0.0] * n
        for i in perm:
            s += masses[i]
            cur = float(psi.psi(s))
            q[i] = cur - prev
            prev = cur
        out.append(tuple(q))
    return out


# -------------------------------------------------------------- distortions

def test_es_psi_exact_rational():
    assert ES_HALF.psi(Fraction(3, 4)) == Fraction(1, 2)
    assert ES_HALF.psi(Fraction(1, 2)) == 0
    assert ES_QUARTER.psi(Fraction(7, 8)) == Fraction(1, 2)
    assert ES_HALF.psi(Fraction(1)) == 1


def test_power_psi():
    assert POWER_HALF.psi(Fraction(1, 4)) == pytest.approx(0.25 ** 1.5, abs=1e-12)
    assert POWER_HALF.psi(Fraction(0)) == 0.0
    assert POWER_HALF.psi(Fraction(1)) == 1.0


def test_piecewise_psi_interpolates():
    assert PIECEWISE.psi(Fraction(1, 4)) == pytest.approx(0.125, abs=1e-12)
    assert PIECEWISE.psi(Fraction(3, 4)) == pytest.approx(0.625, abs=1e-12)
    assert PIECEWISE.psi(Fraction(0)) == 0.0
    assert PIECEWISE.psi(Fraction(1)) == 1.0


def test_distortion_validation_errors():
    with pytest.raises(ValueError, match="rational in"):
        DistortionFunction.es(Fraction(3, 2))
    with pytest.raises(ValueError, match="rational in"):
        DistortionFunction.es(0)
    with pytest.raises(ValueError, match="float in"):
        DistortionFunction.power(1.5)
    with pytest.raises(ValueError, match="convex"):
        DistortionFunction.piecewise([(0, 0), (0.5, 0.75), (1, 1)])
    with pytest.raises(ValueError, match="nondecreasing"):
        DistortionFunction.piecewise([(0, 0), (0.5, 0.6), (0.7, 0.5), (1, 1)])
    with pytest.raises(ValueError, match=r"\(0, 0\) to \(1, 1\)"):
        DistortionFunction.piecewise([(0, 0.1), (1, 1)])
    with pytest.raises(ValueError, match="unknown distortion kind"):
        DistortionFunction("quadratic")


# ------------------------------------------------------------- choquet_eval

def test_choquet_worst_half_average():
    assert choquet_eval(RandomVariable.of([0, 1]), ES_HALF, U2) == 0.0


def test_choquet_expectation_is_mean():
    x = RandomVariable.of([3.0, -1.0, 2.0, 0.5])
    mean = sum(0.25 * v for v in x.values)
    assert choquet_eval(x, EXPECTATION, U4) == pytest.approx(mean, abs=1e-12)


@pytest.mark.parametrize("psi", [EXPECTATION, ES_HALF, ES_QUARTER, POWER_HALF, PIECEWISE])
def test_choquet_constant_is_constant(psi):
    assert choquet_eval(RandomVariable.of([2.5] * 4), psi, U4) == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("psi", [EXPECTATION, ES_HALF, POWER_HALF, PIECEWISE])
def test_choquet_matches_abel_oracle(psi):
    rng = np.random.default_rng(7)
    space = OutcomeSpace.from_masses([(1, 8), (1, 8), (1, 4), (1, 2)])
    for _ in range(100):
        x = RandomVariable.of(rng.uniform(-3, 3, size=4))
        got = choquet_eval(x, psi, space)
        want = choquet_oracle(x.values, space.mass, psi)
        assert got == pytest.approx(want, abs=1e-10)


def test_choquet_tie_independent_exactly():
    # duplicated values, shuffled among outcomes of different mass
    space = OutcomeSpace.from_masses([(1, 6), (1, 3), (1, 6), (1, 3)])
    a = choquet_eval(RandomVariable.of([1.0, 2.0, 1.0, 2.0]), ES_HALF, space)
    b = choquet_eval(RandomVariable.of([2.0, 1.0, 2.0, 1.0]),
                     ES_HALF,
                     OutcomeSpace.from_masses([(1, 3), (1, 6), (1, 3), (1, 6)]))
    assert a == b


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.permutations([0, 1, 2]))
def test_choquet_invariant_under_outcome_relabeling(vals, perm):
    x = RandomVariable.of(vals)
    xp = RandomVariable.of([vals[perm[i]] for i in range(3)])
    assert choquet_eval(x, ES_HALF, U3) == choquet_eval(xp, ES_HALF, U3)


# -------------------------------------------------------------- scenarios

def test_scenario_singleton_is_expectation():
    s = ScenarioSet.of([[Fraction(1, 4)] * 4])
    x = RandomVariable.of([1, 2, 3, 4])
    val, idx = scenario_min_eval(x, s)
    assert val == pytest.approx(2.5, abs=1e-12)
    assert idx == 0


def test_scenario_tie_breaks_to_lowest_index():
    s = ScenarioSet.of([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    val, idx = scenario_min_eval(RandomVariable.of([1.0, 1.0]), s)
    assert val == 1.0
    assert idx == 0


def test_scenario_worst_point_mass():
    s = ScenarioSet.of([[1, 0], [0, 1]])
    val, idx = scenario_min_eval(RandomVariable.of([0.0, 1.0]), s)
    assert val == 0.0 and idx == 0


def test_scenario_validation():
    with pytest.raises(ValueError, match="sums to"):
        ScenarioSet.of([[Fraction(1, 2), Fraction(1, 4)]])
    with pytest.raises(ValueError, match="negative"):
        ScenarioSet.of([[1.5, -0.5]])
    with pytest.raises(ValueError, match="nonempty"):
        ScenarioSet.of([])
    with pytest.raises(ValueError, match="entries for"):
        scenario_min_eval(RandomVariable.of([1.0]), ScenarioSet.of([[0.5, 0.5]]))


# ---------------------------------------------------------- core / duality

def test_core_of_expectation_is_p():
    space = OutcomeSpace.from_masses([(1, 4), (3, 4)])
    core = core_extreme_points(EXPECTATION, space)
    assert core.measures == ((Fraction(1, 4), Fraction(3, 4)),)


def test_core_es_half_two_outcomes():
    core = core_extreme_points(ES_HALF, U2)
    assert set(core.measures) == {(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))}


def test_core_cap_error():
    with pytest.raises(ValueError, match="space too large"):
        core_extreme_points(ES_HALF, OutcomeSpace.uniform(9))


def test_core_respects_custom_cap():
    with pytest.raises(ValueError, match="space too large"):
        core_extreme_points(ES_HALF, U3, cap=2)


def test_core_matches_raw_marginals():
    # the oracle floats psi before differencing, so compare up to a rounding
    space = OutcomeSpace.from_masses([(1, 6), (1, 3), (1, 2)])
    core = core_extreme_points(ES_HALF, space)
    blur = lambda qs: {tuple(round(float(v), 12) for v in q) for q in qs}
    assert blur(core.measures) == blur(marginal_vectors(space.mass, ES_HALF))


@pytest.mark.parametrize("psi", [EXPECTATION, ES_HALF, ES_QUARTER, POWER_HALF, PIECEWISE])
def test_choquet_is_min_over_core(psi):
    rng = np.random.default_rng(11)
    for space in (U2, U3, OutcomeSpace.from_masses([(1, 8), (1, 8), (1, 4), (1, 2)])):
        core = core_extreme_points(psi, space)
        for _ in range(50):
            x = RandomVariable.of(rng.uniform(-2, 2, size=space.size))
            direct = choquet_eval(x, psi, space)
            dual, _ = scenario_min_eval(x, core)
            assert direct == pytest.approx(dual, abs=1e-9)


# ----------------------------------------------------------- product example

def test_product_example_two_row_hand_value():
    space, filt = product_space(2, 4)
    x = RandomVariable.of([0, 1, 0, 1, 0, 1, 0, 1])
    got = product_example_eval(x, 2, 4, space, filt)
    assert got == pytest.approx(0.5 * (0.5 ** 1.25 + 0.5 ** 1.75), abs=1e-12)


def test_product_example_constant():
    space, filt = product_space(4, 4)
    x = RandomVariable.constant(2.0, 16)
    assert product_example_eval(x, 4, 4, space, filt) == pytest.approx(2.0, abs=1e-12)


def test_product_example_flat_rows_near_mean():
    space, filt = product_space(16, 16)
    rng = np.random.default_rng(3)
    rows = rng.uniform(0, 1, size=16)
    x = RandomVariable.from_block_values(rows, filt.f1, 256)
    mean = float(np.mean(rows))
    assert abs(product_example_eval(x, 16, 16, space, filt) - mean) <= 2 / 16


def test_product_example_rejects_negative():
    space, filt = product_space(2, 2)
    with pytest.raises(ValueError, match="ξ ≥ 0"):
        product_example_eval(RandomVariable.of([0, 0, 0, -0.1]), 2, 2, space, filt)


def test_product_example_rejects_wrong_grid():
    space, filt = product_space(2, 3)
    with pytest.raises(ValueError, match="product grid mismatch"):
        product_example_eval(RandomVariable.constant(1.0, 6), 3, 2, space, filt)
    bad = OutcomeSpace.from_masses([(1, 2), (1, 4), (1, 8), (1, 8)])
    with pytest.raises(ValueError, match="uniform"):
        product_example_eval(RandomVariable.constant(1.0, 4), 2, 2, bad)


def test_product_example_contiguous_default_rows():
    space, filt = product_space(2, 4)
    x = RandomVariable.of([0, 1, 0, 1, 0, 1, 0, 1])
    assert product_example_eval(x, 2, 4, space) == product_example_eval(x, 2, 4, space, filt)


# ------------------------------------------------------------ commonotone

def test_commonotone_pair_basic():
    ok, wit = is_commonotone_pair(RandomVariable.of([0, 1, 2]), RandomVariable.of([5, 5, 7]), U3)
    assert ok and wit is None


def test_commonotone_pair_witness():
    ok, wit = is_commonotone_pair(RandomVariable.of([0, 1]), RandomVariable.of([1, 0]), U2)
    assert not ok
    assert wit == (0, 1)


def test_v_set_pairs_always_commonotone():
    # values on the boundary set: horizontal part then vertical part
    m = 1.0
    xi = RandomVariable.of([-2.0, 0.5, m, m])
    eta = RandomVariable.of([-m, -m, -0.25, 3.0])
    ok, _ = is_commonotone_pair(xi, eta, U4)
    assert ok


def test_commonotone_additivity_of_choquet():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.uniform(-1, 1, size=4)
        x = RandomVariable.of(np.minimum(z * 2.0 + 0.3, 1.1))
        y = RandomVariable.of(z ** 3)
        ok, _ = is_commonotone_pair(x, y, U4)
        assert ok
        gap = (
            choquet_eval(x + y, ES_HALF, U4)
            - choquet_eval(x, ES_HALF, U4)
            - choquet_eval(y, ES_HALF, U4)
        )
        assert abs(gap) <= 1e-9


# -------------------------------------------------------------- relevance

def test_relevance_expectation_and_es():
    assert relevance_check(CoherentUtility.from_distortion(EXPECTATION), U2)
    assert relevance_check(CoherentUtility.from_distortion(ES_HALF), U2)


def test_relevance_es_half_two_outcomes_value():
    # u(-1_{a}) is the worst-half average of (-1, 0), i.e. -1 < 0
    assert choquet_eval(RandomVariable.of([-1.0, 0.0]), ES_HALF, U2) == -1.0


def test_relevance_scenario_uncharged_outcome():
    u = CoherentUtility.from_scenarios(ScenarioSet.of([[1, 0]]))
    assert not relevance_check(u, U2)
    both = CoherentUtility.from_scenarios(ScenarioSet.of([[1, 0], [0, 1]]))
    assert relevance_check(both, U2)


def test_relevance_product_example():
    space, filt = product_space(2, 4)
    u = CoherentUtility.product_example(2, 4)
    assert relevance_check(u, space, filt)


def _per_kind_relevance(u, space, filt=None) -> bool:
    """Reference: one hand formula per kind for u(-1_{w}) < 0 on every outcome."""
    n = space.size
    if u.kind == "distortion":
        return all(float(u.distortion.psi(1 - m)) < 1.0 for m in space.mass)
    if u.kind == "scenario":
        return all(any(float(q[i]) > 0 for q in u.scenarios.measures) for i in range(n))
    translates = (RandomVariable(tuple(0.0 if j == i else 1.0 for j in range(n))) for i in range(n))
    return all(product_example_eval(t, u.k_alpha, u.k_x, space, filt) - 1.0 < 0.0 for t in translates)


RELEVANCE_DISTORTIONS = [
    EXPECTATION, ES_HALF, ES_QUARTER, DistortionFunction.es((1, 1)), DistortionFunction.es((1, 12)),
    POWER_HALF, DistortionFunction.power(0.0), DistortionFunction.power(1.0), PIECEWISE,
    DistortionFunction.piecewise([(0, 0), (0.9, 0.1), (1, 1)]),
]


@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=7),
    st.lists(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=7, max_size=7).filter(any), min_size=1, max_size=3),
)
def test_relevance_check_matches_per_kind_formulas(weights, raw_measures):
    space = OutcomeSpace.from_masses([Fraction(w, sum(weights)) for w in weights])
    n = space.size
    for psi in RELEVANCE_DISTORTIONS:
        u = CoherentUtility.from_distortion(psi)
        assert relevance_check(u, space) == _per_kind_relevance(u, space)
    rows = [q[:n] for q in raw_measures if any(q[:n])]
    if rows:
        u = CoherentUtility.from_scenarios(ScenarioSet.of([[Fraction(w, sum(q)) for w in q] for q in rows]))
        assert relevance_check(u, space) == _per_kind_relevance(u, space)


def test_relevance_exact_kinds_at_sub_ulp_mass():
    # u(-1_{w}) = -P[w]/alpha < 0 even where 1 - P[w] rounds to 1.0 in float
    m = Fraction(1, 10**17)
    space = OutcomeSpace.from_masses([m, 1 - m])
    for psi in (EXPECTATION, ES_HALF):
        assert relevance_check(CoherentUtility.from_distortion(psi), space)


@pytest.mark.parametrize("k_alpha,k_x", [(1, 1), (1, 3), (2, 4), (3, 2)])
def test_relevance_check_product_matches_translate_formula(k_alpha, k_x):
    space, filt = product_space(k_alpha, k_x)
    u = CoherentUtility.product_example(k_alpha, k_x)
    assert relevance_check(u, space, filt) == _per_kind_relevance(u, space, filt)


# ----------------------------------------------------------- variant plumbing

def test_coherent_utility_dispatch():
    space, filt = product_space(2, 4)
    x = RandomVariable.of([0, 1, 0, 1, 0, 1, 0, 1])
    d = CoherentUtility.from_distortion(ES_HALF)
    s = CoherentUtility.from_scenarios(ScenarioSet.of([[Fraction(1, 8)] * 8]))
    p = CoherentUtility.product_example(2, 4)
    assert d.evaluate(x, space) == choquet_eval(x, ES_HALF, space)
    assert s.evaluate(x, space) == pytest.approx(0.5, abs=1e-12)
    assert p.evaluate(x, space, filt) == product_example_eval(x, 2, 4, space, filt)
    assert d.describe() == "es(1/2)"
    assert s.describe() == "scenario[1]"
    assert p.describe() == "product(2x4)"


def test_scenario_set_refuses_ragged_measures():
    with pytest.raises(ValueError, match="measure 1 has 3 entries, measure 0 has 2"):
        ScenarioSet.of([[1, 0], [Fraction(1, 3)] * 3])
    with pytest.raises(ValueError, match="measure 2 has 2 entries, measure 0 has 3"):
        ScenarioSet.of([[1, 0, 0], [0, 1, 0], [0.5, 0.5]])
    assert ScenarioSet.of([[1, 0], [0.5, 0.5]]).size == 2
