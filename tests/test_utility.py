"""Distortion, scenario and product-grid utilities, pinned against
independent in-test oracles (Abel-summed Choquet and raw permutation
marginals)."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcal import (
    CoherentUtility,
    DistortionFunction,
    Filtration,
    OutcomeSpace,
    RandomVariable,
    ScenarioSet,
    choquet_eval,
    core_extreme_points,
    core_vertex,
    is_commonotone_pair,
    product_example_eval,
    product_grid_rows,
    product_space,
    scenario_min_eval,
)
from reference import relevance_check, scenario_min_by_generator

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


def test_an_es_level_with_numpy_integer_parts_is_rebuilt_by_es_and_refused_when_built_directly():
    # with numpy parts psi_at ran in int64 and wrapped: about 0.959 at this (s, w), where es(1/3) is 0
    third = Fraction(np.int64(1), np.int64(3))
    s, w = 2456465800505386285, 8723768435832128934
    es = DistortionFunction.es(third)
    assert type(es.alpha.numerator) is int and type(es.alpha.denominator) is int
    assert es.psi_at(s, w) == DistortionFunction.es((1, 3)).psi_at(s, w) == (0, w)
    with pytest.raises(ValueError, match=r"^es level Fraction\(1, 3\) has a numpy\.int64 part, not int parts$"):
        DistortionFunction("es", alpha=third)


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


def test_product_utility_has_no_conditional_form():
    # ConditionalUtility refuses a product base first, so only a direct call reaches given
    space, _ = product_space(2, 2)
    with pytest.raises(ValueError, match="no conditional form on one block"):
        CoherentUtility.product_example(2, 2).given(space, (0, 1))


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


def test_coherent_utility_refuses_an_unknown_kind_and_an_empty_product_grid():
    # an unknown kind described itself as product(0x0), and evaluate took it for the product example
    with pytest.raises(ValueError, match="^unknown utility kind 'bogus'$"):
        CoherentUtility("bogus")
    for k_alpha, k_x in ((0, 4), (2, 0), (-1, -1)):
        with pytest.raises(ValueError, match="^product grid sizes must be positive$"):
            CoherentUtility("product", k_alpha=k_alpha, k_x=k_x)
        with pytest.raises(ValueError, match="^product grid sizes must be positive$"):
            CoherentUtility.product_example(k_alpha, k_x)
    assert CoherentUtility("product", k_alpha=2, k_x=4) == CoherentUtility.product_example(2, 4)


def test_scenario_set_refuses_ragged_measures():
    with pytest.raises(ValueError, match="measure 1 has 3 entries, measure 0 has 2"):
        ScenarioSet.of([[1, 0], [Fraction(1, 3)] * 3])
    with pytest.raises(ValueError, match="measure 2 has 2 entries, measure 0 has 3"):
        ScenarioSet.of([[1, 0, 0], [0, 1, 0], [0.5, 0.5]])
    assert ScenarioSet.of([[1, 0], [0.5, 0.5]]).size == 2


def test_scenario_set_refuses_ragged_measures_built_without_of():
    # the length check comes first, so a ragged row that also fails a later check is named as ragged
    with pytest.raises(ValueError, match="^measure 1 has 2 entries, measure 0 has 1$"):
        ScenarioSet(((Fraction(1),), (Fraction(1, 2), Fraction(1, 2))))
    with pytest.raises(ValueError, match="^measure 1 has 3 entries, measure 0 has 2$"):
        ScenarioSet(((0.5, 0.5), (float("nan"), 0.0, 0.0)))


# ------------------------------------------- exact tie table, bit for bit

def es_psi_reference(psi, p):
    """es psi that converts every argument and returns a fresh Fraction(0) at the clip."""
    q = (Fraction(p) - (1 - psi.alpha)) / psi.alpha
    return q if q > 0 else Fraction(0)


def psi_reference(psi, p):
    return es_psi_reference(psi, p) if psi.kind == "es" else psi.psi(p)


def choquet_reference(values, masses, psi) -> float:
    """The grouped sort formula with every tie-table entry started at Fraction(0)."""
    mass_at = {}
    for v, m in zip(values, masses):
        mass_at[v] = mass_at.get(v, Fraction(0)) + m
    total = 0.0
    s = Fraction(0)
    prev = psi_reference(psi, s)
    for v in sorted(mass_at, reverse=True):
        s += mass_at[v]
        cur = psi_reference(psi, s)
        total += v * float(cur - prev)
        prev = cur
    return total


def core_vertex_reference(psi, masses, order):
    s = Fraction(0)
    prev = psi_reference(psi, s)
    q = [0] * len(masses)
    for i in order:
        s += masses[i]
        cur = psi_reference(psi, s)
        q[i] = cur - prev
        prev = cur
    return tuple(q)


ALL_KINDS = [EXPECTATION, ES_HALF, ES_QUARTER, DistortionFunction.es((2, 3)), POWER_HALF, PIECEWISE]
# multiples of 0.5, so ties are common; -0.0 ties with 0.0
TIE_VALUE = st.one_of(st.integers(-3, 3).map(lambda k: k / 2), st.sampled_from([0.0, -0.0]))
# Fractions over mixed denominators, and plain ints
MASS = st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=12), st.integers(0, 2))


@st.composite
def tie_heavy_cases(draw):
    n = draw(st.integers(1, 7))
    values = tuple(draw(st.lists(TIE_VALUE, min_size=n, max_size=n)))
    masses = tuple(draw(st.lists(MASS, min_size=n, max_size=n)))
    return draw(st.sampled_from(ALL_KINDS)), values, masses, draw(st.permutations(range(n)))


@given(tie_heavy_cases())
def test_choquet_and_core_vertex_match_the_fraction_zero_reference_bit_for_bit(case):
    psi, values, masses, order = case
    space = OutcomeSpace(tuple(f"w{i}" for i in range(len(masses))), masses)
    got, want = choquet_eval(RandomVariable(values), psi, space), choquet_reference(values, masses, psi)
    assert got == want and repr(got) == repr(want)
    got_q, want_q = core_vertex(psi, space, order), core_vertex_reference(psi, masses, order)
    assert got_q == want_q
    assert [type(v) for v in got_q] == [type(v) for v in want_q]
    assert [repr(v) for v in got_q] == [repr(v) for v in want_q]


@pytest.mark.parametrize("p", [0.75, 0.875, 0.25, 1, 0, Fraction(3, 4), Fraction(1, 8)])
def test_es_psi_returns_a_fraction_for_float_int_and_fraction_arguments(p):
    for psi in (ES_HALF, ES_QUARTER):
        got = psi.psi(p)
        assert type(got) is Fraction
        assert got == es_psi_reference(psi, p)


# es levels a/b with b up to 10**6: dyadic, non-dyadic, and a = b (the expectation's psi)
ES_LEVEL = st.integers(1, 10**6).flatmap(lambda b: st.integers(1, b).map(lambda a: DistortionFunction.es((a, b))))
HUGE = 10**400  # denominators far past float64's range, so no level rounds on the way


@st.composite
def wide_levels(draw):
    """An es level and an argument p in [0, 1]: a Fraction s/w with w up to 10**400, a float or an int."""
    kind = draw(st.sampled_from(["fraction", "float", "int"]))
    if kind == "fraction":
        w = draw(st.integers(1, HUGE))
        p = Fraction(draw(st.integers(0, w)), w)
    elif kind == "float":
        p = draw(st.floats(0.0, 1.0))
    else:
        p = draw(st.integers(0, 1))
    return draw(ES_LEVEL), p


@st.composite
def wide_mass_cases(draw):
    """An es level, tie-heavy payoffs and masses k_i / sum(k) with k_i up to 10**400."""
    n = draw(st.integers(1, 7))
    ks = draw(st.lists(st.integers(1, HUGE) | st.integers(1, 7), min_size=n, max_size=n))
    values = tuple(draw(st.lists(TIE_VALUE | st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return draw(ES_LEVEL), values, tuple(Fraction(k, sum(ks)) for k in ks)


@settings(max_examples=300, deadline=None)
@given(wide_levels())
@example((DistortionFunction.es((2, 7)), Fraction(5, 7)))
@example((DistortionFunction.es((2, 7)), Fraction(5 * HUGE + 1, 7 * HUGE)))
@example((DistortionFunction.es((999_983, 10**6)), 1))
def test_es_psi_equals_the_fraction_formula_at_levels_up_to_1e6_and_arguments_over_1e400(case):
    psi, p = case
    got = psi.psi(p)
    assert type(got) is Fraction
    assert got == es_psi_reference(psi, p)


@settings(max_examples=200, deadline=None)
@given(wide_mass_cases())
def test_choquet_matches_the_fraction_reference_bit_for_bit_on_masses_over_1e400(case):
    psi, values, masses = case
    space = OutcomeSpace(tuple(f"w{i}" for i in range(len(masses))), masses)
    got, want = choquet_eval(RandomVariable(values), psi, space), choquet_reference(values, masses, psi)
    assert got == want and repr(got) == repr(want)


# ------------------------------------------- every psi formula in psi_at

def psi_formula_reference(psi, s, w):
    """Each kind's psi at s / w, written from its formula: exact for the
    rational kinds, on float(Fraction(s, w)) for power and piecewise, whose
    segment is found by a linear scan of the knots."""
    p = Fraction(s, w)
    if psi.kind == "expectation":
        return p
    if psi.kind == "es":
        return es_psi_reference(psi, p)
    pf = float(p)
    if psi.kind == "power":
        return pf ** (1.0 + psi.alpha)
    j = next((k for k in range(1, len(psi.knots)) if pf < psi.knots[k][0]), len(psi.knots) - 1)
    (p0, y0), (p1, y1) = psi.knots[j - 1], psi.knots[j]
    return y0 + (y1 - y0) * (pf - p0) / (p1 - p0)


@st.composite
def convex_knots(draw):
    """Knots of a convex piecewise psi: 0-4 interior abscissae on the 1/64 grid,
    nondecreasing slopes, ordinates rounded once from their exact values."""
    xs = [0, *sorted(draw(st.sets(st.integers(1, 63), max_size=4))), 64]
    slopes = sorted(draw(st.lists(st.integers(0, 20), min_size=len(xs) - 1, max_size=len(xs) - 1)))
    slopes[-1] += 1
    ys = [0]
    for slope, x0, x1 in zip(slopes, xs, xs[1:]):
        ys.append(ys[-1] + slope * (x1 - x0))
    return DistortionFunction.piecewise([(x / 64, Fraction(y, ys[-1])) for x, y in zip(xs, ys)])


EVERY_KIND = st.one_of(st.just(EXPECTATION), ES_LEVEL, st.floats(0.0, 1.0).map(DistortionFunction.power),
                       convex_knots())


@st.composite
def psi_levels(draw):
    """A level s / w in [0, 1] with w up to 10**400, 10**400 itself among them."""
    w = draw(st.integers(1, 64) | st.integers(1, HUGE) | st.just(HUGE))
    return draw(st.integers(0, w)), w


@settings(max_examples=300, deadline=None)
@given(EVERY_KIND, psi_levels())
@example(PIECEWISE, (1, 4))
@example(PIECEWISE, (1, 2))
@example(POWER_HALF, (HUGE // 3, HUGE))
def test_psi_and_psi_at_equal_each_kinds_formula(psi, level):
    s, w = level
    want = psi_formula_reference(psi, s, w)
    got, got_at = psi.psi(Fraction(s, w)), psi.psi_at(s, w)
    if psi.kind in ("power", "piecewise"):
        assert got.hex() == want.hex() and got_at[1] is None and got_at[0].hex() == want.hex()
    else:
        assert got == want and Fraction(*got_at) == want


@given(EVERY_KIND, st.integers(1, HUGE))
def test_psi_of_zero_is_zero_for_every_kind(psi, w):
    assert psi.psi(0) == psi.psi(Fraction(0)) == psi.psi(0.0) == 0
    assert psi.psi_at(0, w)[0] == 0


@st.composite
def knot_beside_a_level(draw):
    """A convex three-knot piecewise psi whose interior knot lies one ulp below
    or above a grid level k / w, and that w."""
    w = draw(st.integers(2, 1100))
    p = math.nextafter(draw(st.integers(1, w - 1)) / w, draw(st.sampled_from([0.0, 1.0])))
    return DistortionFunction.piecewise([(0, 0), (p, draw(st.floats(0.0, p))), (1, 1)]), w


def _beside(k, w, toward, y):
    p = math.nextafter(k / w, toward)
    return DistortionFunction.piecewise([(0, 0), (p, y * p), (1, 1)]), w


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(0.0, 1.0).map(DistortionFunction.power) | convex_knots(), st.integers(1, 1100))
       | knot_beside_a_level())
@example(_beside(1, 3, 0.0, 0.5))
@example(_beside(1, 3, 1.0, 0.5))
@example(_beside(7, 10, 0.0, 0.9))
@example(_beside(7, 10, 1.0, 0.9))
@example(_beside(515, 1030, 0.0, 0.0))
@example(_beside(515, 1030, 1.0, 1.0))
def test_power_and_piecewise_psi_at_are_nondecreasing_in_s(case):
    # find_b bisects the table k -> psi(k / n), which it may do only if the float formula keeps psi's order
    psi, w = case
    table = [psi.psi_at(s, w)[0] for s in range(w + 1)]
    assert all(a <= b for a, b in zip(table, table[1:]))


def test_piecewise_built_with_list_valued_interior_knots_evaluates():
    psi = DistortionFunction("piecewise", knots=((0.0, 0.0), [0.5, 0.25], [0.75, 0.5], (1.0, 1.0)))
    assert psi.psi(Fraction(1, 4)) == 0.125 and psi.psi(Fraction(5, 8)) == 0.375
    assert psi.psi_at(7, 8) == (0.75, None)


@pytest.mark.parametrize("values", [[1, 2, 3], [1, 2, 3, 4, 100]], ids=["short", "long"])
def test_choquet_and_product_evaluation_refuse_a_payoff_of_another_length(values):
    # zipped with the masses, a long payoff lost its extra entries and a short one its last outcomes
    x = RandomVariable.of(values)
    message = f"^payoff has {len(values)} entries for 4 outcomes$"
    with pytest.raises(ValueError, match=message):
        choquet_eval(x, ES_HALF, U4)
    space, filt = product_space(2, 2)
    with pytest.raises(ValueError, match=message):
        product_example_eval(x, 2, 2, space, filt)


# ---------------------------------------- cached float rows and integer weights

def test_scenario_set_refuses_an_exact_negative_entry_of_any_size():
    # an exact entry was compared as a float against -1e-12, so -1/10**13 passed
    tiny = [Fraction(-1, 10**13), Fraction(1, 4), Fraction(1, 4), Fraction(5 * 10**12 + 1, 10**13)]
    for row in (tiny, [Fraction(-1, 100), Fraction(1, 4), Fraction(1, 4), Fraction(51, 100)], [-1, 1, 1, 0]):
        with pytest.raises(ValueError, match="^measure 0 has a negative entry$"):
            ScenarioSet.of([row])
    # float entries keep their 1e-12 slack
    assert ScenarioSet.of([[-1e-13, 0.5, 0.5 + 1e-13]]).size == 1


def scenario_min_reference(x, s):
    """scenario_min_eval with float(q_i) taken on every entry of every probe."""
    best, best_idx = float("inf"), -1
    for idx, q in enumerate(s.measures):
        e = sum(float(qi) * v for qi, v in zip(q, x.values))
        if e < best:
            best, best_idx = e, idx
    return best, best_idx


@st.composite
def scenario_rows(draw):
    """1-4 measures on n outcomes, each of Fraction, int or float entries, and tie-heavy payoffs."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        raw = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
        kind = draw(st.sampled_from(["fraction", "int", "float"]))
        if kind == "int":
            rows.append(tuple(int(i == raw.index(max(raw))) for i in range(n)))
        else:
            row = tuple(Fraction(w, sum(raw)) for w in raw)
            rows.append(row if kind == "fraction" else tuple(float(v) for v in row))
    payoffs = draw(st.lists(st.lists(TIE_VALUE | st.floats(-2.0, 2.0), min_size=n, max_size=n), min_size=1, max_size=4))
    return ScenarioSet.of(rows), [RandomVariable.of(v) for v in payoffs]


@given(scenario_rows())
def test_scenario_min_eval_matches_per_entry_float_reference_bit_for_bit(case):
    s, payoffs = case
    twin = ScenarioSet(s.measures)
    for x in payoffs:
        got, want = scenario_min_eval(x, s), scenario_min_reference(x, s)
        assert got == want and repr(got) == repr(want)
    assert s.float_rows == tuple(tuple(float(v) for v in q) for q in s.measures)
    assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)


# ties and signed zeros, subnormals, and magnitudes up to 1e300 (twelve such terms stay finite)
EXTREME_PAYOFF = st.one_of(
    TIE_VALUE,
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)


@st.composite
def scenario_sets_with_extreme_payoffs(draw):
    """1-6 valid measures on 1-12 outcomes, exact or float rows (a float row's
    zeros may turn subnormal), and 1-4 payoffs of EXTREME_PAYOFF entries."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        raw = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n).filter(any))
        row = [Fraction(w, sum(raw)) for w in raw]
        if draw(st.booleans()):
            tiny = draw(st.sampled_from([0.0, 5e-324, 1e-310]))
            row = [float(v) if v else tiny for v in row]
        rows.append(row)
    payoffs = draw(st.lists(st.lists(EXTREME_PAYOFF, min_size=n, max_size=n), min_size=1, max_size=4))
    return ScenarioSet.of(rows), [RandomVariable.of(v) for v in payoffs]


@settings(max_examples=300)
@given(scenario_sets_with_extreme_payoffs())
def test_scenario_min_eval_keeps_the_bits_of_the_generator_sum(case):
    s, payoffs = case
    for x in payoffs:
        (got, idx), (want, want_idx) = scenario_min_eval(x, s), scenario_min_by_generator(x, s)
        assert got.hex() == want.hex() and idx == want_idx


@given(st.lists(MASS, min_size=1, max_size=7))
def test_outcome_space_weights_are_the_masses_over_their_lcm(masses):
    space = OutcomeSpace(tuple(f"w{i}" for i in range(len(masses))), tuple(masses))
    twin = OutcomeSpace(space.outcomes, space.mass)
    assert space.scale == math.lcm(*(Fraction(m).denominator for m in masses))
    assert all(type(w) is int and w == m * space.scale for w, m in zip(space.weights, masses))
    assert space == twin and hash(space) == hash(twin) and repr(space) == repr(twin)


# ------------------------------------------------------- fit to a space, exact conditioning

@pytest.mark.parametrize("entries", [1, 3, 8])
def test_check_space_refuses_a_scenario_set_of_another_length(entries):
    u = CoherentUtility.from_scenarios(ScenarioSet.of([[Fraction(1, entries)] * entries] * 2))
    with pytest.raises(ValueError, match=f"^measure 0 has {entries} entries for 4 outcomes$"):
        u.check_space(U4)
    assert CoherentUtility.from_scenarios(ScenarioSet.of([[0.25] * 4, [1, 0, 0, 0]])).check_space(U4) is None


def test_check_space_refuses_a_product_utility_off_its_grid():
    space, filt = product_space(2, 2)
    u = CoherentUtility.product_example(2, 2)
    assert u.check_space(space, filt) is None and u.check_space(U4) is None
    skewed = OutcomeSpace.from_masses([Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)])
    one_row = Filtration.two_period(U4, [[0, 1, 2, 3]])
    for space, filt in ((U3, None), (OutcomeSpace.uniform(8), None), (skewed, None), (U4, one_row)):
        with pytest.raises(ValueError, match="product grid mismatch"):
            u.check_space(space, filt)


@given(st.sampled_from(ALL_KINDS), st.lists(MASS.filter(bool), min_size=1, max_size=7))
def test_check_space_passes_every_distortion_on_any_space(psi, masses):
    space = OutcomeSpace(tuple(f"w{i}" for i in range(len(masses))), tuple(masses))
    blocks = [list(range(len(masses)))]
    assert CoherentUtility.from_distortion(psi).check_space(space) is None
    assert CoherentUtility.from_distortion(psi).check_space(space, Filtration.two_period(space, blocks)) is None


@st.composite
def exact_scenario_blocks(draw):
    """1-4 measures of Fraction or int entries on n outcomes, zeros common and
    one weight in seven 10**400, so that some block masses underflow float64;
    and a nonempty block."""
    n = draw(st.integers(1, 6))
    weight = st.sampled_from([0, 0, 0, 1, 2, 3, 5, 7, 10**400])
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        raw = draw(st.lists(weight, min_size=n, max_size=n).filter(any))
        if draw(st.booleans()):
            rows.append(tuple(Fraction(w, sum(raw)) for w in raw))
        else:
            rows.append(tuple(int(i == raw.index(max(raw))) for i in range(n)))
    block = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
    return ScenarioSet.of(rows), block


@given(exact_scenario_blocks())
def test_scenario_given_conditions_exact_rows_like_p(case):
    s, block = case
    charging = [(q, sum(Fraction(q[i]) for i in block)) for q in s.measures]
    charging = [(q, mass) for q, mass in charging if mass > 0]
    conditioned = s.given(block)
    if not charging:
        assert conditioned is None
        return
    assert conditioned.size == len(charging)
    for (q, mass), row, floats in zip(charging, conditioned.measures, conditioned.float_rows):
        want = tuple(Fraction(q[i]) / mass for i in block)
        assert floats == tuple(float(v) for v in want)
        if all(isinstance(v, Fraction) for v in q):
            assert row == want and all(type(v) is Fraction for v in row)


@st.composite
def product_grid_spaces(draw):
    """A (k_alpha, k_x) grid of at most 4 x 4 and masses on its outcomes:
    uniform, or one mass moved by +-1/(n * 2**k) and another by the opposite."""
    k_alpha, k_x = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = k_alpha * k_x
    masses = [Fraction(1, n)] * n
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        step = draw(st.sampled_from([1, -1])) * Fraction(1, n * 2 ** draw(st.integers(0, 12)))
        masses[i] += step
        masses[j] -= step
    return k_alpha, k_x, OutcomeSpace.from_masses(masses)


def _product_reference(x, k_alpha, k_x, rows):
    """product_example_eval as it was written: the row law and each row's power distortion built per call."""
    total = 0.0
    for r, block in enumerate(rows):
        row_vals = RandomVariable(tuple(x.values[i] for i in block))
        total += choquet_eval(row_vals, DistortionFunction.power((r + 0.5) / k_alpha), OutcomeSpace.uniform(k_x))
    return total / k_alpha


@settings(max_examples=200, deadline=None)
@given(product_grid_spaces(), st.data())
@example((2, 2, OutcomeSpace.from_masses([(1, 2), (1, 4), (1, 8), (1, 8)])), None)
@example((2, 2, OutcomeSpace.from_masses([(1, 8)] * 4)), None)
def test_product_grid_checks_integer_weights_and_evaluates_as_the_per_call_reference(case, data):
    k_alpha, k_x, space = case
    uniform = all(m == Fraction(1, k_alpha * k_x) for m in space.mass)
    for filtration in (None, product_space(k_alpha, k_x)[1]):
        if not uniform:
            with pytest.raises(ValueError, match="^product grid mismatch: masses must be uniform$"):
                product_grid_rows(k_alpha, k_x, space, filtration)
            continue
        rows = product_grid_rows(k_alpha, k_x, space, filtration)
        assert rows == product_space(k_alpha, k_x)[1].f1.blocks
        values = data.draw(st.lists(st.floats(0, 10), min_size=space.size, max_size=space.size))
        x = RandomVariable.of(values)
        got = product_example_eval(x, k_alpha, k_x, space, filtration)
        assert got == _product_reference(x, k_alpha, k_x, rows)
