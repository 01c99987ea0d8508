"""Exact-arithmetic checks for spaces, partitions, grids and conditional masses."""

import inspect
import math
import re
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcal import (
    DistortionFunction,
    EventSet,
    Filtration,
    OutcomeSpace,
    Partition,
    RandomVariable,
    ResolutionUnavailableError,
    UniformGrid,
    build_uniform_grid,
    conditional_resolution,
    product_space,
    validate,
)
import riskcal.space
from riskcal.space import _equal_split, _place, _split_exists
from reference import conditional_expectation, independence_check, set_with_conditional_mass


def uniform_filtered(n: int, blocks) -> tuple[OutcomeSpace, Filtration]:
    space = OutcomeSpace.uniform(n)
    return space, Filtration.two_period(space, blocks)


SPACE4, FILT4 = uniform_filtered(4, [[0, 1], [2, 3]])
SPACE8, FILT8 = uniform_filtered(8, [[0, 1, 2, 3], [4, 5, 6, 7]])


# ---------------------------------------------------------------- validation

def test_validate_clean_space():
    report = validate(SPACE8, FILT8)
    assert report.ok
    assert report.violations == ()


def test_validate_mass_sum_message_names_the_sum():
    space = OutcomeSpace.from_masses([(1, 2), (1, 2), (1, 2)])
    filt = Filtration.two_period(space, [[0, 1], [2]])
    report = validate(space, filt)
    assert not report.ok
    assert any("mass sum 3/2" in v for v in report.violations)


def test_validate_catches_structural_problems():
    space = OutcomeSpace.from_masses([(1, 2), (1, 4), (1, 4)])
    bad = Filtration(
        f0=Partition.from_blocks([[0, 1, 2]]),
        f1=Partition.from_blocks([[0, 1], [1, 2]]),   # overlap
        f2=Partition.from_blocks([[0], [1], [2, 2]]),
    )
    report = validate(space, bad)
    assert not report.ok
    assert any("more than one block" in v for v in report.violations)


def test_validate_names_an_outcome_repeated_inside_one_block():
    # the repeat was reported as `outcome 0 appears in more than one block`
    space = OutcomeSpace.uniform(4)
    report = validate(space, Filtration.two_period(space, [[0, 0, 1], [2, 3]]))
    assert report.violations == ("f1: outcome 0 appears more than once in block 0",)


def test_validate_rejects_nonpositive_mass_and_noncover():
    space = OutcomeSpace.from_masses([(3, 2), (-1, 2)])
    filt = Filtration(
        f0=Partition.trivial(2),
        f1=Partition.from_blocks([[0]]),   # misses outcome 1
        f2=Partition.singletons(2),
    )
    report = validate(space, filt)
    msgs = "\n".join(report.violations)
    assert "non-positive mass" in msgs
    assert "does not cover" in msgs


def test_validate_reports_an_empty_f1_block():
    space = OutcomeSpace.uniform(2)
    filt = Filtration(Partition.trivial(2), Partition(((0, 1), ())), Partition.singletons(2))
    assert validate(space, filt).violations == ("f1 block 1 is empty", "f1 does not refine f0")


def test_validate_reports_a_two_block_f0():
    space = OutcomeSpace.uniform(2)
    split = Partition.singletons(2)
    assert validate(space, Filtration(split, split, split)).violations == (
        "f0 has 2 blocks (must be the trivial partition)",)


def test_validate_reports_more_masses_than_outcomes():
    space = OutcomeSpace(("a", "b"), (Fraction(1, 3),) * 3)
    assert validate(space, Filtration.two_period(space, [[0, 1]])).violations == (
        "mass vector length 3 != 2 outcomes",)


@pytest.mark.parametrize("masses, index, shown", [
    ((0.25,) * 4, 0, "0.25"),
    ((Fraction(1, 2), Fraction(1, 4), "1/4"), 2, "'1/4'"),
])
def test_outcome_space_refuses_a_mass_that_is_not_an_int_or_a_fraction(masses, index, shown):
    # float masses passed choquet_eval, then raised AttributeError in core_vertex and product_grid_rows
    with pytest.raises(ValueError, match=rf"^mass {index} is {re.escape(shown)}, not an int or a Fraction$"):
        OutcomeSpace(tuple(f"w{i}" for i in range(len(masses))), masses)


def test_outcome_space_leaves_zero_negative_and_extra_masses_to_validate():
    space = OutcomeSpace(("a", "b", "c"), (0, Fraction(3, 2), -1, Fraction(1, 2)))
    assert validate(space, Filtration.two_period(space, [[0, 1, 2]])).violations == (
        "mass vector length 4 != 3 outcomes",
        "outcome 0 has non-positive mass 0",
        "outcome 2 has non-positive mass -1",
    )


def test_partition_refinement():
    fine = Partition.singletons(4)
    coarse = Partition.from_blocks([[0, 1], [2, 3]])
    assert fine.refines(coarse)
    assert coarse.refines(Partition.trivial(4))
    assert not coarse.refines(fine)


# ------------------------------------------------- conditional expectation

def test_conditional_expectation_hand_value():
    x = RandomVariable.of([0, 1, 2, 4])
    assert conditional_expectation(x, FILT4.f1, SPACE4).values == (0.5, 0.5, 3.0, 3.0)


def test_conditional_expectation_weighted_blocks():
    space = OutcomeSpace.from_masses([(1, 2), (1, 4), (1, 4)])
    filt = Filtration.two_period(space, [[0, 1], [2]])
    x = RandomVariable.of([1.0, 4.0, 7.0])
    out = conditional_expectation(x, filt.f1, space)
    assert out.values == (2.0, 2.0, 7.0)


@given(st.lists(st.floats(-50, 50), min_size=8, max_size=8))
def test_conditional_expectation_tower(vals):
    x = RandomVariable.of(vals)
    y = conditional_expectation(x, FILT8.f1, SPACE8)
    assert y.is_measurable(FILT8.f1)
    ex = sum(float(m) * v for m, v in zip(SPACE8.mass, x.values))
    ey = sum(float(m) * v for m, v in zip(SPACE8.mass, y.values))
    assert ey == pytest.approx(ex, abs=1e-9)


@given(
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.floats(-5, 5),
)
def test_conditional_expectation_linear(xs, ys, c):
    x, y = RandomVariable.of(xs), RandomVariable.of(ys)
    lhs = conditional_expectation(x + y * 2.0 + c, FILT4.f1, SPACE4)
    ex = conditional_expectation(x, FILT4.f1, SPACE4)
    ey = conditional_expectation(y, FILT4.f1, SPACE4)
    for a, b, e in zip(lhs.values, ex.values, ey.values):
        assert a == pytest.approx(b + 2.0 * e + c, abs=1e-9)


# ------------------------------------------------------ resolution surrogate

def test_resolution_equal_mass_blocks():
    assert conditional_resolution(SPACE8, FILT8) == 4
    assert conditional_resolution(SPACE4, FILT4) == 2


def test_resolution_singleton_blocks_is_zero():
    space = OutcomeSpace.uniform(3)
    filt = Filtration.two_period(space, [[0], [1], [2]])
    assert conditional_resolution(space, filt) == 0


def test_resolution_mixed_masses():
    #  block (1/6,1/6,1/6) splits three ways; block (1/6,1/3) does not split
    space = OutcomeSpace.from_masses([(1, 6)] * 3 + [(1, 6), (1, 3)])
    filt = Filtration.two_period(space, [[0, 1, 2], [3, 4]])
    assert conditional_resolution(space, filt) == 0


def test_resolution_nonuniform_split():
    # (1/3,1/3,1/6,1/6) splits 2 and 3 ways but not 4
    space = OutcomeSpace.from_masses([(1, 3), (1, 3), (1, 6), (1, 6)])
    filt = Filtration.two_period(space, [[0, 1, 2, 3]])
    assert conditional_resolution(space, filt) == 3


def test_resolution_without_f1_blocks_is_zero():
    space = OutcomeSpace.uniform(2)
    filt = Filtration(Partition.trivial(2), Partition(()), Partition.singletons(2))
    assert conditional_resolution(space, filt) == 0


# ------------------------------------------------------------ uniform grids

@pytest.mark.parametrize("n", [1, 2, 4])
def test_grid_exact_conditional_masses(n):
    grid = build_uniform_grid(SPACE8, FILT8, n)
    assert grid.resolution == n
    for k in range(n + 1):
        level = grid.level_set(k)
        for block in FILT8.f1.blocks:
            inside = SPACE8.mass_of(i for i in block if level.member[i])
            assert inside / SPACE8.mass_of(block) == Fraction(k, n)


def test_grid_level_sets_nest_and_u_values():
    grid = build_uniform_grid(SPACE8, FILT8, 4)
    for k in range(1, 4):
        assert grid.level_set(k).issubset(grid.level_set(k + 1))
    assert set(grid.u_values.values) == {0.25, 0.5, 0.75, 1.0}


def test_grid_exactly_independent_of_f1():
    for n in (2, 4):
        grid = build_uniform_grid(SPACE8, FILT8, n)
        result = independence_check(grid.u_partition(), FILT8.f1, SPACE8)
        assert result.independent
        assert result.max_deviation == 0


def test_grid_conditional_indicator_means_are_exact():
    grid = build_uniform_grid(SPACE8, FILT8, 4)
    for k in range(1, 5):
        ind = grid.level_set(k).indicator()
        ce = conditional_expectation(ind, FILT8.f1, SPACE8)
        assert all(v == k / 4 for v in ce.values)


def test_grid_unavailable_names_offending_block():
    with pytest.raises(ResolutionUnavailableError) as exc:
        build_uniform_grid(SPACE8, FILT8, 3)
    assert "resolution unavailable" in str(exc.value)
    assert "block 0" in str(exc.value)


ODD_SPACE = OutcomeSpace.from_masses([(1, 3), (1, 3), (1, 6), (1, 6)])
ODD_RESOLUTION = (ODD_SPACE, Filtration.two_period(ODD_SPACE, [[0, 1, 2, 3]]))  # one block, resolution 3


def test_grid_at_an_n_that_does_not_divide_the_resolution():
    # the block splits 2 ways though 2 does not divide its resolution 3; that n was refused
    space, filt = ODD_RESOLUTION
    assert conditional_resolution(space, filt) == 3
    grid = build_uniform_grid(space, filt, 2)
    assert grid.resolution == 2
    (block,) = filt.f1.blocks
    for k in range(3):
        b_k = [i for i in block if grid.level_set(k).member[i]]
        assert space.mass_of(b_k) / space.mass_of(block) == Fraction(k, 2)


def test_grid_default_resolution():
    assert build_uniform_grid(SPACE8, FILT8) == build_uniform_grid(SPACE8, FILT8, 4)
    space = OutcomeSpace.from_masses([(1, 3), (1, 3), (1, 6), (1, 6)])
    filt = Filtration.two_period(space, [[0, 1, 2, 3]])
    assert build_uniform_grid(space, filt).resolution == 3
    singletons = Filtration.two_period(OutcomeSpace.uniform(3), [[0], [1], [2]])
    with pytest.raises(ResolutionUnavailableError, match="resolution unavailable"):
        build_uniform_grid(OutcomeSpace.uniform(3), singletons)


def test_grid_on_unequal_masses():
    # each block splits in half exactly despite unequal outcome masses
    space = OutcomeSpace.from_masses([(1, 4), (1, 8), (1, 8), (1, 4), (1, 8), (1, 8)])
    filt = Filtration.two_period(space, [[0, 1, 2], [3, 4, 5]])
    grid = build_uniform_grid(space, filt, 2)
    for block in filt.f1.blocks:
        half = space.mass_of(i for i in block if grid.level_set(1).member[i])
        assert half / space.mass_of(block) == Fraction(1, 2)


# ------------------------------------ existence search against canonical split

# rational masses of 1-10 outcomes, half of the draws from a few tied weights
_weights = st.one_of(st.sampled_from([1, 1, 2, 2, 3, 4, 6]), st.integers(1, 30))
_block_masses = st.lists(
    st.tuples(_weights, st.sampled_from([1, 1, 2, 3, 7])).map(lambda wd: Fraction(*wd)),
    min_size=1,
    max_size=10,
)


@st.composite
def _filtered_spaces(draw):
    """1-3 F1 blocks of 1-10 outcomes each, interleaved over the indices."""
    blocks = draw(st.lists(_block_masses, min_size=1, max_size=3))
    total = sum(sum(b) for b in blocks)
    order = draw(st.permutations(range(sum(len(b) for b in blocks))))
    masses = [Fraction(0)] * len(order)
    f1, at = [], 0
    for b in blocks:
        idx = sorted(order[at:at + len(b)])
        at += len(b)
        for i, m in zip(idx, b):
            masses[i] = m / total
        f1.append(idx)
    space = OutcomeSpace.from_masses(masses)
    return space, Filtration.two_period(space, f1)


def _canonical_resolution(space, filt):
    """conditional_resolution as every n's canonical split of every block."""
    blocks = filt.f1.blocks
    cap = min(len(b) for b in blocks)
    for n in range(cap, 1, -1):
        if all(_equal_split([space.mass[i] for i in b], n) is not None for b in blocks):
            return n
    return 0


def _canonical_grid_ranks(space, filt, n):
    """build_uniform_grid's (n, ranks) for n = None or n >= 2 by the
    per-block canonical path: each block's _equal_split on its masses, the
    first failure named."""
    res = _canonical_resolution(space, filt)
    if n is None:
        if res == 0:
            raise ResolutionUnavailableError(
                "resolution unavailable: the F1 blocks admit no common equal-conditional-mass split"
            )
        n = res
    ranks = [0] * space.size
    for j, block in enumerate(filt.f1.blocks):
        split = _equal_split([space.mass[i] for i in block], n)
        if split is None:
            raise ResolutionUnavailableError(
                f"resolution unavailable: F1 block {j} {tuple(block)} admits no "
                f"{n}-way equal-conditional-mass split"
            )
        for i, group in zip(block, split):
            ranks[i] = group + 1
    return n, tuple(ranks)


@settings(max_examples=200, deadline=None)
@given(_block_masses)
@example([Fraction(m, 12) for m in (2, 3, 3, 2, 2)])  # in index order the dead-room cut prunes at n = 2
def test_split_exists_matches_canonical_split(masses):
    scale = math.lcm(*(m.denominator for m in masses))
    weights = [int(m * scale) for m in masses]
    for n in range(1, len(masses) + 2):
        assert _split_exists(weights, n) == (_equal_split(masses, n) is not None)


@settings(max_examples=100, deadline=None)
@given(_filtered_spaces())
@example(ODD_RESOLUTION)  # n = 2 does not divide the resolution 3
def test_resolution_and_grid_match_canonical_path(case):
    space, filt = case
    assert conditional_resolution(space, filt) == _canonical_resolution(space, filt)
    for n in [None, *range(2, max(len(b) for b in filt.f1.blocks) + 2)]:
        try:
            want = _canonical_grid_ranks(space, filt, n)
        except ResolutionUnavailableError as e:
            with pytest.raises(ResolutionUnavailableError) as exc:
                build_uniform_grid(space, filt, n)
            assert str(exc.value) == str(e)
        else:
            grid = build_uniform_grid(space, filt, n)
            assert (grid.resolution, grid.ranks) == want


def test_split_exists_on_an_empty_block():
    # validate reports an empty block, but build_uniform_grid can still be handed one
    assert _split_exists([], 3) and _equal_split([], 3) is not None


def _three_phase_grid(space, filt, n=None):
    """build_uniform_grid's earlier control flow, the reference for its
    refusal-only block search: every block checked by _split_exists, then
    the canonical ranks."""
    if n is not None and n < 1:
        raise ValueError(f"resolution n must be positive, got {n}")
    if n == 1:
        return UniformGrid(resolution=1, ranks=(1,) * space.size)
    res = conditional_resolution(space, filt)
    if n is None:
        if res == 0:
            raise ResolutionUnavailableError(
                "resolution unavailable: the F1 blocks admit no common equal-conditional-mass split"
            )
        n = res
    for j, block in enumerate(filt.f1.blocks):
        if not _split_exists([space.weights[i] for i in block], n):
            raise ResolutionUnavailableError(
                f"resolution unavailable: F1 block {j} {tuple(block)} admits no "
                f"{n}-way equal-conditional-mass split"
            )
    ranks = [0] * space.size
    for block in filt.f1.blocks:
        for i, group in zip(block, _equal_split(space.given(block).mass, n)):
            ranks[i] = group + 1
    return UniformGrid(resolution=n, ranks=tuple(ranks))


@settings(max_examples=150, deadline=None)
@given(_filtered_spaces().filter(lambda case: all(len(b) <= 8 for b in case[1].f1.blocks)))
@example(ODD_RESOLUTION)  # n = 2 does not divide the resolution 3
def test_grid_matches_three_phase_reference(case):
    space, filt = case
    for n in [None, *range(1, 10)]:
        try:
            want = _three_phase_grid(space, filt, n)
        except ResolutionUnavailableError as e:
            with pytest.raises(ResolutionUnavailableError) as exc:
                build_uniform_grid(space, filt, n)
            assert str(exc.value) == str(e)
        else:
            assert build_uniform_grid(space, filt, n) == want


def test_grid_of_resolution_one_on_a_space_of_resolution_zero():
    # singleton blocks split no common n >= 2 ways, but every block splits one way
    space, filt = uniform_filtered(3, [[0], [1], [2]])
    assert conditional_resolution(space, filt) == 0
    assert build_uniform_grid(space, filt, 1) == UniformGrid(resolution=1, ranks=(1, 1, 1))


def test_grid_searches_a_requested_n_once_per_distinct_block_law(monkeypatch):
    calls = []
    search = riskcal.space._split_exists
    monkeypatch.setattr(riskcal.space, "_split_exists", lambda masses, n: calls.append(n) or search(masses, n))
    # the default grid is the resolution 4 of FILT8, decided on both blocks; its two blocks share one law
    for n, want in ((None, [4, 4]), (2, [2]), (4, [4])):
        calls.clear()
        build_uniform_grid(SPACE8, FILT8, n)
        assert calls == want
    calls.clear()
    with pytest.raises(ResolutionUnavailableError, match="F1 block 0"):
        build_uniform_grid(SPACE8, FILT8, 3)
    assert calls == [3]


def _recursive_equal_split(masses, n):
    """_equal_split as one recursive call per position: the reference for its
    explicit-stack search, which must return the same split."""
    total = sum(masses, Fraction(0))
    target = total / n
    if any(m > target for m in masses):
        return None
    groups = [[] for _ in range(n)]
    sums = [Fraction(0)] * n

    def place(pos):
        if pos == len(masses):
            return all(s == target for s in sums)
        m = masses[pos]
        tried = set()
        for g in range(n):
            if sums[g] + m > target:
                continue
            if sums[g] in tried:
                continue
            tried.add(sums[g])
            sums[g] += m
            groups[g].append(pos)
            if place(pos + 1):
                return True
            sums[g] -= m
            groups[g].pop()
        return False

    return groups if place(0) else None


def _placement(groups):
    """Each position's group, from groups of positions, as _equal_split returns it; None stays None."""
    return None if groups is None else [g for _, g in sorted((p, g) for g, ps in enumerate(groups) for p in ps)]


@settings(max_examples=200, deadline=None)
@given(_block_masses)
@example([Fraction(m, 12) for m in (2, 3, 3, 2, 2)])  # in index order the dead-room cut prunes at n = 2
def test_equal_split_matches_recursive_reference(masses):
    for n in range(1, len(masses) + 2):
        assert _equal_split(masses, n) == _placement(_recursive_equal_split(masses, n))


@pytest.mark.parametrize("k", [10, 11, 12])
def test_equal_split_matches_recursive_reference_on_ramps(k):
    # masses proportional to 1..k: the most backtracking among the shipped shapes
    ramp = [Fraction(i, k * (k + 1) // 2) for i in range(1, k + 1)]
    for n in range(1, k + 2):
        assert _equal_split(ramp, n) == _placement(_recursive_equal_split(ramp, n))


def test_equal_split_of_a_block_longer_than_the_recursion_limit():
    flat = [Fraction(1, 1030)] * 1030
    assert _equal_split(flat, 2) == [0] * 515 + [1] * 515


def _place_by_readding(items, n, room):
    """_place with a stack of tried-room sets alone: a backtrack adds the item
    back to its group's room, a room is looked up in the tried set before it
    is added, and a dead room is 0 < left < smallest. The reference for
    _place, which must return the same placement."""
    smallest = min(items, default=0)
    rooms = [room] * n
    placed, tried_at = [], []
    start, tried = 0, set()
    while True:
        pos = len(placed)
        if pos == len(items):
            return placed
        item = items[pos]
        for g in range(start, n):
            r = rooms[g]
            if r < item or r in tried:
                continue
            tried.add(r)
            left = r - item
            if 0 < left < smallest:
                continue
            rooms[g] = left
            placed.append(g)
            tried_at.append(tried)
            start, tried = 0, set()
            break
        else:
            if not placed:
                return None
            g, tried = placed.pop(), tried_at.pop()
            rooms[g] += items[pos - 1]
            start = g + 1


@st.composite
def _place_cases(draw):
    """Up to 9 items, all ints or all Fractions, zeros and negatives
    included, and n from 1 to one more than their count."""
    item = draw(st.sampled_from([st.integers(-3, 9), st.builds(Fraction, st.integers(-3, 9), st.integers(1, 6))]))
    items = draw(st.lists(item, max_size=9))
    return items, draw(st.integers(1, len(items) + 1))


def _ramp(k):
    return [Fraction(i, k * (k + 1) // 2) for i in range(1, k + 1)]


@settings(max_examples=400, deadline=None)
@given(_place_cases())
@example((_ramp(10), 5))  # each ramp at its conditional resolution, where the canonical split backtracks
@example((_ramp(11), 6))
@example((_ramp(12), 6))
@example(([Fraction(m, 12) for m in (2, 3, 3, 2, 2)], 2))  # the battery's dead_room block
def test_place_matches_the_search_that_adds_items_back(case):
    items, n = case
    total = sum(items)
    # integer items get an integer room when n divides their total, as _split_exists passes it
    room = total // n if isinstance(total, int) and total % n == 0 else Fraction(total) / n
    assert _place(items, n, room) == _place_by_readding(items, n, room)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=14), st.booleans())
@example([7, 1, 5, 2, 3, 3, 2, 10], False)  # at n = 3 a recorded state recurs 31 times before the placement
@example([2, 10, 1, 5, 10, 12, 11, 12], False)  # at n = 3 it recurs 24 times, and no placement exists
def test_place_finds_the_same_placement_when_it_remembers_dead_states(items, largest_first):
    # the existence search passes integer weights largest first; any order must agree
    if largest_first:
        items = sorted(items, reverse=True)
    total = sum(items)
    for n in range(1, total + 1):
        if total % n == 0:
            assert _place(items, n, total // n, remember_dead=True) == _place(items, n, total // n)


def _grid_or_refusal(space, filt, n):
    """build_uniform_grid's grid, or the message of its ResolutionUnavailableError."""
    try:
        return build_uniform_grid(space, filt, n)
    except ResolutionUnavailableError as e:
        return str(e)


def _splits_every_block_equally(space, filt, grid):
    """Whether each rank 1..n holds conditional mass 1/n in every F1 block."""
    for block in filt.f1.blocks:
        sums = [Fraction(0)] * grid.resolution
        for i, m in zip(block, space.given(block).mass):
            sums[grid.ranks[i] - 1] += m
        if any(s != Fraction(1, grid.resolution) for s in sums):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(_filtered_spaces(), st.integers(0, 10))
@example(ODD_RESOLUTION, 0)
def test_a_small_search_budget_answers_right_or_unknown(case, budget):
    # a search out of budget may leave the answer unknown, but never makes it wrong
    space, filt = case
    ns = [None, *range(1, max(len(b) for b in filt.f1.blocks) + 2)]
    want_resolution = conditional_resolution(space, filt)
    want = {n: _grid_or_refusal(space, filt, n) for n in ns}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riskcal.space, "_SEARCH_BUDGET", budget)
        assert conditional_resolution(space, filt) in (want_resolution, None)
        for n in ns:
            got = _grid_or_refusal(space, filt, n)
            if isinstance(got, str):
                assert got == want[n] or got.startswith("resolution unavailable: search budget")
            else:  # the canonical grid, or the existence search's split where the canonical one ran out
                assert isinstance(want[n], UniformGrid) and got.resolution == want[n].resolution
                assert got == want[n] or _splits_every_block_equally(space, filt, got)


def test_resolution_reads_a_refutation_past_a_block_out_of_budget(monkeypatch):
    # block 0 (uniform) splits 2 and 4 ways; block 1, masses 2:2:1:1, splits 2 and 3 ways
    space = OutcomeSpace.from_masses([(1, 8)] * 4 + [(1, 6), (1, 6), (1, 12), (1, 12)])
    filt = Filtration.two_period(space, [[0, 1, 2, 3], [4, 5, 6, 7]])
    assert conditional_resolution(space, filt) == 2
    search = riskcal.space._split_exists

    def out_of_budget_on_block_0_at(k):
        def split_exists(weights, n):
            if n == k and len(set(weights)) == 1:  # only block 0's weights are all equal
                raise riskcal.space._SearchBudgetExhausted
            return search(weights, n)
        return split_exists

    # block 1 refutes n = 4, which block 0 left undecided, so the resolution 2 is still known
    monkeypatch.setattr(riskcal.space, "_split_exists", out_of_budget_on_block_0_at(4))
    assert conditional_resolution(space, filt) == 2
    # nothing refutes n = 2, so the resolution is unknown, and the default grid is refused
    monkeypatch.setattr(riskcal.space, "_split_exists", out_of_budget_on_block_0_at(2))
    assert conditional_resolution(space, filt) is None
    with pytest.raises(ResolutionUnavailableError, match="^resolution unavailable: search budget"):
        build_uniform_grid(space, filt)


def test_grid_takes_the_existence_placement_where_the_canonical_split_runs_out(monkeypatch):
    # masses 1..11 / 66 split 6 ways; the canonical split backtracks, the existence search does not
    space = OutcomeSpace.from_masses(_ramp(11))
    filt = Filtration.two_period(space, [range(11)])
    assert build_uniform_grid(space, filt).ranks == (1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 6)
    monkeypatch.setattr(riskcal.space, "_SEARCH_BUDGET", 0)
    grid = build_uniform_grid(space, filt)
    assert grid.resolution == 6
    assert grid.ranks == (2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1)  # largest first, each into the lowest group it fits
    assert _splits_every_block_equally(space, filt, grid)
    assert build_uniform_grid(space, filt, 6) == grid


# one block of 40 masses w/720 whose resolution is 12
H40 = [29, 37, 33, 3, 14, 18, 12, 8, 23, 17, 25, 1, 31, 7, 3, 10, 40, 30, 3, 10,
       39, 20, 8, 17, 20, 10, 31, 33, 5, 22, 2, 20, 22, 13, 9, 20, 10, 30, 18, 17]


def _budget_comment() -> str:
    """The comment above `_SEARCH_BUDGET =` in riskcal/space.py, its lines joined by spaces."""
    lines = inspect.getsource(riskcal.space).splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("_SEARCH_BUDGET ="))
    start = end
    while lines[start - 1].startswith("#"):
        start -= 1
    return " ".join(line.lstrip("# ") for line in lines[start:end])


# the searches whose backtracks the _SEARCH_BUDGET comment records, by their block's outcome count,
# each with its answer: h40 is refuted at n = 15, and each ramp splits at its conditional resolution
_RECORDED_SEARCHES = {
    40: (lambda: _split_exists(H40, 15), False),
    14: (lambda: _equal_split(_ramp(14), 7) is not None, True),
    12: (lambda: _equal_split(_ramp(12), 6) is not None, True),
}


def test_each_count_in_the_budget_comment_is_its_search_s_exact_backtracks(monkeypatch):
    # a search decides with as many backtracks as the comment records, and runs out with one fewer
    recorded = {int(k): int(count.replace(",", ""))
                for count, k in re.findall(r"(\d[\d,]*)(?: backtracks)? \(a (\d+)-outcome", _budget_comment())}
    assert recorded.keys() == _RECORDED_SEARCHES.keys()
    for k, count in recorded.items():
        search, answer = _RECORDED_SEARCHES[k]
        assert count <= riskcal.space._SEARCH_BUDGET
        monkeypatch.setattr(riskcal.space, "_SEARCH_BUDGET", count)
        assert search() == answer
        monkeypatch.setattr(riskcal.space, "_SEARCH_BUDGET", count - 1)
        with pytest.raises(riskcal.space._SearchBudgetExhausted):
            search()


def test_resolution_refutes_n_on_weights_that_carry_another_blocks_factor(monkeypatch):
    # H40 halved, and a block of 7 outcomes at 1/14 each, whose denominator makes
    # every H40 weight a multiple of 7: at n = 7 the total divides by 7 but the room
    # 720 (in the block's own units) does not, so no group fills and 7 is refuted at once
    space = OutcomeSpace.from_masses([(w, 1440) for w in H40] + [(1, 14)] * 7)
    filt = Filtration.two_period(space, [range(40), range(40, 47)])
    assert all(space.weights[i] % 7 == 0 for i in range(40))
    start = perf_counter()
    assert conditional_resolution(space, filt) == 0
    assert perf_counter() - start < 0.5
    monkeypatch.setattr(riskcal.space, "_SEARCH_BUDGET", 0)  # no backtrack is needed to decide it
    assert not _split_exists([space.weights[i] for i in range(40)], 7)
    assert conditional_resolution(space, filt) == 0


# ------------------------------------------------ prescribed-mass event sets

def test_set_with_conditional_mass_on_grid():
    grid = build_uniform_grid(SPACE4, FILT4, 2)
    h = RandomVariable.of([0.5, 0.5, 1.0, 1.0])
    result = set_with_conditional_mass(SPACE4, FILT4, grid, h)
    assert not result.snapped
    assert result.achieved == (Fraction(1, 2), Fraction(1, 1))
    assert result.event.indices() == (0, 2, 3)
    ce = conditional_expectation(result.event.indicator(), FILT4.f1, SPACE4)
    assert ce.values == (0.5, 0.5, 1.0, 1.0)


def test_set_with_conditional_mass_snaps_down():
    grid = build_uniform_grid(SPACE8, FILT8, 4)
    h = RandomVariable.of([0.6] * 4 + [0.2] * 4)
    result = set_with_conditional_mass(SPACE8, FILT8, grid, h)
    assert result.snapped
    assert result.achieved == (Fraction(1, 2), Fraction(0, 1))


def test_set_with_conditional_mass_float_thirds_not_snapped():
    space = OutcomeSpace.uniform(6)
    filt = Filtration.two_period(space, [[0, 1, 2], [3, 4, 5]])
    grid = build_uniform_grid(space, filt, 3)
    h = RandomVariable.of([1 / 3] * 3 + [2 / 3] * 3)
    result = set_with_conditional_mass(space, filt, grid, h)
    assert not result.snapped
    assert result.achieved == (Fraction(1, 3), Fraction(2, 3))


def test_set_with_conditional_mass_requires_measurable_h():
    grid = build_uniform_grid(SPACE4, FILT4, 2)
    with pytest.raises(ValueError, match="F1-measurable"):
        set_with_conditional_mass(SPACE4, FILT4, grid, RandomVariable.of([0, 1, 0, 1]))


# ------------------------------------------------------------- independence

def test_independence_self_block_fails():
    result = independence_check(FILT4.f1, FILT4.f1, SPACE4)
    assert not result.independent
    assert result.max_deviation == Fraction(1, 4)


def test_independence_trivial_partition():
    result = independence_check(Partition.trivial(4), FILT4.f1, SPACE4)
    assert result.independent


# ----------------------------------------------------------- random variables

def test_measurability_predicate():
    x = RandomVariable.of([1, 1, 2, 2])
    assert x.is_measurable(FILT4.f1)
    assert not RandomVariable.of([1, 0, 2, 2]).is_measurable(FILT4.f1)
    assert x.is_measurable(Partition.singletons(4))


def test_random_variable_arithmetic():
    x = RandomVariable.of([1, 2])
    y = RandomVariable.of([10, 20])
    assert (x + y).values == (11.0, 22.0)
    assert (y - x).values == (9.0, 18.0)
    assert (x * 3).values == (3.0, 6.0)
    assert (-x).values == (-1.0, -2.0)
    assert (x + 1.5).values == (2.5, 3.5)
    assert x.sup_norm() == 2.0


def test_event_set_helpers():
    ev = EventSet.from_indices([1, 3], 4)
    assert ev.indices() == (1, 3)
    assert ev.indicator().values == (0.0, 1.0, 0.0, 1.0)
    assert ev.issubset(EventSet.from_indices([0, 1, 3], 4))
    assert not EventSet.from_indices([0], 4).issubset(ev)


def test_product_space_shape():
    space, filt = product_space(3, 5)
    assert space.size == 15
    assert len(filt.f1.blocks) == 3
    assert all(len(b) == 5 for b in filt.f1.blocks)
    assert validate(space, filt).ok


def test_grid_refusal_names_an_empty_block():
    # an empty block caps the resolution at 0; the refusal names it, not the divisibility
    space = OutcomeSpace.uniform(2)
    with pytest.raises(ResolutionUnavailableError, match=r"F1 block 0 \(\) admits no 2-way"):
        build_uniform_grid(space, Filtration.two_period(space, [[], [0, 1]]), 2)


def test_nan_is_constant_on_no_block_of_two():
    blocks = Partition.from_blocks([[0, 1], [2, 3]])
    nan = float("nan")
    assert not RandomVariable.of([1, nan, 0, 0]).is_measurable(blocks)
    assert not RandomVariable.of([nan, nan, 0, 0]).is_measurable(blocks)
    assert RandomVariable.of([-0.0, 0.0, float("inf"), float("inf")]).is_measurable(blocks)
    assert not RandomVariable.of([0, 0, float("inf"), float("-inf")]).is_measurable(blocks)


def test_conditional_mass_refuses_a_nan_level():
    space = OutcomeSpace.uniform(2)
    filt = Filtration.two_period(space, [[0], [1]])
    grid = UniformGrid(resolution=2, ranks=(1, 2))
    with pytest.raises(ValueError, match=r"h value nan outside \[0, 1\]"):
        set_with_conditional_mass(space, filt, grid, RandomVariable.of([float("nan"), 0.5]))


def test_grid_refuses_f1_blocks_that_do_not_partition_the_outcomes():
    # the grid gave ranks (1, 2, 0, 0), (0, 0, 0, 0) and (1, 1, 2, 0): rank 0 lies outside 1..n
    space = OutcomeSpace.uniform(4)
    for blocks in ([[0, 1]], [], [[0, 1], [1, 2]]):
        filtration = Filtration.two_period(space, blocks)
        for n in (1, 2, None):
            with pytest.raises(ValueError, match="^the F1 blocks must hold each of the 4 outcomes exactly once$"):
                build_uniform_grid(space, filtration, n)


@pytest.mark.parametrize("masses, message", [
    ((Fraction(1, 2), Fraction(1, 2), 0, 0), "outcome 2 has non-positive mass 0"),
    ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(-1, 4)), "outcome 3 has non-positive mass -1/4"),
], ids=["zero-block", "negative"])
def test_grid_refuses_a_non_positive_mass(masses, message):
    # a block of mass 0 raised ZeroDivisionError: Fraction(0, 0), at n = None too, where
    # conditional_resolution of the zero-block space is 2
    space = OutcomeSpace.from_masses(masses)
    filtration = Filtration.two_period(space, [[0, 1], [2, 3]])
    for n in (1, 2, None):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_uniform_grid(space, filtration, n)


def test_a_mass_pair_is_read_by_fraction_itself():
    # a pair was read as Fraction(int(a), int(b)): (1.5, 2) became 1/2, and es((1.9, 2)) became es(1/2)
    with pytest.raises(TypeError, match="both arguments should be Rational instances"):
        OutcomeSpace.from_masses([(1.5, 2), (1, 4), (1, 4)])
    with pytest.raises(TypeError, match="both arguments should be Rational instances"):
        DistortionFunction.es((1.9, 2))
    quarter = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    i64 = np.int64
    for pairs in ([(1, 2), [1, 4], (2, 8)], [(i64(1), i64(2)), (i64(1), i64(4)), (2, i64(8))],
                  [(Fraction(1), Fraction(2)), (Fraction(1, 2), 2), (Fraction(1, 8), Fraction(1, 2))]):
        space = OutcomeSpace.from_masses(pairs)
        assert space.mass == quarter and space.weights == (2, 1, 1) and space.scale == 4
        # plain ints inside, so the masses hash and the grid splits the block as before
        assert all(type(m.numerator) is int and type(m.denominator) is int for m in space.mass)
        filt = Filtration.two_period(space, [[0, 1, 2]])
        assert build_uniform_grid(space, filt) == UniformGrid(resolution=2, ranks=(1, 2, 2))
    assert DistortionFunction.es((np.int64(1), np.int64(2))) == DistortionFunction.es((1, 2))
    assert DistortionFunction.es((Fraction(1, 2), 1)).alpha == Fraction(1, 2)


def test_a_fraction_with_numpy_integer_parts_is_rebuilt_by_from_masses_and_refused_when_built_directly():
    # Fraction keeps numpy integers as its parts: from_masses passed them, validate accepted
    # the space, and build_uniform_grid then raised TypeError in pow
    half, quarter = Fraction(np.int64(1), np.int64(2)), Fraction(1, np.int64(4))
    space = OutcomeSpace.from_masses([half, quarter, Fraction(1, 4)])
    assert space.mass == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert all(type(m.numerator) is int and type(m.denominator) is int for m in space.mass)
    filt = Filtration.two_period(space, [[0, 1, 2]])
    assert validate(space, filt).ok
    assert build_uniform_grid(space, filt) == UniformGrid(resolution=2, ranks=(1, 2, 2))
    for masses, index in (((half, Fraction(1, 4), Fraction(1, 4)), 0), ((Fraction(3, 4), quarter, 0), 1)):
        with pytest.raises(ValueError, match=rf"^mass {index} is {re.escape(repr(masses[index]))}, "
                                             r"a Fraction with a numpy\.int64 part, not int parts$"):
            OutcomeSpace(("a", "b", "c"), masses)


# ------------------------------------- integer weights against Fraction sums

def _fraction_mass_lines(space):
    """validate's mass lines as sums and comparisons of Fractions."""
    v = []
    if len(space.mass) != space.size:
        v.append(f"mass vector length {len(space.mass)} != {space.size} outcomes")
    for i, m in enumerate(space.mass):
        if m <= 0:
            v.append(f"outcome {i} has non-positive mass {m}")
    total = sum(space.mass, Fraction(0))
    if total != 1:
        v.append(f"mass sum {total} (must be exactly 1)")
    return tuple(v)


def _fraction_mass_of(space, indices):
    return sum((space.mass[i] for i in indices), Fraction(0))


def _fraction_split_exists(masses, n):
    """_split_exists with each weight taken as int(mass * scale)."""
    scale = math.lcm(*(m.denominator for m in masses))
    weights = sorted((int(m * scale) for m in masses), reverse=True)
    total = sum(weights)
    if total % n or max(weights, default=0) > total // n:
        return False
    return _place(weights, n, total // n) is not None


def _fraction_resolution(space, filt):
    blocks = filt.f1.blocks
    for n in range(min(len(b) for b in blocks), 1, -1):
        if all(_fraction_split_exists([space.mass[i] for i in b], n) for b in blocks):
            return n
    return 0


_T = 10**400  # block [0, 3] has mass 2 / _T, which is 0.0 in float64
_UNDERFLOW = OutcomeSpace.from_masses([(1, _T), (_T - 2, 2 * _T), (_T - 2, 2 * _T), (1, _T)])
_ZERO_BLOCK = OutcomeSpace.from_masses([Fraction(1, 2), Fraction(1, 2), 0, 0])
_any_mass = st.one_of(st.integers(-2, 3), st.builds(Fraction, st.integers(-3, 9), st.integers(1, 12)))


@st.composite
def _spaces_of_any_masses(draw):
    """1-8 outcomes over 1-4 shuffled F1 blocks, with up to 2 masses more than
    outcomes; each mass an int or a Fraction, zero and negative ones included,
    summing to anything, or rescaled to sum to 1."""
    size = draw(st.integers(1, 8))
    masses = draw(st.lists(_any_mass, min_size=size, max_size=size + 2))
    total = sum(masses, Fraction(0))
    if total and draw(st.booleans()):
        masses = [m / total for m in masses]
    order = draw(st.permutations(range(size)))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=3))) if size > 1 else []
    space = OutcomeSpace(tuple(f"w{i}" for i in range(size)), tuple(masses))
    return space, Filtration.two_period(space, [order[a:b] for a, b in zip([0, *cuts], [*cuts, size])])


@settings(max_examples=300, deadline=None)
@given(_spaces_of_any_masses())
@example((_UNDERFLOW, Filtration.two_period(_UNDERFLOW, [[0, 3], [1, 2]])))
@example((_ZERO_BLOCK, Filtration.two_period(_ZERO_BLOCK, [[0, 1], [2, 3]])))
def test_mass_decisions_on_weights_match_fraction_sums(case):
    space, filt = case
    assert validate(space, filt).violations == _fraction_mass_lines(space)
    blocks = filt.f1.blocks
    for indices in [*blocks, range(space.size), [i for b in blocks[1:] for i in b]]:
        assert space.mass_of(indices) == _fraction_mass_of(space, indices)
    for block in blocks:
        block_mass = _fraction_mass_of(space, block)
        if block_mass == 0:
            with pytest.raises(ZeroDivisionError):
                space.given(block)
        else:
            assert space.given(block).mass == tuple(space.mass[i] / block_mass for i in block)
    assert conditional_resolution(space, filt) == _fraction_resolution(space, filt)
