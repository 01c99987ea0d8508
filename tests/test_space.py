"""Exact-arithmetic checks for spaces, partitions, grids and conditional masses."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcal import (
    EventSet,
    Filtration,
    OutcomeSpace,
    Partition,
    RandomVariable,
    ResolutionUnavailableError,
    UniformGrid,
    build_uniform_grid,
    conditional_expectation,
    conditional_resolution,
    independence_check,
    product_space,
    set_with_conditional_mass,
    validate,
)
import riskcal.space
from riskcal.space import _equal_split, _split_exists


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
        for rank0, positions in enumerate(split):
            for pos in positions:
                ranks[block[pos]] = rank0 + 1
    return n, tuple(ranks)


@settings(max_examples=200, deadline=None)
@given(_block_masses)
@example([Fraction(m, 12) for m in (2, 3, 3, 2, 2)])  # in index order the dead-room cut prunes at n = 2
def test_split_exists_matches_canonical_split(masses):
    for n in range(1, len(masses) + 2):
        assert _split_exists(masses, n) == (_equal_split(masses, n) is not None)


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
        if not _split_exists([space.mass[i] for i in block], n):
            raise ResolutionUnavailableError(
                f"resolution unavailable: F1 block {j} {tuple(block)} admits no "
                f"{n}-way equal-conditional-mass split"
            )
    ranks = [0] * space.size
    for block in filt.f1.blocks:
        for rank0, positions in enumerate(_equal_split(space.given(block).mass, n)):
            for pos in positions:
                ranks[block[pos]] = rank0 + 1
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
    explicit-stack search, which must return the same groups."""
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


@settings(max_examples=200, deadline=None)
@given(_block_masses)
@example([Fraction(m, 12) for m in (2, 3, 3, 2, 2)])  # in index order the dead-room cut prunes at n = 2
def test_equal_split_matches_recursive_reference(masses):
    for n in range(1, len(masses) + 2):
        assert _equal_split(masses, n) == _recursive_equal_split(masses, n)


@pytest.mark.parametrize("k", [10, 11, 12])
def test_equal_split_matches_recursive_reference_on_ramps(k):
    # masses proportional to 1..k: the most backtracking among the shipped shapes
    ramp = [Fraction(i, k * (k + 1) // 2) for i in range(1, k + 1)]
    for n in range(1, k + 2):
        assert _equal_split(ramp, n) == _recursive_equal_split(ramp, n)


def test_equal_split_of_a_block_longer_than_the_recursion_limit():
    flat = [Fraction(1, 1030)] * 1030
    assert _equal_split(flat, 2) == [list(range(515)), list(range(515, 1030))]


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
        for n in (2, None):
            with pytest.raises(ValueError, match="^the F1 blocks must hold each of the 4 outcomes exactly once$"):
                build_uniform_grid(space, filtration, n)
