"""Finite filtered probability spaces with exact rational masses.

Outcomes carry Fraction masses so that conditional probabilities, grid
constructions and independence checks can be asserted with zero tolerance.
Payoffs (random variables) are plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "OutcomeSpace",
    "Partition",
    "Filtration",
    "RandomVariable",
    "EventSet",
    "UniformGrid",
    "ValidationReport",
    "ResolutionUnavailableError",
    "validate",
    "conditional_resolution",
    "build_uniform_grid",
    "product_space",
]


class ResolutionUnavailableError(ValueError):
    """Raised when a uniform grid of the requested resolution cannot be built."""


def _as_fraction(m) -> Fraction:
    """An exact rational with int parts from a (num, den) pair, which Fraction itself reads, or anything
    Fraction takes; int() drops numpy's integer types, which Fraction keeps as the parts."""
    if isinstance(m, (tuple, list)) and len(m) == 2:
        m = Fraction(m[0], m[1])  # refuses a part that is not rational
    q = m if isinstance(m, Fraction) else Fraction(m)
    if isinstance(q.numerator, int) and isinstance(q.denominator, int):
        return q
    return Fraction(int(q.numerator), int(q.denominator))


def _part_type(q: Fraction) -> str:
    """The type of q's first part that is not an int, such as a numpy integer, whose products wrap silently."""
    bad = type(q.denominator if isinstance(q.numerator, int) else q.numerator)
    return f"{bad.__module__}.{bad.__qualname__}"


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite sample space with one exact rational mass per outcome; `scale` W
    (the lcm of the denominators) and the integer `weights` mass * W are cached,
    and every mass decision (block masses, conditional laws, validate's signs
    and sum) is made on them. A mass that is not an int or a Fraction, or a
    Fraction with a part that is not an int, is refused here; the values and
    the count of the masses are left to `validate`."""

    outcomes: tuple[str, ...]
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        for i, m in enumerate(self.mass):
            if not isinstance(m, (int, Fraction)):
                raise ValueError(f"mass {i} is {m!r}, not an int or a Fraction")
            if not isinstance(m.numerator, int) or not isinstance(m.denominator, int):  # an int's parts are ints
                raise ValueError(f"mass {i} is {m!r}, a Fraction with a {_part_type(m)} part, not int parts")

    @classmethod
    def uniform(cls, n: int) -> "OutcomeSpace":
        return cls(tuple(f"w{i}" for i in range(n)), tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_masses(cls, masses: Iterable, labels: Sequence[str] | None = None) -> "OutcomeSpace":
        mm = tuple(_as_fraction(m) for m in masses)
        if labels is None:
            labels = tuple(f"w{i}" for i in range(len(mm)))
        return cls(tuple(labels), mm)

    @property
    def size(self) -> int:
        return len(self.outcomes)

    @cached_property
    def scale(self) -> int:
        return lcm(*(m.denominator for m in self.mass))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(m.numerator * (self.scale // m.denominator) for m in self.mass)

    def mass_of(self, indices: Iterable[int]) -> Fraction:
        """P[indices] exactly, as the sum of their weights over `scale`."""
        return Fraction(sum(self.weights[i] for i in indices), self.scale)

    def given(self, block: Sequence[int]) -> "OutcomeSpace":
        """The outcomes of `block` under the conditional law: mass[i] / P[block]
        exactly, built as weights[i] over the block's weight sum."""
        weights = self.weights
        total = sum(weights[i] for i in block)
        return OutcomeSpace(tuple(self.outcomes[i] for i in block), tuple(Fraction(weights[i], total) for i in block))


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty index blocks covering the space; order is canonical."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(n)))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(tuple(int(i) for i in b) for b in blocks))

    def refines(self, coarser: "Partition") -> bool:
        cover = {}
        for j, b in enumerate(coarser.blocks):
            for i in b:
                cover[i] = j
        for b in self.blocks:
            owners = {cover.get(i) for i in b}
            if len(owners) != 1 or None in owners:
                return False
        return True


@dataclass(frozen=True)
class Filtration:
    """Two-period information structure: trivial F0, intermediate F1, discrete F2."""

    f0: Partition
    f1: Partition
    f2: Partition

    @classmethod
    def two_period(cls, space: OutcomeSpace, f1_blocks: Iterable[Iterable[int]]) -> "Filtration":
        n = space.size
        return cls(Partition.trivial(n), Partition.from_blocks(f1_blocks), Partition.singletons(n))


@dataclass(frozen=True)
class RandomVariable:
    """One finite real payoff per outcome."""

    values: tuple[float, ...]

    @classmethod
    def of(cls, values: Iterable[float]) -> "RandomVariable":
        return cls(tuple(float(v) for v in values))

    @classmethod
    def constant(cls, c: float, n: int) -> "RandomVariable":
        return cls((float(c),) * n)

    @classmethod
    def from_block_values(cls, block_values: Sequence[float], partition: Partition, n: int) -> "RandomVariable":
        vals = [0.0] * n
        for bv, block in zip(block_values, partition.blocks):
            for i in block:
                vals[i] = float(bv)
        return cls(tuple(vals))

    def __add__(self, other):
        if isinstance(other, RandomVariable):
            return RandomVariable(tuple(a + b for a, b in zip(self.values, other.values)))
        return RandomVariable(tuple(a + float(other) for a in self.values))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RandomVariable):
            return RandomVariable(tuple(a - b for a, b in zip(self.values, other.values)))
        return RandomVariable(tuple(a - float(other) for a in self.values))

    def __neg__(self):
        return RandomVariable(tuple(-a for a in self.values))

    def __mul__(self, scalar):
        return RandomVariable(tuple(a * float(scalar) for a in self.values))

    __rmul__ = __mul__

    def sup_norm(self) -> float:
        return max((abs(v) for v in self.values), default=0.0)

    def is_measurable(self, partition: Partition) -> bool:
        """Constant on every block of `partition`, exactly."""
        for block in partition.blocks:
            ref = self.values[block[0]]
            for i in block[1:]:
                if self.values[i] != ref:  # a NaN differs from every value, itself included
                    return False
        return True


@dataclass(frozen=True)
class EventSet:
    """Boolean membership per outcome."""

    member: tuple[bool, ...]

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "EventSet":
        s = set(indices)
        return cls(tuple(i in s for i in range(n)))

    @classmethod
    def empty(cls, n: int) -> "EventSet":
        return cls((False,) * n)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.member) if m)

    def indicator(self) -> RandomVariable:
        return RandomVariable(tuple(1.0 if m else 0.0 for m in self.member))

    def issubset(self, other: "EventSet") -> bool:
        return all((not a) or b for a, b in zip(self.member, other.member))


@dataclass(frozen=True)
class UniformGrid:
    """Discrete uniform-on-[0,1] layer independent of F1.

    `ranks[i]` in 1..n is the equal-conditional-mass group of outcome i within
    its F1 block; U = rank/n and B_{k/n} = {U <= k/n} = {rank <= k}.
    """

    resolution: int
    ranks: tuple[int, ...]

    @property
    def u_values(self) -> RandomVariable:
        return RandomVariable(tuple(r / self.resolution for r in self.ranks))

    def level_set(self, k: int) -> EventSet:
        """B_{k/n}, k = 0..n."""
        return EventSet(tuple(r <= k for r in self.ranks))

    def u_partition(self) -> Partition:
        """Partition by U-value, i.e. the atoms of sigma(U)."""
        groups = [[] for _ in range(self.resolution)]
        for i, r in enumerate(self.ranks):
            groups[r - 1].append(i)
        return Partition.from_blocks(groups)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _non_positive_masses(space: OutcomeSpace) -> list[str]:
    """validate's line for each outcome whose weight is not positive, in order."""
    return [f"outcome {i} has non-positive mass {space.mass[i]}" for i, w in enumerate(space.weights) if w <= 0]


def validate(space: OutcomeSpace, filtration: Filtration) -> ValidationReport:
    """Check every type invariant; collect violations instead of raising. Signs
    and the mass sum are read on the integer weights, and a Fraction is built
    only to print a sum other than 1."""
    v: list[str] = []
    n = space.size
    if len(space.mass) != n:
        v.append(f"mass vector length {len(space.mass)} != {n} outcomes")
    v += _non_positive_masses(space)
    total = sum(space.weights)
    if total != space.scale:
        v.append(f"mass sum {Fraction(total, space.scale)} (must be exactly 1)")

    for name, part in (("f0", filtration.f0), ("f1", filtration.f1), ("f2", filtration.f2)):
        seen: dict[int, int] = {}  # outcome -> the last block holding it
        for j, block in enumerate(part.blocks):
            if not block:
                v.append(f"{name} block {j} is empty")
            for i in block:
                if not 0 <= i < n:
                    v.append(f"{name} block {j} references outcome {i} outside 0..{n - 1}")
                elif i in seen:
                    where = f"more than once in block {j}" if seen[i] == j else "in more than one block"
                    v.append(f"{name}: outcome {i} appears {where}")
                seen[i] = j
        missing = [i for i in range(n) if i not in seen]
        if missing:
            v.append(f"{name} does not cover outcomes {missing}")

    if len(filtration.f0.blocks) != 1:
        v.append(f"f0 has {len(filtration.f0.blocks)} blocks (must be the trivial partition)")
    if any(len(b) != 1 for b in filtration.f2.blocks):
        v.append("f2 has a non-singleton block (must be the discrete partition)")
    if not filtration.f1.refines(filtration.f0):
        v.append("f1 does not refine f0")
    if not filtration.f2.refines(filtration.f1):
        v.append("f2 does not refine f1")

    return ValidationReport(ok=not v, violations=tuple(v))


# A split search that backtracks this many times stops undecided: equal-sum
# partitioning is NP-hard (Korf 2009), so no pruning bounds every search. The
# longest searches that the tests, the report battery and the benchmark decide
# take 45,691 backtracks (a 40-outcome block's existence search at n = 15),
# 44,967 (a 14-outcome ramp's canonical split) and 5,899 (a 12-outcome ramp's).
# At 70k to 240k backtracks a second on a 2-vCPU Xeon, an exhausted search
# costs 1 to 2 s. The existence search's dead-state set gains at most one state
# per backtrack, so at the budget it holds 150,000 states: 41 MB at its peak
# (tracemalloc) on a 60-outcome block at n = 20, whose states hold 20 rooms.
_SEARCH_BUDGET = 150_000


class _SearchBudgetExhausted(Exception):
    """A split search ran past _SEARCH_BUDGET backtracks without an answer."""


def _place(items: Sequence, n: int, room, remember_dead: bool = False) -> list[int] | None:
    """Each item's group when the items fill n groups of `room` each, or None.

    Deterministic: items are placed in the order given, each into the
    lowest-index group whose room fits it; a room already tried for the
    current item is skipped, since groups of equal room are interchangeable,
    and a branch stops when it leaves a room above 0 but below the smallest
    item, which no item can fill. The cut prunes only branches that hold no
    placement, so the first placement found does not depend on it. Complete
    backtracking on one explicit stack, so None means no placement exists and
    a long block needs no recursion. The items must sum to n * room. Past
    _SEARCH_BUDGET backtracks it raises _SearchBudgetExhausted: neither answer
    is known then.

    Each saving is exact for ints and Fractions, zero and negative items
    included: a backtrack restores the room its group had, kept on the stack
    with the node's tried rooms, instead of adding the item back; a tried room
    maps to the lower group it was first tried in, so one setdefault records
    and tests it (one hash); and r >= item, so "above 0" is left's sign.

    remember_dead records each state (position, sorted rooms) in which every
    group failed, and a later arrival at a recorded state backtracks at once.
    Items go in a fixed order and groups of equal room are interchangeable,
    so such a state holds no placement wherever it recurs: the set prunes
    only empty branches, and the first placement found does not change. The
    set is read only once it holds a state, so a search that exhausts none
    pays one truth test per node. It gains at most one state per backtrack,
    so _SEARCH_BUDGET bounds it. The existence search turns it on; the
    canonical split leaves it off, since on Fraction rooms its states rarely
    recur and sorting and hashing them slowed the ramp split by up to 1.8x.
    """
    smallest = min(items, default=0)
    rooms = [room] * n
    placed: list[int] = []  # placed[k] is the group of items[k]
    saved: list[tuple] = []  # saved[k]: the rooms tried for items[k], and its group's room before it
    start, tried = 0, {}  # for items[len(placed)]: the next group to try, each tried room's group
    dead: set[tuple] = set()  # (position, sorted rooms) of states that hold no placement
    budget = _SEARCH_BUDGET  # backtracks left
    while True:
        pos = len(placed)
        if pos == len(items):  # every group is full, since the items sum to n * room
            return placed
        item = items[pos]
        for g in range(start, n):
            r = rooms[g]
            if r < item or tried.setdefault(r, g) != g:  # r too small, or tried in a lower group
                continue
            left = r - item
            if left and left < smallest:  # dead room
                continue
            rooms[g] = left
            if dead and (pos + 1, tuple(sorted(rooms))) in dead:  # a state already exhausted
                rooms[g] = r
                continue
            placed.append(g)
            saved.append((tried, r))
            start, tried = 0, {}
            break
        else:
            if not placed:
                return None
            budget -= 1
            if budget < 0:
                raise _SearchBudgetExhausted
            if remember_dead:
                dead.add((pos, tuple(sorted(rooms))))
            g = placed.pop()  # take items[pos - 1] back out of group g
            tried, rooms[g] = saved.pop()
            start = g + 1


def _equal_split(masses: Sequence[Fraction], n: int) -> list[int] | None:
    """Each position's group 0..n-1 when positions 0..len-1 split into n groups
    of equal mass sum, or None.

    The canonical split: _place on the exact Fraction masses in index order.
    """
    target = sum(masses, Fraction(0)) / n
    if any(m > target for m in masses):
        return None
    return _place(masses, n, target)


def _split_exists(weights: Sequence[int], n: int) -> bool:
    """Whether positions 0..len-1 of a block's positive integer weights (as
    OutcomeSpace.weights caches them) split into n groups of equal sum.

    Decides existence only, not _equal_split's canonical assignment: _place
    on the weights largest first (the ordering of complete multi-way number
    partitioning, Korf 2009). A split does not depend on the weights' scale,
    so they are divided by their gcd first: the space-wide weights of a block
    can carry factors from other blocks' denominators, and one of them
    dividing n would stop the divisibility test from refuting n at once.
    """
    common = gcd(*weights)
    weights = sorted((w // common for w in weights) if common > 1 else weights, reverse=True)
    total = sum(weights)
    if total % n or max(weights, default=0) > total // n:
        return False
    return _place(weights, n, total // n, remember_dead=True) is not None


def _existence_split(weights: Sequence[int], n: int) -> list[int]:
    """Each position's group 0..n-1 in the split that _split_exists found on
    these weights, which must hold one: its _place run again, unreduced since
    scale changes no step, and put back in index order."""
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    items = [weights[i] for i in order]
    groups = [0] * len(order)
    for i, group in zip(order, _place(items, n, sum(items) // n, remember_dead=True)):
        groups[i] = group
    return groups


def conditional_resolution(space: OutcomeSpace, filtration: Filtration) -> int | None:
    """Largest n >= 2 such that every F1 block splits into n equal-conditional-mass
    sub-events (exact arithmetic); 0 if no such n exists, and None if it is
    unknown: a block's search at that n ran out of budget and no block refuted n.

    This is the finite surrogate for conditional atomlessness and the n of
    the default grid. Only existence matters here, so each (block, n) is
    decided by _split_exists on the block's integer weights; build_uniform_grid
    computes the canonical assignment of _equal_split, for its one n.
    """
    blocks = filtration.f1.blocks
    if not blocks:
        return 0
    cap = min(len(b) for b in blocks)
    for n in range(cap, 1, -1):
        unknown = False
        for b in blocks:
            try:
                if not _split_exists([space.weights[i] for i in b], n):
                    break
            except _SearchBudgetExhausted:
                unknown = True  # another block may still refute n
        else:
            return None if unknown else n
    return 0


def build_uniform_grid(space: OutcomeSpace, filtration: Filtration, n: int | None = None) -> UniformGrid:
    """Split each F1 block into n equal-conditional-mass groups; U = group rank / n.

    n=None uses the conditional resolution, at which every block splits. A
    requested n is checked by _split_exists once per distinct conditional
    law of a block, and the first block that cannot split n ways is named.
    The ranks come from the canonical-order backtracking of _equal_split,
    run once per distinct law, so outputs are reproducible; where it runs out
    of budget at an n the existence search has decided, they come from that
    search's placement, deterministic too. An existence search that runs out
    of budget refuses the grid as unavailable. Blocks that do
    not hold each outcome exactly once are refused, as ConditionalUtility does,
    and so is a space with a mass <= 0, with validate's line for the first, at every n.
    """
    if n is not None and n < 1:
        raise ValueError(f"resolution n must be positive, got {n}")
    if sorted(i for b in filtration.f1.blocks for i in b) != list(range(space.size)):
        raise ValueError(f"the F1 blocks must hold each of the {space.size} outcomes exactly once")
    if non_positive := _non_positive_masses(space):
        raise ValueError(non_positive[0])
    requested = n is not None
    if not requested:
        n = conditional_resolution(space, filtration)
        if n is None:
            raise ResolutionUnavailableError(
                f"resolution unavailable: search budget: a split search ran past {_SEARCH_BUDGET} "
                "backtracks before the conditional resolution was decided"
            )
        if n == 0:
            raise ResolutionUnavailableError(
                "resolution unavailable: the F1 blocks admit no common equal-conditional-mass split"
            )
    ranks = [0] * space.size
    splits: dict[tuple[Fraction, ...], list[int]] = {}
    try:
        for j, block in enumerate(filtration.f1.blocks):
            law = space.given(block).mass
            if law not in splits:
                # an empty block cannot split, though _split_exists passes it
                if not block or (requested and not _split_exists([space.weights[i] for i in block], n)):
                    raise ResolutionUnavailableError(
                        f"resolution unavailable: F1 block {j} {tuple(block)} admits no "
                        f"{n}-way equal-conditional-mass split"
                    )
                try:
                    splits[law] = _equal_split(law, n)
                except _SearchBudgetExhausted:
                    # the existence search decided n on this block within budget, and
                    # repeats that search exactly, so its placement is the fallback
                    splits[law] = _existence_split([space.weights[i] for i in block], n)
            for i, group in zip(block, splits[law]):
                ranks[i] = group + 1
    except _SearchBudgetExhausted:
        raise ResolutionUnavailableError(
            f"resolution unavailable: search budget: the {n}-way split search on F1 block {j} "
            f"{tuple(block)} ran past {_SEARCH_BUDGET} backtracks"
        ) from None
    return UniformGrid(resolution=n, ranks=tuple(ranks))


def product_space(k_alpha: int, k_x: int) -> tuple[OutcomeSpace, Filtration]:
    """Uniform (k_alpha x k_x) product grid; F1 = row partition, rows are
    contiguous index ranges row*k_x .. row*k_x + k_x - 1."""
    space = OutcomeSpace.uniform(k_alpha * k_x)
    return space, Filtration.two_period(space, (range(r * k_x, (r + 1) * k_x) for r in range(k_alpha)))
