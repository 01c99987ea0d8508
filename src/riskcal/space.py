"""Finite filtered probability spaces with exact rational masses.

Outcomes carry Fraction masses so that conditional probabilities, grid
constructions and independence checks can be asserted with zero tolerance.
Payoffs (random variables) are plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, lcm
from typing import Iterable, Sequence

__all__ = [
    "OutcomeSpace",
    "Partition",
    "Filtration",
    "RandomVariable",
    "EventSet",
    "UniformGrid",
    "ValidationReport",
    "ConditionalMassResult",
    "IndependenceResult",
    "ResolutionUnavailableError",
    "validate",
    "conditional_expectation",
    "conditional_resolution",
    "build_uniform_grid",
    "set_with_conditional_mass",
    "independence_check",
    "product_space",
]


class ResolutionUnavailableError(ValueError):
    """Raised when a uniform grid of the requested resolution cannot be built."""


def _as_fraction(m) -> Fraction:
    """An exact rational from a (num, den) pair or anything Fraction takes."""
    if isinstance(m, (tuple, list)) and len(m) == 2:
        return Fraction(int(m[0]), int(m[1]))
    return Fraction(m)


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite sample space with one exact rational mass per outcome; `scale` W
    (the lcm of the denominators) and the integer `weights` mass * W are cached."""

    outcomes: tuple[str, ...]
    mass: tuple[Fraction, ...]

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
        return sum((self.mass[i] for i in indices), Fraction(0))

    def given(self, block: Sequence[int]) -> "OutcomeSpace":
        """The outcomes of `block` under the conditional law, masses mass[i] / P[block] exactly."""
        bm = self.mass_of(block)
        return OutcomeSpace(tuple(self.outcomes[i] for i in block), tuple(self.mass[i] / bm for i in block))


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


@dataclass(frozen=True)
class ConditionalMassResult:
    event: EventSet
    achieved: tuple[Fraction, ...]  # conditional mass per F1 block
    snapped: bool


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    max_deviation: Fraction


def validate(space: OutcomeSpace, filtration: Filtration) -> ValidationReport:
    """Check every type invariant; collect violations instead of raising."""
    v: list[str] = []
    n = space.size
    if len(space.mass) != n:
        v.append(f"mass vector length {len(space.mass)} != {n} outcomes")
    for i, m in enumerate(space.mass):
        if m <= 0:
            v.append(f"outcome {i} has non-positive mass {m}")
    total = sum(space.mass, Fraction(0))
    if total != 1:
        v.append(f"mass sum {total} (must be exactly 1)")

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


def conditional_expectation(x: RandomVariable, given: Partition, space: OutcomeSpace) -> RandomVariable:
    """Blockwise mean of x under the exact conditional law; constant on each block."""
    out = [0.0] * space.size
    for block in given.blocks:
        val = sum(float(m) * x.values[i] for m, i in zip(space.given(block).mass, block))
        for i in block:
            out[i] = val
    return RandomVariable(tuple(out))


def _place(items: Sequence, n: int, room, smallest) -> list[int] | None:
    """Each item's group when the items fill n groups of `room` each, or None.

    Deterministic: items are placed in the order given, each into the
    lowest-index group whose room fits it; a room already tried for the
    current item is skipped, since groups of equal room are interchangeable,
    and a branch stops when it leaves a room above 0 but below `smallest`,
    which no item can fill. The cut prunes only branches that hold no
    placement, so the first placement found does not depend on it. Complete
    backtracking on an explicit stack, so None means no placement exists and
    a long block needs no recursion. The items must sum to n * room.
    """
    rooms = [room] * n
    placed: list[int] = []  # placed[k] is the group of items[k]
    tried_at: list[set] = []  # tried_at[k] holds the rooms already tried for items[k]
    start, tried = 0, set()  # for items[len(placed)]: the next group to try, the rooms tried
    while True:
        pos = len(placed)
        if pos == len(items):  # every group is full, since the items sum to n * room
            return placed
        item = items[pos]
        for g in range(start, n):
            r = rooms[g]
            if r < item or r in tried:
                continue
            tried.add(r)
            left = r - item
            if 0 < left < smallest:  # dead room
                continue
            rooms[g] = left
            placed.append(g)
            tried_at.append(tried)
            start, tried = 0, set()
            break
        else:
            if not placed:
                return None
            g, tried = placed.pop(), tried_at.pop()  # take items[pos - 1] back out of group g
            rooms[g] += items[pos - 1]
            start = g + 1


def _equal_split(masses: Sequence[Fraction], n: int) -> list[list[int]] | None:
    """Partition positions 0..len-1 into n groups of equal mass sum, or None.

    The canonical split: _place on the exact Fraction masses in index order.
    """
    target = sum(masses, Fraction(0)) / n
    if any(m > target for m in masses):
        return None
    placed = _place(masses, n, target, min(masses, default=0))
    if placed is None:
        return None
    groups: list[list[int]] = [[] for _ in range(n)]
    for pos, g in enumerate(placed):
        groups[g].append(pos)
    return groups


def _split_exists(masses: Sequence[Fraction], n: int) -> bool:
    """Whether positions 0..len-1 split into n groups of equal mass sum.

    Decides existence only, not _equal_split's canonical assignment: _place
    on integer weights (mass * lcm of the denominators), largest first (the
    ordering of complete multi-way number partitioning, Korf 2009).
    """
    scale = lcm(*(m.denominator for m in masses))
    weights = sorted((int(m * scale) for m in masses), reverse=True)
    total = sum(weights)
    if total % n or max(weights, default=0) > total // n:
        return False
    return _place(weights, n, total // n, min(weights, default=0)) is not None


def conditional_resolution(space: OutcomeSpace, filtration: Filtration) -> int:
    """Largest n >= 2 such that every F1 block splits into n equal-conditional-mass
    sub-events (exact arithmetic); 0 if no such n exists.

    This is the finite surrogate for conditional atomlessness and the n of
    the default grid. Only existence matters here, so each (block, n) is
    decided by _split_exists; build_uniform_grid computes the canonical
    assignment of _equal_split, for its one n.
    """
    blocks = filtration.f1.blocks
    if not blocks:
        return 0
    cap = min(len(b) for b in blocks)
    for n in range(cap, 1, -1):
        if all(_split_exists([space.mass[i] for i in b], n) for b in blocks):
            return n
    return 0


def build_uniform_grid(space: OutcomeSpace, filtration: Filtration, n: int | None = None) -> UniformGrid:
    """Split each F1 block into n equal-conditional-mass groups; U = group rank / n.

    n=None uses the conditional resolution, at which every block splits. A
    requested n is checked by _split_exists once per distinct conditional
    law of a block, and the first block that cannot split n ways is named.
    The ranks come from the canonical-order backtracking of _equal_split,
    run once per distinct law, so outputs are reproducible. Blocks that do
    not hold each outcome exactly once are refused, as ConditionalUtility does.
    """
    if n is not None and n < 1:
        raise ValueError(f"resolution n must be positive, got {n}")
    if n == 1:
        return UniformGrid(resolution=1, ranks=(1,) * space.size)
    if sorted(i for b in filtration.f1.blocks for i in b) != list(range(space.size)):
        raise ValueError(f"the F1 blocks must hold each of the {space.size} outcomes exactly once")
    requested = n is not None
    if not requested:
        n = conditional_resolution(space, filtration)
        if n == 0:
            raise ResolutionUnavailableError(
                "resolution unavailable: the F1 blocks admit no common equal-conditional-mass split"
            )
    ranks = [0] * space.size
    splits: dict[tuple[Fraction, ...], list[list[int]]] = {}
    for j, block in enumerate(filtration.f1.blocks):
        law = space.given(block).mass
        if law not in splits:
            # an empty block cannot split, though _split_exists passes it
            if not block or (requested and not _split_exists(law, n)):
                raise ResolutionUnavailableError(
                    f"resolution unavailable: F1 block {j} {tuple(block)} admits no "
                    f"{n}-way equal-conditional-mass split"
                )
            splits[law] = _equal_split(law, n)
        for rank0, positions in enumerate(splits[law]):
            for pos in positions:
                ranks[block[pos]] = rank0 + 1
    return UniformGrid(resolution=n, ranks=tuple(ranks))


def set_with_conditional_mass(
    space: OutcomeSpace,
    filtration: Filtration,
    grid: UniformGrid,
    h: RandomVariable,
) -> ConditionalMassResult:
    """Return B_h = {U <= h} for F1-measurable h with values in [0, 1].

    Off-grid h-values snap DOWN to the largest grid value <= h; the achieved
    conditional masses are reported per block and `snapped` is flagged.
    """
    if not h.is_measurable(filtration.f1):
        raise ValueError("h must be F1-measurable")
    n = grid.resolution
    member = [False] * space.size
    achieved: list[Fraction] = []
    snapped = False
    for block in filtration.f1.blocks:
        hv = h.values[block[0]]
        if not -1e-12 <= hv <= 1 + 1e-12:  # NaN included
            raise ValueError(f"h value {hv} outside [0, 1]")
        k_near = round(hv * n)
        if abs(hv - k_near / n) <= 1e-9:
            k = int(k_near)
        else:
            k = floor(hv * n)
            snapped = True
        k = max(0, min(n, k))
        achieved.append(Fraction(k, n))
        for i in block:
            if grid.ranks[i] <= k:
                member[i] = True
    return ConditionalMassResult(event=EventSet(tuple(member)), achieved=tuple(achieved), snapped=snapped)


def independence_check(a: Partition, b: Partition, space: OutcomeSpace) -> IndependenceResult:
    """Exact test of P[A ∩ B] = P[A]·P[B] over all block pairs."""
    worst = Fraction(0)
    for blk_a in a.blocks:
        pa = space.mass_of(blk_a)
        sa = set(blk_a)
        for blk_b in b.blocks:
            pb = space.mass_of(blk_b)
            joint = space.mass_of(i for i in blk_b if i in sa)
            dev = abs(joint - pa * pb)
            if dev > worst:
                worst = dev
    return IndependenceResult(independent=(worst == 0), max_deviation=worst)


def product_space(k_alpha: int, k_x: int) -> tuple[OutcomeSpace, Filtration]:
    """Uniform (k_alpha x k_x) product grid; F1 = row partition, rows are
    contiguous index ranges row*k_x .. row*k_x + k_x - 1."""
    space = OutcomeSpace.uniform(k_alpha * k_x)
    return space, Filtration.two_period(space, (range(r * k_x, (r + 1) * k_x) for r in range(k_alpha)))
