"""Conditional utilities, recomposition, and time-consistency audits.

The one-period conditional utility of x given F1 is computed block by
block: CoherentUtility.given restricts the base to the block's conditional
law, once per block for a ConditionalUtility, and CoherentUtility.evaluate
applies it there to each payoff, the path of the direct value; where no
scenario measure charges a block, the conditional expectation stands in
and the block is flagged. Recomposition feeds the resulting F1-measurable
payoff back through the base utility; the absolute gap between the direct
two-period value and the recomposed one is the time-inconsistency
certificate this module reports.

The cone test asks the same question in decomposition form: an acceptable
x splits as x = eta + zeta with eta F1-measurable acceptable today and
zeta conditionally acceptable on every block. Monotonicity collapses that
search to evaluating the blockwise upper envelope of eta, the core bound
min{E_Q[x | A] : Q in the dual set, Q(A) > 0} on each block A, so no LP
solver is needed; witnesses are re-verified numerically before being
returned. For a scenario base the bound is scenario_min_eval over its
measures conditioned on the block. For a distortion base the dual set is
the core of psi(P), and the bound is a linear-fractional program over it,
solved by Dinkelbach's method (Dinkelbach 1967): each step takes the greedy
core vertex of (x - t) 1_A, which minimises E_Q over the core, and moves t
down to its conditional mean, so no core vertex is enumerated and no
outcome cap applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .space import Filtration, OutcomeSpace, Partition, RandomVariable
from .utility import (
    CoherentUtility,
    DistortionFunction,
    ScenarioSet,
    core_vertex,
    is_commonotone_pair,
    scenario_min_eval,
)

__all__ = [
    "ConditionalUtility",
    "TimeConsistencyReport",
    "conditional_eval",
    "conditional_eval_with_flags",
    "blockwise_eval",
    "recompose",
    "two_period_eval",
    "tc_gap",
    "core_bound",
    "cone_decompose",
    "conditional_commonotone_additivity_check",
    "crafted_ladder",
    "default_probes",
    "DEFAULT_SEED",
    "DEFAULT_PROBES",
    "DEMO_PROBES",
    "GAP_TOL",
]

# the CLI's defaults for --seed, --probes and --tol, printed in every report header
DEFAULT_SEED = 1729
DEFAULT_PROBES = 200
DEMO_PROBES = 50  # --probes of the demos
GAP_TOL = 1e-9
_EXPECTATION = CoherentUtility.from_distortion(DistortionFunction.expectation())


@dataclass(frozen=True)
class ConditionalUtility:
    """A base utility bound to a space and a two-period filtration; the
    cached `conditioned` holds CoherentUtility.given's pair for each F1 block
    (utility None where no scenario measure charges it) and the block's float
    masses, built on first use so that no probe conditions a block again."""

    base: CoherentUtility
    space: OutcomeSpace
    filtration: Filtration

    def __post_init__(self):
        if self.base.kind == "product":
            raise ValueError(
                "conditional evaluation needs a distortion or scenario base; "
                "the product-grid utility is a two-period object only"
            )
        if self.base.kind == "scenario":
            ScenarioSet.of(self.base.scenarios.measures, self.space)  # raises if a measure's length is not space.size

    @cached_property
    def conditioned(self) -> dict[tuple[int, ...], tuple]:
        s = self.space
        return {b: (*self.base.given(s, b), tuple(float(s.mass[i]) for i in b)) for b in self.filtration.f1.blocks}


@dataclass(frozen=True)
class TimeConsistencyReport:
    """Per-probe audit of the recomposition identity.

    per_vector rows are (probe id, direct value, recomposed value, gap);
    max_gap is the largest gap and witness the probe attaining it.
    cone_verdicts, when populated, are (probe id, decomposition feasible).
    """

    max_gap: float
    witness: RandomVariable
    per_vector: tuple[tuple[int, float, float, float], ...]
    cone_verdicts: tuple[tuple[int, bool], ...] = ()


def blockwise_eval(
    base: CoherentUtility,
    space: OutcomeSpace,
    partition: Partition,
    x: RandomVariable,
) -> tuple[RandomVariable, tuple[int, ...]]:
    """Evaluate `base` on each block of `partition` under the conditional law.

    Returns the partition-measurable result plus the indices of blocks where
    a scenario base had no measure charging the block and the evaluation fell
    back to the conditional expectation under P. Conditions every block anew.
    """
    cu = ConditionalUtility(base, space, Filtration.two_period(space, partition.blocks))
    return conditional_eval_with_flags(cu, x)


def conditional_eval(cu: ConditionalUtility, x: RandomVariable) -> RandomVariable:
    """One-period conditional utility of x given F1 (blockwise base evaluation)."""
    return conditional_eval_with_flags(cu, x)[0]


def conditional_eval_with_flags(
    cu: ConditionalUtility, x: RandomVariable
) -> tuple[RandomVariable, tuple[int, ...]]:
    """conditional_eval plus the block indices where the scenario fallback fired."""
    out = [0.0] * cu.space.size
    fallbacks: list[int] = []
    for bi, (block, (u, law, _)) in enumerate(cu.conditioned.items()):
        if u is None:
            u = _EXPECTATION
            fallbacks.append(bi)
        v = u.evaluate(RandomVariable(tuple(x.values[i] for i in block)), law)
        for i in block:
            out[i] = v
    return RandomVariable(tuple(out)), tuple(fallbacks)


def two_period_eval(cu: ConditionalUtility, x: RandomVariable) -> float:
    """Direct value over both periods at once."""
    return cu.base.evaluate(x, cu.space, cu.filtration)


def recompose(cu: ConditionalUtility, x: RandomVariable) -> float:
    """Today's utility of the conditional utility.

    The intermediate payoff is F1-measurable, so evaluating the base on the
    full space coincides with evaluating it on the quotient space of blocks.
    """
    return cu.base.evaluate(conditional_eval(cu, x), cu.space, cu.filtration)


def crafted_ladder(space: OutcomeSpace) -> RandomVariable:
    """Doubling payoff ladder (0, 1, 2, 4, ...): interleaves unevenly across
    index-contiguous blocks, which is what makes recomposition gaps visible.
    Its top rung 2**(n-2) is a float64 only for n <= 1025 outcomes."""
    if space.size > 1025:
        raise ValueError(f"the doubling ladder needs at most 1025 outcomes, got {space.size}")
    return RandomVariable.of([0.0] + [float(2 ** k) for k in range(space.size - 1)])


def default_probes(
    space: OutcomeSpace,
    count: int = DEFAULT_PROBES,
    seed: int = DEFAULT_SEED,
    nonnegative: bool = False,
) -> tuple[RandomVariable, ...]:
    """Crafted ladder probe plus `count` uniform draws from [-1, 1]^n
    (or [0, 1]^n for utilities defined on nonnegative payoffs only)."""
    import numpy as np  # here, so that importing riskcal does not load numpy

    rng = np.random.default_rng(seed)
    probes = [crafted_ladder(space)]
    low = 0.0 if nonnegative else -1.0
    for row in rng.uniform(low, 1.0, size=(count, space.size)):
        probes.append(RandomVariable.of(row))
    return tuple(probes)


def tc_gap(
    cu: ConditionalUtility,
    probes,
    check_cones: bool = False,
) -> TimeConsistencyReport:
    """Audit |direct - recomposed| over the probe list.

    With check_cones, every probe with nonnegative direct value also gets a
    cone_decompose verdict (others are skipped; the question is only posed
    for acceptable positions). A non-finite value raises ValueError.
    """
    probes = tuple(probes)
    if not probes:
        raise ValueError("probe list must be nonempty")
    rows = []
    verdicts = []
    max_gap = -1.0
    witness = probes[0]
    for pid, x in enumerate(probes):
        direct = two_period_eval(cu, x)
        recomposed = recompose(cu, x)
        gap = abs(direct - recomposed)
        if not math.isfinite(gap):  # else NaN passes: it never exceeds max_gap
            raise ValueError(f"probe {pid}: non-finite value (direct {direct}, recomposed {recomposed})")
        rows.append((pid, direct, recomposed, gap))
        if gap > max_gap:
            max_gap, witness = gap, x
        if check_cones and direct >= 0.0:
            feasible, _ = _cone_split(cu, x, direct)
            verdicts.append((pid, feasible))
    return TimeConsistencyReport(
        max_gap=max_gap,
        witness=witness,
        per_vector=tuple(rows),
        cone_verdicts=tuple(verdicts),
    )


def core_bound(cu: ConditionalUtility, x: RandomVariable, block) -> float:
    """min{E_Q[x | A] : Q in the dual set of the base, Q(A) > 0} on F1 block A.

    Scenario bases take the minimum over their measures; when none charges
    the block, eta there is unconstrained and the bound is max x on A.
    Distortion bases run Dinkelbach's iteration from t = E_P[x | A] (P lies
    in the core): the greedy vertex Q of (x - t) 1_A minimises
    E_Q[(x - t) 1_A] over the core, so t is the bound once that minimum is
    nonnegative, and otherwise E_Q[x | A] < t is the next t. Each step costs
    one sort and one pass of psi over the outcomes; the iteration also stops
    when t fails to decrease, so float noise cannot make it cycle.
    """
    u, _, mass = cu.conditioned[tuple(block)]
    if cu.base.kind == "scenario":
        on_block = RandomVariable(tuple(x.values[i] for i in block))
        return max(on_block.values) if u is None else scenario_min_eval(on_block, u.scenarios)[0]

    space = cu.space
    inside = set(block)
    t = sum(m * x.values[i] for m, i in zip(mass, block)) / sum(mass)
    while True:
        y = [x.values[i] - t if i in inside else 0.0 for i in range(space.size)]
        order = sorted(range(space.size), key=y.__getitem__, reverse=True)
        q = core_vertex(cu.base.distortion, space, order)
        if sum(float(q[i]) * y[i] for i in block) >= 0.0:
            return t
        t_next = sum(float(q[i]) * x.values[i] for i in block) / sum(float(q[i]) for i in block)
        if t_next >= t:
            return t
        t = t_next


def cone_decompose(
    cu: ConditionalUtility, x: RandomVariable
) -> tuple[bool, tuple[RandomVariable, RandomVariable] | None]:
    """Search for x = eta + zeta with eta F1-measurable acceptable and zeta
    conditionally acceptable on every F1 block.

    zeta is conditionally acceptable on block A exactly when
    eta_A <= E_Q[x | A] for every dual measure Q with Q(A) > 0, so the
    largest admissible eta is core_bound on each block, and acceptability of
    eta is monotone: feasibility is decided by one evaluation of eta at that
    blockwise upper envelope; no general LP machinery is required. For a
    distortion base the bound comes from Dinkelbach's iteration over greedy
    core vertices, a few sorts per block, so no outcome cap applies.
    Returns (feasible, (eta, zeta)) with the witness re-verified, or
    (feasible=False, None).
    """
    return _cone_split(cu, x, two_period_eval(cu, x))


def _cone_split(
    cu: ConditionalUtility, x: RandomVariable, direct: float
) -> tuple[bool, tuple[RandomVariable, RandomVariable] | None]:
    """cone_decompose for a probe whose direct value is already known."""
    if direct < -GAP_TOL:
        raise ValueError(f"not acceptable: u02(x) = {direct}")

    eta_cap = [core_bound(cu, x, block) for block in cu.filtration.f1.blocks]
    eta = RandomVariable.from_block_values(eta_cap, cu.filtration.f1, cu.space.size)
    if cu.base.evaluate(eta, cu.space, cu.filtration) < -1e-12:
        return False, None

    # zeta = x - eta, nudged so eta + zeta reproduces x bit for bit
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


def conditional_commonotone_additivity_check(
    cu: ConditionalUtility, x: RandomVariable, y: RandomVariable
) -> tuple[bool, tuple[float, ...]]:
    """Per-block check of conditional additivity on a commonotone pair.

    Returns (all blocks within 1e-9, per-block gaps), the gaps being
    conditional_eval(x+y) - conditional_eval(x) - conditional_eval(y); by
    blockwise superadditivity they are never materially negative.
    """
    ok, pair = is_commonotone_pair(x, y, cu.space)
    if not ok:
        raise ValueError(f"inputs are not commonotone: outcomes {pair} order oppositely")
    cx = conditional_eval(cu, x)
    cy = conditional_eval(cu, y)
    cxy = conditional_eval(cu, x + y)
    gaps = tuple(
        cxy.values[b[0]] - cx.values[b[0]] - cy.values[b[0]]
        for b in cu.filtration.f1.blocks
    )
    return all(abs(g) <= GAP_TOL for g in gaps), gaps
