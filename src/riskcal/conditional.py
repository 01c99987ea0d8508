"""Conditional utilities, recomposition, and time-consistency audits.

The one-period conditional utility of x given F1 is computed block by
block: CoherentUtility.given restricts the base to the block's conditional
law, once per block for a ConditionalUtility, and CoherentUtility.evaluate
applies it there to each payoff, the path of the direct value; where no
scenario measure charges a block, the conditional expectation stands in,
and ConditionalUtility.fallbacks lists that block, whatever the payoff.
Recomposition feeds the resulting F1-measurable payoff back through the
base utility; the absolute gap between the direct two-period value and the
recomposed one is the time-inconsistency certificate this module reports.
A distortion base values an F1-measurable payoff on the F1 quotient, one
outcome per block with its exact mass, which gives the full-space Choquet
value bit for bit; a scenario base values it on the outcomes, since lumping
float rows would move last bits.

The cone test asks the same question in decomposition form: an acceptable
x splits as x = eta + zeta with eta F1-measurable acceptable today and
zeta conditionally acceptable on every block. Monotonicity collapses that
search to one question, whether eta capped at the core bound
min{E_Q[x | A] : Q in the dual set, Q(A) > 0} on each block A is
acceptable, so no LP solver is needed; tc_gap's verdict asks only that,
and cone_decompose alone builds the witness, zeta = x - eta being
conditionally acceptable by construction and nudged so that
eta + zeta == x bit for bit. For a scenario base the bound is the minimum
over its measures conditioned on the block. For a distortion base the dual
set is the core of psi(P), and the bound is a linear-fractional program over it,
solved by Dinkelbach's method (Dinkelbach 1967): each step takes the greedy
core vertex of (x - t) 1_A, which minimises E_Q over the core, and moves t
down to its conditional mean, so no core vertex is enumerated and no
outcome cap applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .space import Filtration, OutcomeSpace, Partition, RandomVariable, _non_positive_masses
from .utility import CoherentUtility, _marginal_numerators

__all__ = [
    "ConditionalUtility",
    "TimeConsistencyReport",
    "conditional_eval",
    "blockwise_eval",
    "recompose",
    "tc_gap",
    "core_bound",
    "cone_decompose",
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


@dataclass(frozen=True)
class ConditionalUtility:
    """A base utility bound to a space of positive masses (a mass <= 0 is
    refused with validate's line) and a two-period filtration whose F1 blocks
    partition the outcomes. Built on first use, so that no probe conditions a
    block again: `conditioned`, CoherentUtility.given's (utility, law,
    fallback) per F1 block; `fallbacks`, the indices of the blocks where
    no scenario measure charges the block and the expectation stands in; and
    `quotient`, one outcome per F1 block, in f1.blocks order, with its exact mass."""

    base: CoherentUtility
    space: OutcomeSpace
    filtration: Filtration

    def __post_init__(self):
        if self.base.kind == "product":
            raise ValueError(
                "conditional evaluation needs a distortion or scenario base; "
                "the product-grid utility is a two-period object only"
            )
        blocks, n = self.filtration.f1.blocks, self.space.size
        if not all(blocks) or sorted(i for b in blocks for i in b) != list(range(n)):
            raise ValueError(f"the F1 blocks must be nonempty and hold each of the {n} outcomes exactly once")
        if non_positive := _non_positive_masses(self.space):
            raise ValueError(non_positive[0])
        self.base.check_space(self.space, self.filtration)

    @cached_property
    def conditioned(self) -> dict[tuple[int, ...], tuple[CoherentUtility, OutcomeSpace, bool]]:
        return {b: self.base.given(self.space, b) for b in self.filtration.f1.blocks}

    @cached_property
    def fallbacks(self) -> tuple[int, ...]:
        return tuple(j for j, (_, _, fallback) in enumerate(self.conditioned.values()) if fallback)

    @cached_property
    def quotient(self) -> OutcomeSpace:
        blocks = self.filtration.f1.blocks
        return OutcomeSpace(tuple(f"b{j}" for j in range(len(blocks))), tuple(map(self.space.mass_of, blocks)))


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
    return conditional_eval(cu, x), cu.fallbacks


def conditional_eval(cu: ConditionalUtility, x: RandomVariable) -> RandomVariable:
    """One-period conditional utility of x given F1 (blockwise base evaluation)."""
    return RandomVariable.from_block_values(_block_values(cu, x), cu.filtration.f1, cu.space.size)


def _block_values(cu: ConditionalUtility, x: RandomVariable) -> list[float]:
    """The conditional utility of x on each F1 block, in f1.blocks order; a
    fallback block evaluates the expectation that cu.conditioned put there."""
    if len(x.values) != cu.space.size:
        raise ValueError(f"payoff has {len(x.values)} entries for {cu.space.size} outcomes")
    return [u.evaluate(RandomVariable(tuple(x.values[i] for i in block)), law)
            for block, (u, law, _) in cu.conditioned.items()]


def _measurable_value(cu: ConditionalUtility, values) -> float:
    """Today's utility of the F1-measurable payoff worth values[j] on block j.

    A distortion base integrates over `quotient`: the Choquet tie table sums
    the same exact masses over the same distinct levels as on the outcomes,
    so the value is the full-space one bit for bit. A scenario base
    evaluates on the outcomes, where its float rows are summed as they are.
    """
    if cu.base.kind == "distortion":
        return cu.base.evaluate(RandomVariable(tuple(values)), cu.quotient)
    x = RandomVariable.from_block_values(values, cu.filtration.f1, cu.space.size)
    return cu.base.evaluate(x, cu.space, cu.filtration)


def recompose(cu: ConditionalUtility, x: RandomVariable) -> float:
    """Today's utility of the conditional utility.

    The intermediate payoff is F1-measurable, so a distortion base evaluates
    it on the quotient space of blocks, one outcome per block, with the value
    it has on the full space bit for bit; a scenario base evaluates it on the
    full space.
    """
    return _measurable_value(cu, _block_values(cu, x))


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
    (or [0, 1]^n for utilities defined on nonnegative payoffs only). The
    draws turn into Python floats once, by one tolist() of the whole array."""
    import numpy as np  # here, so that importing riskcal does not load numpy

    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0 if nonnegative else -1.0, 1.0, size=(count, space.size)).tolist()
    return (crafted_ladder(space), *(RandomVariable(tuple(row)) for row in draws))


def tc_gap(
    cu: ConditionalUtility,
    probes,
    check_cones: bool = False,
) -> TimeConsistencyReport:
    """Audit |direct - recomposed| over the probe list.

    With check_cones, every probe with nonnegative direct value also gets
    cone_decompose's verdict, building no witness (only acceptable positions
    pose the question). A non-finite value raises ValueError.
    """
    probes = tuple(probes)
    if not probes:
        raise ValueError("probe list must be nonempty")
    rows = []
    verdicts = []
    max_gap = -1.0
    witness = probes[0]
    for pid, x in enumerate(probes):
        direct = cu.base.evaluate(x, cu.space, cu.filtration)
        recomposed = recompose(cu, x)
        gap = abs(direct - recomposed)
        if not math.isfinite(gap):  # else NaN passes: it never exceeds max_gap
            raise ValueError(f"probe {pid}: non-finite value (direct {direct}, recomposed {recomposed})")
        rows.append((pid, direct, recomposed, gap))
        if gap > max_gap:
            max_gap, witness = gap, x
        if check_cones and direct >= 0.0:
            verdicts.append((pid, _acceptable_cap(cu, x) is not None))
    return TimeConsistencyReport(
        max_gap=max_gap,
        witness=witness,
        per_vector=tuple(rows),
        cone_verdicts=tuple(verdicts),
    )


def core_bound(cu: ConditionalUtility, x: RandomVariable, block) -> float:
    """min{E_Q[x | A] : Q in the dual set of the base, Q(A) > 0} on F1 block A.

    Scenario bases take the minimum over their measures conditioned on A;
    when none charges the block, eta there is unconstrained and the bound is
    max x on A. Distortion bases run Dinkelbach's iteration from
    t = E_P[x | A] under the exact conditional law (P lies in the core): the
    greedy vertex Q of (x - t) 1_A minimises E_Q[(x - t) 1_A] over the core,
    so t is the bound once E_Q[x | A] >= t, and otherwise E_Q[x | A] is the
    next t. Q comes from psi_at on the space's integer weights and enters
    through its conditional weights q_i / Q(A), one int / int ratio each for
    the rational kinds, so a block whose mass underflows float64 is bounded
    as exactly as any other; a float psi (power, piecewise) cannot see such
    a mass, gives Q(A) = 0 and leaves t at E_P[x | A]. Each step costs one
    sort and one pass of psi over the outcomes; t strictly decreases through
    values of finitely many vertices, so float noise cannot make it cycle.
    """
    u, law, fallback = cu.conditioned[tuple(block)]
    on_block = RandomVariable(tuple(x.values[i] for i in block))
    if cu.base.kind == "scenario":
        return max(on_block.values) if fallback else u.evaluate(on_block, law)

    space = cu.space
    inside = set(block)
    t = sum(m / law.scale * v for m, v in zip(law.weights, on_block.values))
    while True:
        y = [x.values[i] - t if i in inside else 0.0 for i in range(space.size)]
        order = sorted(range(space.size), key=y.__getitem__, reverse=True)
        q = _marginal_numerators(cu.base.distortion, space, order)[0]
        q_block = sum(q[i] for i in block)
        if not q_block:
            return t
        t_next = sum(q[i] / q_block * v for i, v in zip(block, on_block.values))
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
    blockwise upper envelope, as in tc_gap's verdict; no LP is needed. For a
    distortion base the bound comes from Dinkelbach's iteration over greedy
    core vertices, a few sorts per block, so no outcome cap applies.
    Returns (True, (eta, zeta)) when eta is acceptable, zeta = x - eta being
    conditionally acceptable by construction and nudged so that
    eta + zeta == x bit for bit, or (False, None).
    """
    direct = cu.base.evaluate(x, cu.space, cu.filtration)
    if direct < -GAP_TOL:
        raise ValueError(f"not acceptable: u02(x) = {direct}")
    eta_cap = _acceptable_cap(cu, x)
    if eta_cap is None:
        return False, None
    eta = RandomVariable.from_block_values(eta_cap, cu.filtration.f1, cu.space.size)

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


def _acceptable_cap(cu: ConditionalUtility, x: RandomVariable) -> list[float] | None:
    """core_bound on each F1 block, the largest admissible eta, when that
    F1-measurable cap is acceptable today, and None when it is not."""
    eta_cap = [core_bound(cu, x, block) for block in cu.filtration.f1.blocks]
    return None if _measurable_value(cu, eta_cap) < -1e-12 else eta_cap
