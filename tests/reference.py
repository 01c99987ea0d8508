"""Reference implementations that only the tests use.

Each was once a public riskcal name that no command path reached, or the
form of a function that a faster one replaced. They stay here as oracles:
the conditional-mass lemma that find_b's direct cut {rank <= k} must
reproduce at h = k/n, the independence of the uniform grid from F1, the
conditional expectation, relevance, the scenario minimum summed from a
generator, conditional commonotone additivity, and the report parsers that
read what the CLI emits. Every test module imports them as
`from reference import ...`, since pytest puts this directory on sys.path.
"""

from __future__ import annotations

import csv
import io as _stdio
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from riskcal.conditional import GAP_TOL, ConditionalUtility, _block_values
from riskcal.io import SchemaError, _load_json
from riskcal.space import EventSet, Filtration, OutcomeSpace, Partition, RandomVariable, UniformGrid
from riskcal.utility import CoherentUtility, ScenarioSet, is_commonotone_pair

__all__ = [
    "ConditionalMassResult",
    "IndependenceResult",
    "conditional_expectation",
    "set_with_conditional_mass",
    "independence_check",
    "relevance_check",
    "scenario_min_by_generator",
    "conditional_commonotone_additivity_check",
    "parse_report",
    "parse_report_csv",
]


# ---------------------------------------------------------------- space

@dataclass(frozen=True)
class ConditionalMassResult:
    event: EventSet
    achieved: tuple[Fraction, ...]  # conditional mass per F1 block
    snapped: bool


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    max_deviation: Fraction


def conditional_expectation(x: RandomVariable, given: Partition, space: OutcomeSpace) -> RandomVariable:
    """Blockwise mean of x under the exact conditional law; constant on each block."""
    out = [0.0] * space.size
    for block in given.blocks:
        val = sum(float(m) * x.values[i] for m, i in zip(space.given(block).mass, block))
        for i in block:
            out[i] = val
    return RandomVariable(tuple(out))


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


# ---------------------------------------------------------------- utility

def relevance_check(
    u: CoherentUtility, space: OutcomeSpace, filtration: Filtration | None = None
) -> bool:
    """True iff u(-1_A) < 0 for every nonempty event A.

    Monotonicity collapses the full event lattice to singletons: any nonempty
    A contains some {w}, and -1_A <= -1_{w} pointwise, so u(-1_A) <= u(-1_{w}).
    Checking all singletons is therefore exhaustive at every space size. The
    loss -1_{w} keeps the sign exact; the product kind takes nonnegative
    payoffs only, hence u(1 - 1_{w}) - 1 there.
    """
    n = space.size
    shift = 1.0 if u.kind == "product" else 0.0
    for i in range(n):
        x = RandomVariable(tuple(shift - (j == i) for j in range(n)))
        if u.evaluate(x, space, filtration) - shift >= 0.0:
            return False
    return True


def scenario_min_by_generator(x: RandomVariable, s: ScenarioSet) -> tuple[float, int]:
    """scenario_min_eval with each E_Q[x] summed from a generator over zip, the
    form its map over operator.mul replaced: the oracle that it keeps every bit."""
    if len(s.float_rows[0]) != len(x.values):
        raise ValueError(f"measure 0 has {len(s.float_rows[0])} entries for {len(x.values)} outcomes")
    best = float("inf")
    best_idx = -1
    for idx, q in enumerate(s.float_rows):
        e = sum(qi * v for qi, v in zip(q, x.values))
        if e < best:
            best, best_idx = e, idx
    return best, best_idx


# ---------------------------------------------------------------- conditional

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
    cx, cy, cxy = (_block_values(cu, z) for z in (x, y, x + y))
    gaps = tuple(s - a - b for a, b, s in zip(cx, cy, cxy))
    return all(abs(g) <= GAP_TOL for g in gaps), gaps


# ---------------------------------------------------------------- io

def parse_report(text: str) -> dict:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("report must be a JSON object")
    for key in ("command", "seed", "tolerance"):
        if key not in doc:
            raise SchemaError("missing report key", field=key)
    return doc


def parse_report_csv(text: str) -> list[dict]:
    rows = list(csv.reader(_stdio.StringIO(text)))
    if not rows:
        raise SchemaError("empty CSV report")
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]
