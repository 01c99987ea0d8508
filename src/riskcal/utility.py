"""Coherent monetary utility functions on finite outcome spaces.

Three utility kinds, each with one evaluation path, CoherentUtility.evaluate:

* distortion (Choquet) utilities u(x) = integral of x against v = psi(P),
  psi convex with psi(0)=0, psi(1)=1, its formula written once in psi_at;
  the expectation is additive, its psi differences exactly its tie masses;
* scenario-set duals u(x) = min over finitely many measures Q of E_Q[x];
* a two-layer product-grid example where the distortion exponent varies
  with the row coordinate.

CoherentUtility.check_space tests that a utility fits a space; given
restricts a distortion or scenario utility to one block's conditional law,
where the same evaluate gives conditional values. Scenario rows condition
exactly as P does and turn float once (float_rows) for scenario_min_eval.

Distortion and scenario evaluations agree through the core of the convex
game v: every core vertex is the marginal vector of v along some outcome
order (core_vertex, built on the space's integer weights through psi_at),
and the Choquet value is the expectation under the vertex along descending
payoff, the minimum over the core. core_extreme_points enumerates all n!
orders, a reference only: the duality check and the test oracle of the
Dinkelbach core bound use it, and no command path calls it.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Union

from .space import Filtration, OutcomeSpace, RandomVariable, _as_fraction, _part_type, product_space

__all__ = [
    "DistortionFunction",
    "ScenarioSet",
    "CoherentUtility",
    "choquet_eval",
    "scenario_min_eval",
    "core_vertex",
    "core_extreme_points",
    "product_example_eval",
    "product_grid_rows",
    "is_commonotone_pair",
]

Scalar = Union[Fraction, float]

# power and piecewise psi are floats, good to about 1e-12; expectation and es are exact
FLOAT_PSI_TOL = 1e-12
_ZERO = Fraction(0)  # Fractions are immutable, so every exact sum may start from this one


@dataclass(frozen=True)
class DistortionFunction:
    """Convex distortion psi: [0,1] -> [0,1] with psi(0)=0 and psi(1)=1.

    kind is one of "expectation", "es", "power", "piecewise". psi_at holds every
    kind's formula and psi is its exact view; power and piecewise psi are floats.
    """

    kind: str
    alpha: Scalar | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind == "expectation":
            pass
        elif self.kind == "es":
            a = self.alpha
            if not isinstance(a, Fraction) or not 0 < a <= 1:
                raise ValueError(f"es level must be a rational in (0, 1], got {a!r}")
            if not isinstance(a.numerator, int) or not isinstance(a.denominator, int):
                raise ValueError(f"es level {a!r} has a {_part_type(a)} part, not int parts")
        elif self.kind == "power":
            a = self.alpha
            if not isinstance(a, float) or not 0.0 <= a <= 1.0:
                raise ValueError(f"power exponent offset must be a float in [0, 1], got {a!r}")
        elif self.kind == "piecewise":
            k = self.knots
            if not k or len(k) < 2:
                raise ValueError("piecewise distortion needs at least two knots")
            if not all(math.isfinite(v) for knot in k for v in knot):
                raise ValueError("piecewise knots must be finite numbers")
            if k[0] != (0.0, 0.0) or k[-1] != (1.0, 1.0):
                raise ValueError("piecewise knots must run from (0, 0) to (1, 1)")
            slopes = []
            for (p0, y0), (p1, y1) in zip(k, k[1:]):
                if p1 <= p0:
                    raise ValueError(f"piecewise knot abscissae must increase, got {p0} then {p1}")
                if y1 < y0:
                    raise ValueError("piecewise distortion must be nondecreasing")
                slopes.append((y1 - y0) / (p1 - p0))
            for s0, s1 in zip(slopes, slopes[1:]):
                if s1 < s0 - FLOAT_PSI_TOL:
                    raise ValueError("piecewise distortion must be convex (nondecreasing slopes)")
        else:
            raise ValueError(f"unknown distortion kind {self.kind!r}")

    @classmethod
    def expectation(cls) -> "DistortionFunction":
        return cls("expectation")

    @classmethod
    def es(cls, alpha) -> "DistortionFunction":
        """Average over the worst alpha-tail: psi(p) = max(0, (p-(1-alpha))/alpha)."""
        return cls("es", alpha=_as_fraction(alpha))

    @classmethod
    def power(cls, alpha: float) -> "DistortionFunction":
        """psi(p) = p^(1+alpha), alpha in [0, 1]."""
        return cls("power", alpha=float(alpha))

    @classmethod
    def piecewise(cls, knots) -> "DistortionFunction":
        return cls("piecewise", knots=tuple((float(p), float(y)) for p, y in knots))

    def psi(self, p: Scalar) -> Scalar:
        """psi(p): the exact view of psi_at at p taken exactly, an int or float p too."""
        if self.kind == "expectation":
            return p
        p = p if isinstance(p, Fraction) else Fraction(p)
        num, den = self.psi_at(p.numerator, p.denominator)
        return num if den is None else (Fraction(num, den) if num else _ZERO)

    def psi_at(self, s: int, w: int) -> tuple[int, int] | tuple[float, None]:
        """psi(s / w) for integers s >= 0, w > 0, each kind's one formula: ints (num, den)
        for the rational kinds, es(a/b) giving max(0, b*s - (b-a)*w) over a*w; for
        power and piecewise the float psi at the correctly rounded s / w, and None."""
        if self.kind == "expectation":
            return s, w
        if self.kind == "es":
            a, b = self.alpha.numerator, self.alpha.denominator
            return max(0, b * s - (b - a) * w), a * w
        p = s / w
        if self.kind == "power":
            return p ** (1 + self.alpha), None
        j = min(bisect_right(self.knots, p, key=lambda knot: knot[0]), len(self.knots) - 1)
        (p0, y0), (p1, y1) = self.knots[j - 1], self.knots[j]
        return y0 + (y1 - y0) * (p - p0) / (p1 - p0), None

    def describe(self) -> str:
        if self.kind == "expectation":
            return "expectation"
        if self.kind == "es":
            return f"es({self.alpha})"
        if self.kind == "power":
            return f"power({self.alpha})"
        return f"piecewise[{len(self.knots)} knots]"


@dataclass(frozen=True)
class ScenarioSet:
    """Finite dual set: probability vectors over the outcomes, in a fixed order.

    Each measure is checked however the set is built, through `of` or not,
    its length against measure 0's first."""

    measures: tuple[tuple[Scalar, ...], ...]

    @cached_property
    def float_rows(self) -> tuple[tuple[float, ...], ...]:
        """The measures in float, built once; equality and hash stay on `measures`."""
        return tuple(tuple(float(v) for v in q) for q in self.measures)

    def __post_init__(self):
        for idx, row in enumerate(self.measures):
            if len(row) != len(self.measures[0]):
                raise ValueError(f"measure {idx} has {len(row)} entries, measure 0 has {len(self.measures[0])}")
        rows = []
        for idx, row in enumerate(self.measures):
            if not all(isinstance(v, (Fraction, int)) or math.isfinite(v) for v in row):
                raise ValueError(f"measure {idx} has a non-finite entry")
            total = sum(row)
            exact = all(isinstance(v, (Fraction, int)) for v in row)
            if (exact and total != 1) or (not exact and abs(float(total) - 1.0) > 1e-9):
                raise ValueError(f"measure {idx} sums to {total}, not 1")
            if any(v < 0 if isinstance(v, (Fraction, int)) else v < -1e-12 for v in row):
                raise ValueError(f"measure {idx} has a negative entry")
            # a float entry in the slack [-1e-12, 0) is stored as 0.0: given divides by block masses as small
            rows.append(tuple(v if isinstance(v, (Fraction, int)) or v >= 0 else 0.0 for v in row))
        if not rows:
            raise ValueError("scenario set must be nonempty")
        object.__setattr__(self, "measures", tuple(rows))

    @classmethod
    def of(cls, measures) -> "ScenarioSet":
        return cls(tuple(tuple(q) for q in measures))

    @property
    def size(self) -> int:
        return len(self.measures)

    def given(self, block) -> "ScenarioSet | None":
        """The measures whose mass on `block`, summed from its stored entries, is
        positive, each divided by it as OutcomeSpace.given divides P: exact rows
        stay exact, float_rows rounds each once; None if no measure charges it."""
        rows = []
        for q in self.measures:
            total = sum(q[i] for i in block)
            if total > 0:
                rows.append(tuple(q[i] / total for i in block))
        return ScenarioSet(tuple(rows)) if rows else None


@dataclass(frozen=True)
class CoherentUtility:
    """Tagged union over the three evaluation routes.

    kind: "distortion" | "scenario" | "product", any other refused, as is a product
    grid size below 1. Only the fields of the active variant are populated.
    """

    kind: str
    distortion: DistortionFunction | None = None
    scenarios: ScenarioSet | None = None
    k_alpha: int = 0
    k_x: int = 0

    def __post_init__(self):
        if self.kind not in ("distortion", "scenario", "product"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "product" and (self.k_alpha < 1 or self.k_x < 1):
            raise ValueError("product grid sizes must be positive")

    @classmethod
    def from_distortion(cls, psi: DistortionFunction) -> "CoherentUtility":
        return cls("distortion", distortion=psi)

    @classmethod
    def from_scenarios(cls, s: ScenarioSet) -> "CoherentUtility":
        return cls("scenario", scenarios=s)

    @classmethod
    def product_example(cls, k_alpha: int, k_x: int) -> "CoherentUtility":
        return cls("product", k_alpha=k_alpha, k_x=k_x)

    def check_space(self, space: OutcomeSpace, filtration: Filtration | None = None) -> None:
        """Raise ValueError unless this utility evaluates payoffs on `space`: a scenario set's measure 0, so
        every measure, has one entry per outcome; a product's `space` is its grid; a distortion fits any."""
        if self.kind == "scenario" and len(q := self.scenarios.measures[0]) != space.size:
            raise ValueError(f"measure 0 has {len(q)} entries for {space.size} outcomes")
        if self.kind == "product":
            product_grid_rows(self.k_alpha, self.k_x, space, filtration)

    def given(self, space: OutcomeSpace, block) -> tuple["CoherentUtility", OutcomeSpace, bool]:
        """(utility on `block`, its exact conditional law, fallback): where no
        scenario measure charges the block, the expectation stands in, flagged."""
        if self.kind == "product":
            raise ValueError("the product-grid utility has no conditional form on one block")
        law = space.given(block)
        if self.kind == "distortion":
            return self, law, False
        conditioned = self.scenarios.given(block)
        if conditioned is None:
            return CoherentUtility.from_distortion(DistortionFunction.expectation()), law, True
        return CoherentUtility.from_scenarios(conditioned), law, False

    def evaluate(self, x: RandomVariable, space: OutcomeSpace | None, filtration: Filtration | None = None) -> float:
        if self.kind == "distortion":
            return choquet_eval(x, self.distortion, space)
        if self.kind == "scenario":
            return scenario_min_eval(x, self.scenarios)[0]
        return product_example_eval(x, self.k_alpha, self.k_x, space, filtration)

    def describe(self) -> str:
        if self.kind == "distortion":
            return self.distortion.describe()
        if self.kind == "scenario":
            return f"scenario[{self.scenarios.size}]"
        return f"product({self.k_alpha}x{self.k_x})"


def choquet_eval(x: RandomVariable, psi: DistortionFunction, space: OutcomeSpace) -> float:
    """Choquet integral of x against the capacity psi(P[.]).

    Sort formula on descending values: sum of x_(k) * (psi(s_k) - psi(s_{k-1}))
    with s_k the cumulative mass of the top k outcomes. Equal values are merged
    before psi is applied, so the result cannot depend on tie order; a Fraction
    addition happens only on a tie. The expectation is additive, psi(s) = s, so a
    level's weight is float(its tie mass): the psi difference exactly, same bits.
    """
    if len(x.values) != space.size:
        raise ValueError(f"payoff has {len(x.values)} entries for {space.size} outcomes")
    mass_at: dict[float, Scalar] = {}
    for v, m in zip(x.values, space.mass):
        mass_at[v] = mass_at[v] + m if v in mass_at else m
    total = 0.0
    if psi.kind == "expectation":
        for v in sorted(mass_at, reverse=True):
            total += v * float(mass_at[v])
        return total
    s = _ZERO
    prev = 0  # psi(0) = 0 for every kind, so psi runs once per distinct payoff level
    for v in sorted(mass_at, reverse=True):
        s += mass_at[v]
        cur = psi.psi(s)
        total += v * float(cur - prev)
        prev = cur
    return total


def scenario_min_eval(x: RandomVariable, s: ScenarioSet) -> tuple[float, int]:
    """Min over the listed measures of E_Q[x], ties to the lowest index; measure 0's length is checked once.

    Each E_Q[x] is sum(map(mul, q, x)): the same products, summed left to
    right by sum's one float path whatever the iterable, so it keeps the bits
    of a generator over zip and leaves out its per-entry interpreter frame.
    """
    if len(s.float_rows[0]) != len(x.values):
        raise ValueError(f"measure 0 has {len(s.float_rows[0])} entries for {len(x.values)} outcomes")
    best = float("inf")
    best_idx = -1
    values = x.values
    for idx, q in enumerate(s.float_rows):
        e = sum(map(operator.mul, q, values))
        if e < best:
            best, best_idx = e, idx
    return best, best_idx


def core_vertex(psi: DistortionFunction, space: OutcomeSpace, order) -> tuple[Scalar, ...]:
    """Marginal vector of the convex game v = psi(P) along an outcome order.

    The outcome added in step i receives v(first i) - v(first i-1), with
    the cumulative masses kept exact. Along an order of descending payoff
    this core measure attains the Choquet value, the minimum of E_Q over the
    core (Shapley 1971; Schmeidler 1986). Exact view of _marginal_numerators.
    """
    q, den = _marginal_numerators(psi, space, order)
    return tuple(d if den is None else Fraction(d, den) for d in q)


def _marginal_numerators(psi: DistortionFunction, space: OutcomeSpace, order) -> tuple[list, int | None]:
    """core_vertex as (numerators, den) from the space's integer weights: ints
    over den for the rational kinds, the float marginals and None otherwise."""
    weights, w = space.weights, space.scale
    s = 0
    prev, den = psi.psi_at(s, w)
    q: list = [0] * space.size
    for i in order:
        s += weights[i]
        cur = psi.psi_at(s, w)[0]
        q[i] = cur - prev
        prev = cur
    return q, den


def core_extreme_points(psi: DistortionFunction, space: OutcomeSpace, cap: int = 8) -> ScenarioSet:
    """Extreme points of the core of the convex game v = psi(P).

    One core_vertex per outcome permutation. Duplicates are removed and the
    result is sorted lexicographically, a canonical order independent of
    enumeration schedule. Factorial blow-up, hence the hard cap: this is the
    reference enumeration, not a command path.
    """
    n = space.size
    if n > cap:
        raise ValueError(f"space too large: {n} outcomes exceeds cap {cap}")
    seen = {core_vertex(psi, space, perm) for perm in itertools.permutations(range(n))}
    return ScenarioSet(tuple(sorted(seen)))


def product_grid_rows(
    k_alpha: int, k_x: int, space: OutcomeSpace, filtration: Filtration | None = None
) -> tuple[tuple[int, ...], ...]:
    """The rows of the uniform (k_alpha x k_x) grid `space`: its F1 blocks, or
    product_space's rows without a filtration; ValueError if it is not one.
    Uniformity is read on the space's cached integer scale and weights: every
    mass is 1/n exactly when the scale is n and every weight is 1."""
    n = k_alpha * k_x
    if space.size != n:
        raise ValueError(f"product grid mismatch: {space.size} outcomes, expected {k_alpha}x{k_x}={n}")
    if space.scale != n or space.weights != (1,) * n:
        raise ValueError("product grid mismatch: masses must be uniform")
    if filtration is None:
        filtration = product_space(k_alpha, k_x)[1]
    rows = filtration.f1.blocks
    if len(rows) != k_alpha or any(len(b) != k_x for b in rows):
        raise ValueError(f"product grid mismatch: F1 must have {k_alpha} blocks of {k_x} outcomes")
    return rows


def product_example_eval(
    x: RandomVariable,
    k_alpha: int,
    k_x: int,
    space: OutcomeSpace,
    filtration: Filtration | None = None,
) -> float:
    """Two-layer utility on a uniform (k_alpha x k_x) product grid.

    Each F1 block is a row with its own power distortion p^(1+alpha_row),
    alpha_row the midpoint (r+1/2)/k_alpha; the outer integral over rows is
    the midpoint rule with uniform weights. Defined for nonnegative payoffs
    only. The grid is checked on every call; the row law and the row
    distortions are built once per (k_alpha, k_x).
    """
    rows = product_grid_rows(k_alpha, k_x, space, filtration)
    if len(x.values) != space.size:
        raise ValueError(f"payoff has {len(x.values)} entries for {space.size} outcomes")
    if any(v < 0 for v in x.values):
        raise ValueError("example defined for ξ ≥ 0")
    row_space, row_psis = _product_rows(k_alpha, k_x)
    total = 0.0
    for block, psi in zip(rows, row_psis):
        total += choquet_eval(RandomVariable(tuple(x.values[i] for i in block)), psi, row_space)
    return total / k_alpha


@cache
def _product_rows(k_alpha: int, k_x: int) -> tuple[OutcomeSpace, tuple[DistortionFunction, ...]]:
    """The uniform row law and each row's power distortion of a (k_alpha x k_x) grid."""
    return OutcomeSpace.uniform(k_x), tuple(DistortionFunction.power((r + 0.5) / k_alpha) for r in range(k_alpha))


def is_commonotone_pair(
    x: RandomVariable, y: RandomVariable, space: OutcomeSpace
) -> tuple[bool, tuple[int, int] | None]:
    """True iff (x(w)-x(w'))*(y(w)-y(w')) >= 0 for every outcome pair.

    All outcomes carry positive mass by the space invariant, so every pair
    counts. On failure returns the first violating pair in index order.
    """
    n = space.size
    for i in range(n):
        xi, yi = x.values[i], y.values[i]
        for j in range(i + 1, n):
            if (xi - x.values[j]) * (yi - y.values[j]) < 0:
                return False, (i, j)
    return True, None
