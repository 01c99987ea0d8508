"""Commonotone lifts of one-period payoff pairs.

Given F1-measurable payoffs f and g, build a pair of second-period payoffs
(xi, eta) that is commonotone, takes values on the boundary set

    V = {(x, -m): x <= m} u {(m, y): y >= -m},      m = max(|f|, |g|) sup norm,

and reproduces f and g as conditional utilities. Each block's point (f, g)
is written as a convex combination of the two boundary points cut out by
the 45-degree line through it; the mixing weight is then realized as the
conditional utility of an indicator on a uniform-grid set of the right
conditional mass. Everything degrades gracefully when the weight is not
exactly representable on the grid: the achieved weight is reported and all
exactness contracts are stated against it, with the target deviation
carried separately as snap error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conditional import ConditionalUtility, conditional_eval, recompose
from .space import EventSet, RandomVariable, UniformGrid
from .utility import is_commonotone_pair

__all__ = [
    "GeometryPoint",
    "CommonotonePair",
    "LiftDiagnostics",
    "AdditivityProbeReport",
    "geometry_xyl",
    "find_b",
    "lift_pair",
    "additivity_probe",
]

W_TOL = 1e-12


@dataclass(frozen=True)
class GeometryPoint:
    x: float
    y: float

    def in_w(self, m: float) -> bool:
        """Inside the admissible wedge: x <= m and y >= -m, to W_TOL."""
        return self.x <= m + W_TOL and self.y >= -m - W_TOL


@dataclass(frozen=True)
class CommonotonePair:
    """Lift output: the pair itself plus everything needed to audit it; `boundary`
    holds each F1 block's (X, Y) from geometry_xyl, both the origin when m = 0."""

    xi: RandomVariable
    eta: RandomVariable
    b: EventSet
    lambda_target: RandomVariable
    lambda_achieved: RandomVariable
    m: float
    boundary: tuple[tuple[GeometryPoint, GeometryPoint], ...]


@dataclass(frozen=True)
class LiftDiagnostics:
    """Per-block reproduction errors, all against the achieved weights."""

    err_f: tuple[float, ...]
    err_g: tuple[float, ...]
    err_sum: tuple[float, ...]
    snap_error: float
    resolution_used: int


@dataclass(frozen=True)
class AdditivityProbeReport:
    """Additivity defect of the recomposed utility across a lifted pair.

    a_value = u_hat(xi+eta) - u_hat(xi) - u_hat(eta); the f-side values are
    the same combination computed directly on the one-period payoffs, which
    the lift matches up to snap error.
    """

    a_value: float
    u_hat_xi: float
    u_hat_eta: float
    u_hat_sum: float
    u01_f: float
    u01_g: float
    u01_fg: float
    snap_error: float
    pair: CommonotonePair


def geometry_xyl(p: GeometryPoint, m: float) -> tuple[GeometryPoint, GeometryPoint, float]:
    """Intersect the 45-degree line through p with the two halflines of V.

    X = (x-y-m, -m) sits on the horizontal halfline, Y = (m, y+m-x) on the
    vertical one; both coordinates of Y-X equal d = 2m+y-x >= 0. The weight
    lam = (y+m)/d recombines them: lam*Y + (1-lam)*X = p. At the corner
    (m, -m) the line meets V in the single point p, so X = Y = p and lam = 0.
    """
    if m <= 0:
        raise ValueError(f"wedge parameter m must be positive, got {m}")
    if not p.in_w(m):
        raise ValueError(f"point ({p.x}, {p.y}) outside the wedge x <= {m}, y >= {-m}")
    d = (m - p.x) + (p.y + m)
    if d <= 0.0:
        return p, p, 0.0
    # clamp float residue so the halfline memberships are exact, not almost
    big_x = GeometryPoint(min(p.x - p.y - m, m), -m)
    big_y = GeometryPoint(m, max(p.y + m - p.x, -m))
    lam = (p.y + m) / d
    return big_x, big_y, min(max(lam, 0.0), 1.0)


def find_b(
    cu: ConditionalUtility, grid: UniformGrid, lambda_target: RandomVariable
) -> tuple[EventSet, RandomVariable]:
    """Pick the grid set whose conditional indicator utility best matches
    the target weight on every block.

    With a distortion base, the indicator of a set of conditional mass k/n
    has conditional utility psi(k/n); inverting that monotone table is the
    whole search. Ties go to the smaller k.
    """
    if cu.base.kind != "distortion":
        raise ValueError("non-distortion base: indicator utilities have no explicit grid inverse")
    f1 = cu.filtration.f1
    if not lambda_target.is_measurable(f1):
        raise ValueError("lambda_target must be F1-measurable")
    n = grid.resolution
    psi_table = [float(cu.base.distortion.psi(Fraction(k, n))) for k in range(n + 1)]
    member = [False] * cu.space.size
    achieved = [0.0] * cu.space.size
    for block in f1.blocks:
        target = lambda_target.values[block[0]]
        if not -W_TOL <= target <= 1 + W_TOL:  # NaN included
            raise ValueError(f"lambda_target value {target} outside [0, 1]")
        best_k = 0
        best_err = abs(psi_table[0] - target)
        for k in range(1, n + 1):
            err = abs(psi_table[k] - target)
            if err < best_err:
                best_k, best_err = k, err
        for i in block:
            achieved[i] = psi_table[best_k]
            if grid.ranks[i] <= best_k:
                member[i] = True
    return EventSet(tuple(member)), RandomVariable(tuple(achieved))


def lift_pair(
    cu: ConditionalUtility, grid: UniformGrid, f: RandomVariable, g: RandomVariable
) -> tuple[CommonotonePair, LiftDiagnostics]:
    """Build the commonotone pair reproducing (f, g) as conditional utilities.

    Per block: split (f, g) into boundary points X, Y with weight lam, snap
    lam onto the grid through find_b, then assemble xi and eta by choosing Y
    on the chosen set B and X off it. Values are assigned literally from X
    and Y, so V-membership is exact by construction. The conditional
    utilities satisfy, per block and up to float noise,

        u12(xi) = X1 + d*lam_achieved,  u12(xi+eta) = u12(xi) + u12(eta),

    and deviations from f, g themselves are bounded by d times the snap
    error, reported in the diagnostics.
    """
    f1 = cu.filtration.f1
    if not f.is_measurable(f1) or not g.is_measurable(f1):
        raise ValueError("f and g must be F1-measurable")
    if cu.base.kind != "distortion":
        raise ValueError("non-distortion base: lift needs the grid inverse of find_b")
    size = cu.space.size
    m = max(f.sup_norm(), g.sup_norm())
    n_blocks = len(f1.blocks)
    if m == 0.0:
        zero = RandomVariable.constant(0.0, size)
        boundary = ((GeometryPoint(0.0, 0.0),) * 2,) * n_blocks
        pair = CommonotonePair(zero, zero, EventSet.empty(size), zero, zero, 0.0, boundary)
        zeros = (0.0,) * n_blocks
        return pair, LiftDiagnostics(zeros, zeros, zeros, 0.0, grid.resolution)

    xyl = [geometry_xyl(GeometryPoint(f.values[block[0]], g.values[block[0]]), m) for block in f1.blocks]
    boundary = tuple((big_x, big_y) for big_x, big_y, _ in xyl)
    lambda_target = RandomVariable.from_block_values([lam for _, _, lam in xyl], f1, size)
    b, lambda_achieved = find_b(cu, grid, lambda_target)

    xi = [0.0] * size
    eta = [0.0] * size
    for block, (big_x, big_y) in zip(f1.blocks, boundary):
        for i in block:
            point = big_y if b.member[i] else big_x
            xi[i], eta[i] = point.x, point.y
    pair = CommonotonePair(
        xi=RandomVariable(tuple(xi)),
        eta=RandomVariable(tuple(eta)),
        b=b,
        lambda_target=lambda_target,
        lambda_achieved=lambda_achieved,
        m=m,
        boundary=boundary,
    )

    u_xi = conditional_eval(cu, pair.xi)
    u_eta = conditional_eval(cu, pair.eta)
    u_sum = conditional_eval(cu, pair.xi + pair.eta)
    err_f, err_g, err_sum = [], [], []
    snap = 0.0
    for block in f1.blocks:
        i = block[0]
        err_f.append(abs(u_xi.values[i] - f.values[i]))
        err_g.append(abs(u_eta.values[i] - g.values[i]))
        err_sum.append(abs(u_sum.values[i] - f.values[i] - g.values[i]))
        snap = max(snap, abs(lambda_target.values[i] - lambda_achieved.values[i]))
    diag = LiftDiagnostics(
        err_f=tuple(err_f),
        err_g=tuple(err_g),
        err_sum=tuple(err_sum),
        snap_error=snap,
        resolution_used=grid.resolution,
    )
    return pair, diag


def additivity_probe(
    cu: ConditionalUtility, grid: UniformGrid, f: RandomVariable, g: RandomVariable
) -> AdditivityProbeReport:
    """Lift (f, g) and measure the additivity defect of the recomposition.

    The lifted pair is commonotone by construction, so a nonzero defect
    certifies that the recomposed utility is not additive even on
    commonotone pairs; with a linear base the defect vanishes.
    """
    pair, diag = lift_pair(cu, grid, f, g)
    u_hat_xi = recompose(cu, pair.xi)
    u_hat_eta = recompose(cu, pair.eta)
    u_hat_sum = recompose(cu, pair.xi + pair.eta)
    u01_f = cu.base.evaluate(f, cu.space, cu.filtration)
    u01_g = cu.base.evaluate(g, cu.space, cu.filtration)
    u01_fg = cu.base.evaluate(f + g, cu.space, cu.filtration)
    ok, witness = is_commonotone_pair(pair.xi, pair.eta, cu.space)
    if not ok:  # cannot happen for V-valued pairs; guard stays anyway
        raise AssertionError(f"lift produced a non-commonotone pair, witness {witness}")
    return AdditivityProbeReport(
        a_value=u_hat_sum - u_hat_xi - u_hat_eta,
        u_hat_xi=u_hat_xi,
        u_hat_eta=u_hat_eta,
        u_hat_sum=u_hat_sum,
        u01_f=u01_f,
        u01_g=u01_g,
        u01_fg=u01_fg,
        snap_error=diag.snap_error,
        pair=pair,
    )
