"""Acceptance gate: the nine shipped guarantees, one pass/fail line each.

Every test prints exactly one line, ACCEPTANCE <k> <name>: PASS/FAIL, with
the headline numbers in parentheses. Tolerances are 1e-9 absolute unless a
criterion pins a coarser bound; runtime budgets are asserted where stated.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from riskcal import (
    CoherentUtility,
    ConditionalUtility,
    DistortionFunction,
    Filtration,
    GeometryPoint,
    OutcomeSpace,
    RandomVariable,
    additivity_probe,
    build_uniform_grid,
    choquet_eval,
    cone_decompose,
    conditional_eval,
    core_extreme_points,
    crafted_ladder,
    default_probes,
    geometry_xyl,
    is_commonotone_pair,
    lift_pair,
    product_space,
    tc_gap,
)
from riskcal.io import load_space_file, load_utility_file, packaged_data_path
from reference import independence_check

TOL = 1e-9
SEED = 1729


def data(name: str) -> str:
    return str(packaged_data_path(name))


@contextmanager
def criterion(num: int, name: str, info: dict):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({info.get('detail', 'ok')})")


def in_v(xv: float, ev: float, m: float) -> bool:
    return (ev == -m and xv <= m) or (xv == m and ev >= -m)


# 1. Coherence axiom suite ---------------------------------------------------

def test_acceptance_1_coherence_axioms():
    info = {}
    with criterion(1, "coherence-axioms", info):
        start = time.monotonic()
        space, filt = load_space_file(data("space_8.json"))
        utilities = [
            load_utility_file(data("utility_expectation.json")),
            load_utility_file(data("utility_es_quarter.json")),
            load_utility_file(data("utility_es_half.json")),
            load_utility_file(data("utility_power_half.json")),
            load_utility_file(data("utility_scenario.json")),
            CoherentUtility.product_example(2, 4),  # product sized to this space
        ]
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for u in utilities:
            ev = lambda z: u.evaluate(z, space, filt)
            low = 0.0 if u.kind == "product" else -1.0
            worst = max(worst, abs(ev(RandomVariable.constant(0.0, 8))))
            for _ in range(500):
                x = RandomVariable.of(rng.uniform(low, 1.0, 8))
                y = RandomVariable.of(rng.uniform(low, 1.0, 8))
                bump = RandomVariable.of(rng.uniform(0.0, 1.0, 8))
                c = float(rng.uniform(0.0, 1.0))
                lam = float(rng.uniform(0.0, 2.0))
                ux, uy = ev(x), ev(y)
                worst = max(worst, ux - ev(x + bump))                     # monotone
                worst = max(worst, abs(ev(x + RandomVariable.constant(c, 8)) - ux - c))
                worst = max(worst, abs(ev(x * lam) - lam * ux))           # homogeneous
                worst = max(worst, ux + uy - ev(x + y))                   # superadditive
        elapsed = time.monotonic() - start
        assert worst <= TOL
        assert elapsed < 5.0
        info["detail"] = f"6 utilities x 500 probes, worst violation {worst:.2e}, {elapsed:.2f}s"


# 2. Choquet-core duality oracle ---------------------------------------------

def test_acceptance_2_choquet_core_duality():
    info = {}
    with criterion(2, "choquet-core-duality", info):
        start = time.monotonic()
        space4, _ = load_space_file(data("space_4.json"))
        spaces = [
            OutcomeSpace.uniform(2),
            OutcomeSpace.uniform(3),
            space4,
            OutcomeSpace.from_masses([(k, 15) for k in range(1, 6)]),
            OutcomeSpace.uniform(6),
        ]
        distortions = [
            DistortionFunction.expectation(),
            DistortionFunction.es((1, 2)),
            DistortionFunction.es((1, 4)),
            DistortionFunction.es((2, 3)),
            DistortionFunction.power(0.5),
            DistortionFunction.power(1.0),
            DistortionFunction.piecewise([(0, 0), (0.5, 0.25), (1, 1)]),
        ]
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for space in spaces:
            probes = rng.uniform(-1.0, 1.0, size=(500, space.size))
            for dist in distortions:
                core = core_extreme_points(dist, space)
                m = np.array([[float(v) for v in q] for q in core.measures])
                dual_min = (probes @ m.T).min(axis=1)
                for row, want in zip(probes, dual_min):
                    got = choquet_eval(RandomVariable.of(row), dist, space)
                    worst = max(worst, abs(got - want))
        elapsed = time.monotonic() - start
        assert worst <= TOL
        assert elapsed < 30.0
        info["detail"] = f"5 spaces x 7 distortions x 500 probes, worst gap {worst:.2e}, {elapsed:.1f}s"


# 3. Commonotone additivity --------------------------------------------------

def _monotone_transform(rng, z):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return float(rng.uniform(0.0, 2.0)) * z + float(rng.uniform(-1.0, 1.0))
    if kind == 1:
        return np.maximum(z, float(rng.uniform(-0.5, 0.5)))
    if kind == 2:
        return np.minimum(z, float(rng.uniform(-0.5, 0.5)))
    return z ** 3


def test_acceptance_3_commonotone_additivity():
    info = {}
    with criterion(3, "commonotone-additivity", info):
        space = OutcomeSpace.uniform(8)
        distortions = [
            DistortionFunction.expectation(),
            DistortionFunction.es((1, 4)),
            DistortionFunction.es((1, 2)),
            DistortionFunction.power(0.5),
            DistortionFunction.piecewise([(0, 0), (0.5, 0.25), (1, 1)]),
        ]
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(200):
            z = rng.uniform(-1.0, 1.0, 8)
            x = RandomVariable.of(_monotone_transform(rng, z))
            y = RandomVariable.of(_monotone_transform(rng, z))
            ok, _ = is_commonotone_pair(x, y, space)
            assert ok
            for dist in distortions:
                gap = abs(
                    choquet_eval(x + y, dist, space)
                    - choquet_eval(x, dist, space)
                    - choquet_eval(y, dist, space)
                )
                worst = max(worst, gap)
        assert worst <= TOL

        es_half = DistortionFunction.es((1, 2))
        strict = 0
        for _ in range(50):
            z = rng.uniform(-1.0, 1.0, 8)
            x = RandomVariable.of(_monotone_transform(rng, z))
            y = RandomVariable.of(_monotone_transform(rng, -z))
            surplus = (
                choquet_eval(x + y, es_half, space)
                - choquet_eval(x, es_half, space)
                - choquet_eval(y, es_half, space)
            )
            assert surplus >= -TOL
            if surplus > 1e-6:
                strict += 1
        assert strict >= 1
        info["detail"] = (
            f"200 pairs x 5 distortions, worst gap {worst:.2e}; "
            f"{strict}/50 anti-monotone pairs strictly superadditive"
        )


# 4. Uniform grid exactness --------------------------------------------------

def test_acceptance_4_grid_exactness():
    info = {}
    with criterion(4, "grid-exactness", info):
        space, filt = load_space_file(data("space_8.json"))
        for n in (2, 4):
            grid = build_uniform_grid(space, filt, n)
            for block in filt.f1.blocks:
                block_mass = space.mass_of(block)
                members = set(block)
                for k in range(n + 1):
                    level = grid.level_set(k)
                    inside = space.mass_of(i for i in level.indices() if i in members)
                    assert inside / block_mass == Fraction(k, n)   # exact, no tolerance
            result = independence_check(grid.u_partition(), filt.f1, space)
            assert result.independent
            assert result.max_deviation == Fraction(0)
        info["detail"] = "n in {2, 4}: conditional masses k/n exact, independence deviation 0"


# 5. Golden lift, expectation base -------------------------------------------

def test_acceptance_5_golden_lift():
    info = {}
    with criterion(5, "golden-lift", info):
        space, filt = load_space_file(data("space_8.json"))
        base = load_utility_file(data("utility_expectation.json"))
        cu = ConditionalUtility(base, space, filt)
        grid = build_uniform_grid(space, filt, 4)
        f = RandomVariable.from_block_values([0.0, 1.0], filt.f1, 8)
        g = RandomVariable.from_block_values([0.0, -1.0], filt.f1, 8)
        pair, diag = lift_pair(cu, grid, f, g)

        assert all(in_v(a, b, pair.m) for a, b in zip(pair.xi.values, pair.eta.values))
        ok, _ = is_commonotone_pair(pair.xi, pair.eta, space)
        assert ok
        assert pair.xi.sup_norm() == 1.0 <= 3 * pair.m
        assert diag.snap_error == 0.0

        u_xi = conditional_eval(cu, pair.xi)
        u_eta = conditional_eval(cu, pair.eta)
        u_sum = conditional_eval(cu, pair.xi + pair.eta)
        worst = 0.0
        for i in range(8):
            worst = max(worst, abs(u_xi.values[i] - f.values[i]))
            worst = max(worst, abs(u_eta.values[i] - g.values[i]))
            worst = max(worst, abs(u_sum.values[i] - f.values[i] - g.values[i]))
        assert worst <= TOL
        info["detail"] = f"pairs on V, commonotone, sup norm 1 <= 3m, worst equality gap {worst:.2e}"


# 6. Lift approximation contract ---------------------------------------------

def test_acceptance_6_lift_approximation():
    info = {}
    with criterion(6, "lift-approximation", info):
        space = OutcomeSpace.uniform(16)
        filt = Filtration.two_period(space, [list(range(8)), list(range(8, 16))])
        base = CoherentUtility.from_distortion(DistortionFunction.es((1, 2)))
        cu = ConditionalUtility(base, space, filt)
        grid = build_uniform_grid(space, filt, 8)
        rng = np.random.default_rng(SEED)
        worst_eq = 0.0
        worst_slack = -1.0
        for _ in range(100):
            f = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), filt.f1, 16)
            g = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), filt.f1, 16)
            pair, diag = lift_pair(cu, grid, f, g)
            u_xi = conditional_eval(cu, pair.xi)
            u_eta = conditional_eval(cu, pair.eta)
            u_sum = conditional_eval(cu, pair.xi + pair.eta)
            for block in filt.f1.blocks:
                i = block[0]
                x_pt, y_pt, _ = geometry_xyl(
                    GeometryPoint(f.values[i], g.values[i]), pair.m
                )
                d = y_pt.x - x_pt.x
                lam_a = pair.lambda_achieved.values[i]
                worst_eq = max(worst_eq, abs(u_xi.values[i] - (x_pt.x + d * lam_a)))
                worst_eq = max(
                    worst_eq,
                    abs(u_sum.values[i] - u_xi.values[i] - u_eta.values[i]),
                )
                bound = d * diag.snap_error + TOL
                worst_slack = max(worst_slack, abs(u_xi.values[i] - f.values[i]) - bound)
                worst_slack = max(worst_slack, abs(u_eta.values[i] - g.values[i]) - bound)
        assert worst_eq <= TOL
        assert worst_slack <= 0.0
        info["detail"] = (
            f"100 pairs, grid n=8: achieved-weight equalities {worst_eq:.2e}, "
            f"snap bound never exceeded"
        )


# 7. Incompatibility exhibit -------------------------------------------------

def test_acceptance_7_incompatibility_exhibit():
    info = {}
    with criterion(7, "incompatibility-exhibit", info):
        start = time.monotonic()
        space4, filt4 = load_space_file(data("space_4.json"))
        es_half = load_utility_file(data("utility_es_half.json"))
        cu_es = ConditionalUtility(es_half, space4, filt4)

        ladder = crafted_ladder(space4)
        crafted = tc_gap(cu_es, [ladder])
        assert crafted.max_gap >= 0.5 - 1e-12
        assert crafted.witness.values == (0.0, 1.0, 2.0, 4.0)
        broad = tc_gap(cu_es, default_probes(space4, 200, SEED))
        assert broad.max_gap >= 0.5 - 1e-12

        space12, filt12 = load_space_file(data("space_12.json"))
        cu12 = ConditionalUtility(es_half, space12, filt12)
        grid12 = build_uniform_grid(space12, filt12, 6)
        probe = additivity_probe(
            cu12,
            grid12,
            RandomVariable.from_block_values([1.0, 0.0], filt12.f1, 12),
            RandomVariable.from_block_values([0.0, 1.0], filt12.f1, 12),
        )
        assert abs(probe.a_value - 1.0) <= TOL
        ok, _ = is_commonotone_pair(probe.pair.xi, probe.pair.eta, space12)
        assert ok

        expectation = load_utility_file(data("utility_expectation.json"))
        cu_lin = ConditionalUtility(expectation, space4, filt4)
        lin = tc_gap(cu_lin, default_probes(space4, 200, SEED))
        assert lin.max_gap <= TOL
        grid4 = build_uniform_grid(space4, filt4, 2)
        rng = np.random.default_rng(SEED)
        worst_a = 0.0
        for _ in range(200):
            f = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), filt4.f1, 4)
            g = RandomVariable.from_block_values(rng.uniform(-1, 1, 2), filt4.f1, 4)
            worst_a = max(worst_a, abs(additivity_probe(cu_lin, grid4, f, g).a_value))
        elapsed = time.monotonic() - start
        assert worst_a <= TOL
        assert elapsed < 10.0
        info["detail"] = (
            f"es(1/2): gap {crafted.max_gap:.3f} at (0,1,2,4), A = {probe.a_value:.9f} "
            f"on commonotone pair; expectation: gap {lin.max_gap:.1e}, "
            f"|A| <= {worst_a:.1e}; {elapsed:.2f}s"
        )


# 8. Product grid linearity --------------------------------------------------

def test_acceptance_8_product_grid_linearity():
    info = {}
    with criterion(8, "product-grid-linearity", info):
        k = 64
        space, filt = product_space(k, k)
        u = CoherentUtility.product_example(k, k)
        tolerance = 2.0 / k
        rng = np.random.default_rng(SEED)
        worst_flat = 0.0
        for _ in range(20):
            rows = rng.uniform(0.0, 1.0, k)
            x = RandomVariable.from_block_values(rows, filt.f1, space.size)
            mean = float(np.mean(x.values))
            worst_flat = max(worst_flat, abs(u.evaluate(x, space, filt) - mean))
        assert worst_flat <= tolerance

        half = [4.0 if (i % k) < k // 2 else 0.0 for i in range(space.size)]
        x_nl = RandomVariable.of(half)
        gap = abs(u.evaluate(x_nl, space, filt) - float(np.mean(x_nl.values)))
        assert gap > 10.0 * tolerance
        info["detail"] = (
            f"64x64 grid: flat probes within {worst_flat:.2e} of the mean "
            f"(allowed {tolerance}), non-measurable probe gap {gap:.3f} > {10 * tolerance}"
        )


# 9. Cone decomposition consistency ------------------------------------------

def test_acceptance_9_cone_decomposition():
    info = {}
    with criterion(9, "cone-decomposition", info):
        space4, filt4 = load_space_file(data("space_4.json"))
        expectation = load_utility_file(data("utility_expectation.json"))
        cu_lin = ConditionalUtility(expectation, space4, filt4)

        checked = 0
        for x in default_probes(space4, 300, SEED):
            if cu_lin.base.evaluate(x, cu_lin.space, cu_lin.filtration) < 0.0:
                continue
            feasible, witness = cone_decompose(cu_lin, x)
            assert feasible and witness is not None
            eta, zeta = witness
            assert eta.is_measurable(filt4.f1)
            assert tuple(eta.values[i] + zeta.values[i] for i in range(4)) == x.values
            assert expectation.evaluate(eta, space4, filt4) >= -TOL
            assert min(conditional_eval(cu_lin, zeta).values) >= -TOL
            checked += 1
            if checked == 50:
                break
        assert checked == 50

        es_half = load_utility_file(data("utility_es_half.json"))
        cu_es = ConditionalUtility(es_half, space4, filt4)
        centered = crafted_ladder(space4) + RandomVariable.constant(-0.5, 4)
        assert cu_es.base.evaluate(centered, cu_es.space, cu_es.filtration) >= -TOL   # acceptable at time 0
        feasible, witness = cone_decompose(cu_es, centered)
        assert not feasible and witness is None
        info["detail"] = (
            "expectation: 50/50 acceptable probes decomposed with verified witnesses; "
            "es(1/2) centered ladder infeasible"
        )
