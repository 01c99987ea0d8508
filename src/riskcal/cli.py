"""Batch front-end.

    riskcal validate   --space F [--utility F]
    riskcal eval       --space F --utility F [--probes K] [--seed S]
    riskcal lift       --space F --utility F --f V --g V [--grid-n N]
    riskcal tc-check   --space F --utility F [--probes K] [--seed S] [--tol T]
    riskcal cone-check --space F --utility F [--probes K] [--seed S]
    riskcal demo incompatibility [--probes K] [--seed S]
    riskcal demo multiperiod

Every command also takes --format text|csv and --out PATH; no command takes
a flag it does not read. Reports embed the seed, probe count and tolerance,
at their defaults (1729, 200, 1e-9) where the command has no such flag;
identical configurations produce byte identical reports. Exit status: 2 for
schema or input errors, 1 when tc-check finds a gap above tolerance, 0
otherwise.

Importing this module does not load numpy: eval, tc-check, cone-check and
demo incompatibility import it at their first probe draw, and the other
commands never do.
"""

from __future__ import annotations

import argparse
import math
import sys

from .conditional import (
    DEFAULT_SEED,
    ConditionalUtility,
    blockwise_eval,
    crafted_ladder,
    default_probes,
    tc_gap,
)
from .io import (
    SchemaError,
    emit_report_csv,
    emit_report_text,
    load_space_file,
    load_utility_file,
    packaged_data_path,
)
from .lift import GeometryPoint, additivity_probe, geometry_xyl, lift_pair
from .space import (
    OutcomeSpace,
    Partition,
    RandomVariable,
    build_uniform_grid,
    conditional_resolution,
    validate,
)
from .utility import CoherentUtility, DistortionFunction, ScenarioSet

TOL = 1e-9


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="riskcal", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help, files=("space", "utility"), probes=None, tol=False, parent=sub):
        """Add subcommand `name` to `parent`, run by `handler(args)`; `probes` is
        the default of its --probes flag, which comes with --seed."""
        sp = parent.add_parser(name, help=help)
        # Every report header carries these; a command without the flag reports
        # the default. An add_argument default below overrides this one.
        sp.set_defaults(handler=handler, space=None, utility=None, probes=200, seed=DEFAULT_SEED, tol=TOL)
        for f in files:
            sp.add_argument(f"--{f}", required=True, help=f"{f} file (JSON)")
        if probes is not None:
            sp.add_argument("--probes", type=int, default=probes)
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if tol:
            sp.add_argument("--tol", type=_tolerance, default=TOL)
        sp.add_argument("--format", choices=("text", "csv"), default="text", dest="fmt")
        sp.add_argument("--out", default=None)
        return sp

    sp = command("validate", _run_validate, "check a space file's invariants", files=("space",))
    sp.add_argument("--utility", default=None, help="utility file (JSON) to describe")
    command("eval", _run_eval, "evaluate a utility on seeded probes", probes=200)
    sp = command("lift", _run_lift, "build a commonotone pair from one-period payoffs")
    sp.add_argument("--f", required=True, dest="f_values", help="comma-separated payoff per outcome")
    sp.add_argument("--g", required=True, dest="g_values", help="comma-separated payoff per outcome")
    sp.add_argument("--grid-n", type=int, default=None, dest="grid_n",
                    help="grid resolution (default: the space's conditional resolution)")
    command("tc-check", _run_tc_check, "audit the recomposition identity", probes=200, tol=True)
    command("cone-check", _run_cone_check, "decompose acceptable probes across periods", probes=200)
    demo = sub.add_parser("demo", help="run a packaged exhibit").add_subparsers(dest="exhibit", required=True)
    command("incompatibility", _demo_incompatibility, "gap, defect, linearity", files=(), probes=50, parent=demo)
    # multiperiod draws no probes; its header reports the demo default of 50
    command("multiperiod", _demo_multiperiod, "stagewise collapse", files=(), parent=demo).set_defaults(probes=50)
    return p


def _tolerance(text: str) -> float:
    """--tol: a finite number >= 0; a NaN tolerance would pass every gap."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _header(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "seed": args.seed,
        "probes": args.probes,
        "tolerance": args.tol,
        "inputs": {k: v for k, v in (("space", args.space), ("utility", args.utility)) if v},
    }


def _load_space(args: argparse.Namespace):
    space, filtration = load_space_file(args.space)
    report = validate(space, filtration)
    if not report.ok:
        raise SchemaError("invalid space: " + "; ".join(report.violations), field="space")
    return space, filtration


def _load_utility(args: argparse.Namespace, space: OutcomeSpace) -> CoherentUtility:
    u = load_utility_file(args.utility)
    if u.kind == "scenario":
        ScenarioSet.of(u.scenarios.measures, space)  # raises if a measure's length is not space.size
    return u


def _parse_vector(text: str, size: int, name: str) -> RandomVariable:
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError as e:
        raise SchemaError(f"--{name} must be comma-separated numbers", field=name) from e
    if not all(math.isfinite(v) for v in vals):
        raise SchemaError(f"--{name} entries must be finite numbers", field=name)
    if len(vals) != size:
        raise SchemaError(f"--{name} has {len(vals)} entries for {size} outcomes", field=name)
    return RandomVariable.of(vals)


def _run_validate(args: argparse.Namespace) -> tuple[str, int]:
    space, filtration = load_space_file(args.space)
    report = validate(space, filtration)
    doc = _header(args)
    doc["ok"] = report.ok
    doc["violations"] = list(report.violations)
    doc["outcomes"] = space.size
    doc["f1_blocks"] = [list(b) for b in filtration.f1.blocks]
    # the resolution reads masses through the F1 blocks, so only a valid space has one
    doc["conditional_resolution"] = conditional_resolution(space, filtration) if report.ok else 0
    if args.utility:
        doc["utility"] = _load_utility(args, space).describe()
    code = 0 if report.ok else 2
    if args.fmt == "csv":
        rows = [{"index": i, "violation": v} for i, v in enumerate(report.violations)]
        return emit_report_csv(rows, ["index", "violation"]), code
    return emit_report_text(doc), code


def _run_eval(args: argparse.Namespace) -> tuple[str, int]:
    space, filtration = _load_space(args)
    u = _load_utility(args, space)
    probes = default_probes(space, args.probes, args.seed, nonnegative=(u.kind == "product"))
    rows = [
        {"input_id": pid, "variant": u.describe(), "value": u.evaluate(x, space, filtration)}
        for pid, x in enumerate(probes)
    ]
    if args.fmt == "csv":
        return emit_report_csv(rows, ["input_id", "variant", "value"]), 0
    doc = _header(args)
    doc["variant"] = u.describe()
    doc["values"] = [r["value"] for r in rows]
    doc["max"] = max(r["value"] for r in rows)
    doc["min"] = min(r["value"] for r in rows)
    return emit_report_text(doc), 0


def _run_lift(args: argparse.Namespace) -> tuple[str, int]:
    space, filtration = _load_space(args)
    u = _load_utility(args, space)
    cu = ConditionalUtility(u, space, filtration)
    grid = build_uniform_grid(space, filtration, args.grid_n)
    f = _parse_vector(args.f_values, space.size, "f")
    g = _parse_vector(args.g_values, space.size, "g")
    if not f.is_measurable(filtration.f1) or not g.is_measurable(filtration.f1):
        raise SchemaError("f and g must be constant on every F1 block", field="f")
    pair, diag = lift_pair(cu, grid, f, g)

    blocks = filtration.f1.blocks
    geo_rows = []
    for bi, block in enumerate(blocks):
        i = block[0]
        row = {
            "block": bi,
            "f": f.values[i],
            "g": g.values[i],
            "lambda_target": pair.lambda_target.values[i],
            "lambda_achieved": pair.lambda_achieved.values[i],
        }
        if pair.m > 0:
            x_pt, y_pt, _ = geometry_xyl(GeometryPoint(f.values[i], g.values[i]), pair.m)
            row.update({"x_x": x_pt.x, "x_y": x_pt.y, "y_x": y_pt.x, "y_y": y_pt.y})
        else:
            row.update({"x_x": 0.0, "x_y": 0.0, "y_x": 0.0, "y_y": 0.0})
        geo_rows.append(row)
    if args.fmt == "csv":
        cols = ["block", "f", "g", "x_x", "x_y", "y_x", "y_y", "lambda_target", "lambda_achieved"]
        return emit_report_csv(geo_rows, cols), 0
    doc = _header(args)
    doc["m"] = pair.m
    doc["grid_n"] = grid.resolution
    doc["xi"] = list(pair.xi.values)
    doc["eta"] = list(pair.eta.values)
    doc["b_indices"] = list(pair.b.indices())
    doc["geometry"] = geo_rows
    doc["diagnostics"] = {
        "err_f": list(diag.err_f),
        "err_g": list(diag.err_g),
        "err_sum": list(diag.err_sum),
        "snap_error": diag.snap_error,
        "resolution_used": diag.resolution_used,
    }
    return emit_report_text(doc), 0


def _run_tc_check(args: argparse.Namespace) -> tuple[str, int]:
    space, filtration = _load_space(args)
    u = _load_utility(args, space)
    cu = ConditionalUtility(u, space, filtration)
    report = tc_gap(cu, default_probes(space, args.probes, args.seed))
    code = 1 if report.max_gap > args.tol else 0
    if args.fmt == "csv":
        rows = [
            {"probe_id": pid, "direct": d, "recomposed": r, "gap": gap}
            for pid, d, r, gap in report.per_vector
        ]
        return emit_report_csv(rows, ["probe_id", "direct", "recomposed", "gap"]), code
    doc = _header(args)
    doc["max_gap"] = report.max_gap
    doc["witness"] = list(report.witness.values)
    doc["consistent"] = code == 0
    doc["per_vector"] = [
        {"probe_id": pid, "direct": d, "recomposed": r, "gap": gap}
        for pid, d, r, gap in report.per_vector
    ]
    return emit_report_text(doc), code


def _run_cone_check(args: argparse.Namespace) -> tuple[str, int]:
    space, filtration = _load_space(args)
    u = _load_utility(args, space)
    cu = ConditionalUtility(u, space, filtration)
    report = tc_gap(cu, default_probes(space, args.probes, args.seed), check_cones=True)
    rows = [{"probe_id": pid, "feasible": ok} for pid, ok in report.cone_verdicts]
    if args.fmt == "csv":
        return emit_report_csv(rows, ["probe_id", "feasible"]), 0
    doc = _header(args)
    doc["acceptable_probes"] = len(rows)
    doc["feasible_count"] = sum(1 for r in rows if r["feasible"])
    doc["verdicts"] = rows
    doc["max_gap"] = report.max_gap
    return emit_report_text(doc), 0


def _demo_incompatibility(args: argparse.Namespace) -> tuple[str, int]:
    space4, filt4 = load_space_file(packaged_data_path("space_4.json"))
    es_half = CoherentUtility.from_distortion(DistortionFunction.es((1, 2)))
    cu4 = ConditionalUtility(es_half, space4, filt4)
    probes = default_probes(space4, args.probes, args.seed)
    tc = tc_gap(cu4, probes)
    crafted_row = tc.per_vector[0]  # the ladder probe is always first

    space12, filt12 = load_space_file(packaged_data_path("space_12.json"))
    cu12 = ConditionalUtility(es_half, space12, filt12)
    grid12 = build_uniform_grid(space12, filt12, 6)
    f = RandomVariable.from_block_values([1.0, 0.0], filt12.f1, space12.size)
    g = RandomVariable.from_block_values([0.0, 1.0], filt12.f1, space12.size)
    probe = additivity_probe(cu12, grid12, f, g)

    space_p, filt_p = load_space_file(packaged_data_path("space_product_64.json"))
    u_prod = load_utility_file(packaged_data_path("utility_product_8x8.json"))
    k_alpha = u_prod.k_alpha
    import numpy as np  # here, so that commands which draw no probes never load numpy

    rng = np.random.default_rng(args.seed)
    max_err = 0.0
    for _ in range(20):
        row_vals = rng.uniform(0.0, 1.0, size=k_alpha)
        x = RandomVariable.from_block_values(row_vals, filt_p.f1, space_p.size)
        mean = sum(float(m) * v for m, v in zip(space_p.mass, x.values))
        max_err = max(max_err, abs(u_prod.evaluate(x, space_p, filt_p) - mean))
    half = u_prod.k_x // 2
    nonlinear = [0.0] * space_p.size
    for block in filt_p.f1.blocks:
        for pos, i in enumerate(block):
            nonlinear[i] = 4.0 if pos < half else 0.0
    x_nl = RandomVariable.of(nonlinear)
    mean_nl = sum(float(m) * v for m, v in zip(space_p.mass, x_nl.values))
    gap_nl = abs(u_prod.evaluate(x_nl, space_p, filt_p) - mean_nl)

    doc = _header(args)
    doc["inputs"] = {
        "space": "packaged space_4.json / space_12.json / space_product_64.json",
        "utility": "es(1/2) and packaged utility_product_8x8.json",
    }
    doc["tc_gap_exhibit"] = {
        "max_gap": tc.max_gap,
        "crafted_probe": list(probes[0].values),
        "crafted_gap": crafted_row[3],
        "witness": list(tc.witness.values),
    }
    doc["additivity_exhibit"] = {
        "a_value": probe.a_value,
        "u01_f": probe.u01_f,
        "u01_g": probe.u01_g,
        "u01_fg": probe.u01_fg,
        "snap_error": probe.snap_error,
    }
    doc["product_linearity"] = {
        "grid": f"{u_prod.k_alpha}x{u_prod.k_x}",
        "flat_max_error": max_err,
        "flat_tolerance": 2.0 / k_alpha,
        "nonflat_gap": gap_nl,
    }
    if args.fmt == "csv":
        rows = [
            {"exhibit": "tc_gap", "metric": "max_gap", "value": tc.max_gap},
            {"exhibit": "tc_gap", "metric": "crafted_gap", "value": crafted_row[3]},
            {"exhibit": "additivity", "metric": "a_value", "value": probe.a_value},
            {"exhibit": "additivity", "metric": "snap_error", "value": probe.snap_error},
            {"exhibit": "product_linearity", "metric": "flat_max_error", "value": max_err},
            {"exhibit": "product_linearity", "metric": "nonflat_gap", "value": gap_nl},
        ]
        return emit_report_csv(rows, ["exhibit", "metric", "value"]), 0
    return emit_report_text(doc), 0


def _demo_multiperiod(args: argparse.Namespace) -> tuple[str, int]:
    space, filtration = load_space_file(packaged_data_path("space_8.json"))
    base = CoherentUtility.from_distortion(DistortionFunction.es((1, 2)))
    p1 = filtration.f1
    p2 = Partition.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    x = crafted_ladder(space)

    direct = base.evaluate(x, space)
    y2, _ = blockwise_eval(base, space, p2, x)
    v2 = base.evaluate(y2, space)
    y1, _ = blockwise_eval(base, space, p1, y2)
    v1 = base.evaluate(y1, space)

    doc = _header(args)
    doc["inputs"] = {"space": "packaged space_8.json", "utility": "es(1/2)"}
    doc["probe"] = list(x.values)
    doc["levels"] = [
        {"stage": "direct", "value": direct, "gap_from_previous": 0.0},
        {"stage": "collapse_level2", "value": v2, "gap_from_previous": abs(direct - v2)},
        {"stage": "collapse_level1", "value": v1, "gap_from_previous": abs(v2 - v1)},
    ]
    doc["total_gap"] = abs(direct - v1)
    if args.fmt == "csv":
        rows = [
            {"stage": lvl["stage"], "value": lvl["value"], "gap_from_previous": lvl["gap_from_previous"]}
            for lvl in doc["levels"]
        ]
        return emit_report_csv(rows, ["stage", "value", "gap_from_previous"]), 0
    return emit_report_text(doc), 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except ValueError as e:  # SchemaError included
        print(f"input error: {e}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
