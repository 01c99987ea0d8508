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
schema or input errors, a negative --probes or --seed, and an input file
that cannot be read or an --out that cannot be written (one stderr line
naming the path); 1 when tc-check finds a gap above tolerance; 0 otherwise.

Each command computes and returns (fields, rows, columns, exit status);
main alone renders it: the header plus `fields` as text, or `rows` under
`columns` as CSV, to stdout or --out. main parses with one parser per
process, built at its first call.

Importing this module does not load numpy, which only default_probes
imports: eval, tc-check, cone-check and demo incompatibility load it at
their first probe draw, and the other commands never do.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .conditional import (
    DEFAULT_PROBES,
    DEFAULT_SEED,
    DEMO_PROBES,
    GAP_TOL,
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
from .lift import _require_distortion_base, additivity_probe, lift_pair
from .space import (
    OutcomeSpace,
    Partition,
    RandomVariable,
    build_uniform_grid,
    conditional_resolution,
    validate,
)
from .utility import CoherentUtility, DistortionFunction

# a command's (text report fields beside the header, CSV rows, CSV columns, exit status)
Report = tuple[dict, list[dict], list[str], int]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `riskcal` parser, built at the first call and shared after it.

    Building it is most of a short command's time, and parsing leaves no
    state on it: every subcommand parses into a fresh namespace and no
    default is mutable. `build_parser.__wrapped__` builds a fresh one.
    """
    p = argparse.ArgumentParser(prog="riskcal", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help, files=("space", "utility"), probes=DEFAULT_PROBES, seeded=False, tol=False,
                parent=sub):
        """Add subcommand `name` to `parent`, run by `handler(args)`. Its report
        header gives `probes`; a `seeded` command takes --probes, defaulting
        to it, and --seed."""
        sp = parent.add_parser(name, help=help)
        # Every report header carries these, and a flag added below takes its default from here.
        sp.set_defaults(handler=handler, space=None, utility=None, probes=probes, seed=DEFAULT_SEED, tol=GAP_TOL)
        for f in files:
            sp.add_argument(f"--{f}", required=True, help=f"{f} file (JSON)")
        if seeded:
            sp.add_argument("--probes", type=_nonnegative_int)
            sp.add_argument("--seed", type=_nonnegative_int)
        if tol:
            sp.add_argument("--tol", type=_tolerance)
        sp.add_argument("--format", choices=("text", "csv"), default="text", dest="fmt")
        sp.add_argument("--out", default=None)
        return sp

    sp = command("validate", _run_validate, "check a space file's invariants", files=("space",))
    sp.add_argument("--utility", default=None, help="utility file (JSON) to describe")
    command("eval", _run_eval, "evaluate a utility on seeded probes", seeded=True)
    sp = command("lift", _run_lift, "build a commonotone pair from one-period payoffs")
    sp.add_argument("--f", required=True, dest="f_values", help="comma-separated payoff per outcome")
    sp.add_argument("--g", required=True, dest="g_values", help="comma-separated payoff per outcome")
    sp.add_argument("--grid-n", type=int, default=None, dest="grid_n",
                    help="grid resolution (default: the space's conditional resolution)")
    command("tc-check", _run_tc_check, "audit the recomposition identity", seeded=True, tol=True)
    command("cone-check", _run_cone_check, "decompose acceptable probes across periods", seeded=True)
    demo = sub.add_parser("demo", help="run a packaged exhibit").add_subparsers(dest="exhibit", required=True)
    exhibit = functools.partial(command, files=(), probes=DEMO_PROBES, parent=demo)
    exhibit("incompatibility", _demo_incompatibility, "gap, defect, linearity", seeded=True)
    exhibit("multiperiod", _demo_multiperiod, "stagewise collapse")  # draws no probes
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


def _nonnegative_int(text: str) -> int:
    """--probes and --seed: an integer >= 0 (--probes 0 draws only the crafted ladder)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


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


def _attach_vectors(argv: list[str]) -> list[str]:
    """lift's argv with `--f V` and `--g V` written `--f=V` when V starts with a
    negative number, which argparse would otherwise take for a flag."""
    out = list(argv[:1])
    for tok in argv[1:]:
        if argv[0] == "lift" and out[-1] in ("--f", "--g") and re.match(r"-\.?\d", tok):
            tok = out.pop() + "=" + tok
        out.append(tok)
    return out


def _run_validate(args: argparse.Namespace) -> Report:
    space, filtration = load_space_file(args.space)
    report = validate(space, filtration)
    fields = {
        "ok": report.ok,
        "violations": list(report.violations),
        "outcomes": space.size,
        "f1_blocks": [list(b) for b in filtration.f1.blocks],
        # the resolution reads masses through the F1 blocks, so only a valid space has one
        "conditional_resolution": conditional_resolution(space, filtration) if report.ok else 0,
    }
    if args.utility:  # fit is checked on a valid space only, so an invalid one still lists its violations
        u = load_utility_file(args.utility)
        if report.ok:
            u.check_space(space, filtration)
        fields["utility"] = u.describe()
    rows = [{"index": i, "violation": v} for i, v in enumerate(report.violations)]
    return fields, rows, ["index", "violation"], 0 if report.ok else 2


def _run_eval(args: argparse.Namespace) -> Report:
    space, filtration = _load_space(args)
    u = load_utility_file(args.utility)
    u.check_space(space, filtration)
    probes = default_probes(space, args.probes, args.seed, nonnegative=(u.kind == "product"))
    variant = u.describe()
    values = [u.evaluate(x, space, filtration) for x in probes]
    rows = [{"input_id": pid, "variant": variant, "value": v} for pid, v in enumerate(values)]
    fields = {"variant": variant, "values": values, "max": max(values), "min": min(values)}
    return fields, rows, ["input_id", "variant", "value"], 0


def _run_lift(args: argparse.Namespace) -> Report:
    space, filtration = _load_space(args)
    cu = ConditionalUtility(load_utility_file(args.utility), space, filtration)
    f = _parse_vector(args.f_values, space.size, "f")
    g = _parse_vector(args.g_values, space.size, "g")
    if not f.is_measurable(filtration.f1) or not g.is_measurable(filtration.f1):
        raise SchemaError("f and g must be constant on every F1 block", field="f")
    _require_distortion_base(cu)
    grid = build_uniform_grid(space, filtration, args.grid_n)  # after the cheap checks: it may search
    pair, diag = lift_pair(cu, grid, f, g)

    rows = []
    for bi, (block, (x_pt, y_pt)) in enumerate(zip(filtration.f1.blocks, pair.boundary)):
        i = block[0]
        rows.append({
            "block": bi,
            "f": f.values[i],
            "g": g.values[i],
            "x_x": x_pt.x, "x_y": x_pt.y, "y_x": y_pt.x, "y_y": y_pt.y,
            "lambda_target": pair.lambda_target.values[i],
            "lambda_achieved": pair.lambda_achieved.values[i],
        })
    fields = {
        "m": pair.m,
        "grid_n": grid.resolution,
        "xi": list(pair.xi.values),
        "eta": list(pair.eta.values),
        "b_indices": list(pair.b.indices()),
        "geometry": rows,
        "diagnostics": {
            "err_f": list(diag.err_f),
            "err_g": list(diag.err_g),
            "err_sum": list(diag.err_sum),
            "snap_error": diag.snap_error,
            "resolution_used": diag.resolution_used,
        },
    }
    columns = ["block", "f", "g", "x_x", "x_y", "y_x", "y_y", "lambda_target", "lambda_achieved"]
    return fields, rows, columns, 0


def _run_tc_check(args: argparse.Namespace) -> Report:
    space, filtration = _load_space(args)
    cu = ConditionalUtility(load_utility_file(args.utility), space, filtration)
    report = tc_gap(cu, default_probes(space, args.probes, args.seed))
    code = 1 if report.max_gap > args.tol else 0
    rows = [{"probe_id": pid, "direct": d, "recomposed": r, "gap": gap} for pid, d, r, gap in report.per_vector]
    fields = {
        "max_gap": report.max_gap,
        "witness": list(report.witness.values),
        "consistent": code == 0,
        "per_vector": rows,
    }
    return fields, rows, ["probe_id", "direct", "recomposed", "gap"], code


def _run_cone_check(args: argparse.Namespace) -> Report:
    space, filtration = _load_space(args)
    cu = ConditionalUtility(load_utility_file(args.utility), space, filtration)
    report = tc_gap(cu, default_probes(space, args.probes, args.seed), check_cones=True)
    rows = [{"probe_id": pid, "feasible": ok} for pid, ok in report.cone_verdicts]
    fields = {
        "acceptable_probes": len(rows),
        "feasible_count": sum(1 for r in rows if r["feasible"]),
        "verdicts": rows,
        "max_gap": report.max_gap,
    }
    return fields, rows, ["probe_id", "feasible"], 0


def _demo_incompatibility(args: argparse.Namespace) -> Report:
    space4, filt4 = load_space_file(packaged_data_path("space_4.json"))
    es_half = CoherentUtility.from_distortion(DistortionFunction.es((1, 2)))
    cu4 = ConditionalUtility(es_half, space4, filt4)
    probes = default_probes(space4, args.probes, args.seed)
    tc = tc_gap(cu4, probes)
    crafted_gap = tc.per_vector[0][3]  # the ladder probe is always first

    space12, filt12 = load_space_file(packaged_data_path("space_12.json"))
    cu12 = ConditionalUtility(es_half, space12, filt12)
    grid12 = build_uniform_grid(space12, filt12, 6)
    f = RandomVariable.from_block_values([1.0, 0.0], filt12.f1, space12.size)
    g = RandomVariable.from_block_values([0.0, 1.0], filt12.f1, space12.size)
    probe = additivity_probe(cu12, grid12, f, g)

    space_p, filt_p = load_space_file(packaged_data_path("space_product_64.json"))
    u_prod = load_utility_file(packaged_data_path("utility_product_8x8.json"))
    mass_p = [float(m) for m in space_p.mass]  # once, for both linearity means
    max_err = 0.0
    for row in default_probes(OutcomeSpace.uniform(u_prod.k_alpha), 20, args.seed, nonnegative=True)[1:]:
        x = RandomVariable.from_block_values(row.values, filt_p.f1, space_p.size)
        mean = sum(m * v for m, v in zip(mass_p, x.values))
        max_err = max(max_err, abs(u_prod.evaluate(x, space_p, filt_p) - mean))
    half = u_prod.k_x // 2
    nonlinear = [0.0] * space_p.size
    for block in filt_p.f1.blocks:
        for pos, i in enumerate(block):
            nonlinear[i] = 4.0 if pos < half else 0.0
    x_nl = RandomVariable.of(nonlinear)
    mean_nl = sum(m * v for m, v in zip(mass_p, x_nl.values))
    gap_nl = abs(u_prod.evaluate(x_nl, space_p, filt_p) - mean_nl)

    fields = {
        "inputs": {
            "space": "packaged space_4.json / space_12.json / space_product_64.json",
            "utility": "es(1/2) and packaged utility_product_8x8.json",
        },
        "tc_gap_exhibit": {
            "max_gap": tc.max_gap,
            "crafted_probe": list(probes[0].values),
            "crafted_gap": crafted_gap,
            "witness": list(tc.witness.values),
        },
        "additivity_exhibit": {
            "a_value": probe.a_value,
            "u01_f": probe.u01_f,
            "u01_g": probe.u01_g,
            "u01_fg": probe.u01_fg,
            "snap_error": probe.snap_error,
        },
        "product_linearity": {
            "grid": f"{u_prod.k_alpha}x{u_prod.k_x}",
            "flat_max_error": max_err,
            "flat_tolerance": 2.0 / u_prod.k_alpha,
            "nonflat_gap": gap_nl,
        },
    }
    rows = [
        {"exhibit": "tc_gap", "metric": "max_gap", "value": tc.max_gap},
        {"exhibit": "tc_gap", "metric": "crafted_gap", "value": crafted_gap},
        {"exhibit": "additivity", "metric": "a_value", "value": probe.a_value},
        {"exhibit": "additivity", "metric": "snap_error", "value": probe.snap_error},
        {"exhibit": "product_linearity", "metric": "flat_max_error", "value": max_err},
        {"exhibit": "product_linearity", "metric": "nonflat_gap", "value": gap_nl},
    ]
    return fields, rows, ["exhibit", "metric", "value"], 0


def _demo_multiperiod(args: argparse.Namespace) -> Report:
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

    rows = [
        {"stage": "direct", "value": direct, "gap_from_previous": 0.0},
        {"stage": "collapse_level2", "value": v2, "gap_from_previous": abs(direct - v2)},
        {"stage": "collapse_level1", "value": v1, "gap_from_previous": abs(v2 - v1)},
    ]
    fields = {
        "inputs": {"space": "packaged space_8.json", "utility": "es(1/2)"},
        "probe": list(x.values),
        "levels": rows,
        "total_gap": abs(direct - v1),
    }
    return fields, rows, ["stage", "value", "gap_from_previous"], 0


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_vectors(sys.argv[1:] if argv is None else argv))
    try:
        fields, rows, columns, code = args.handler(args)
        if args.fmt == "csv":
            text = emit_report_csv(rows, columns)
        else:  # a non-finite value raises here: NaN and Infinity are not JSON
            text = emit_report_text({**_header(args), **fields})
    except ValueError as e:  # SchemaError included
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # an input file that cannot be opened
        print(f"input error: cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"output error: cannot write {args.out}: {e.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
