"""Fingerprint every report the riskcal CLI gives on a fixed command list.

    PYTHONPATH=src python3 tools/report_battery.py > battery.txt

Each command runs in-process through `riskcal.cli.main`, in a scratch
directory holding copies of the shipped data files and a few generated
spaces, so reports name the same relative paths whichever checkout runs.
One line per command gives the sha256 of its (exit code, stdout, stderr),
the exit code and the command; the last line gives a sha256 over all of
them. Two checkouts give the same reports exactly when `diff` of their
outputs is empty, and a differing line names the command that changed.

The list covers every command on the 4 shipped spaces with the 6 shipped
utilities in text and csv, `lift` at several `--grid-n`, both demos, and
generated spaces: invalid ones (an F1 block naming outcome 99 or -1) and
one block of 1030 equal masses. After those come the refusals: argparse
usage errors and `--help` on every command, inputs that cannot be read and
an `--out` that cannot be written, and negative `--probes` and `--seed`.
Last come generated utility and space files that are malformed (knots
that are not pairs, scenario entries that are not numbers, booleans where
numbers belong), `lift` on all-zero payoffs and `lift --grid-n 0`, and
last of all commands with two faults: `validate` of an invalid space with
a utility that does not fit it, and `lift` with a malformed `--f` on a
grid the space cannot give. After them come `validate` and `tc-check` of
a scenario utility whose measures differ in length, in text and csv.
That makes 361 commands.
Help and usage text wraps at the terminal width, so the battery runs at
COLUMNS=80.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

import riskcal.cli
from riskcal.io import load_space_file, packaged_data_path

SPACES = ["space_4.json", "space_8.json", "space_12.json", "space_product_64.json"]
UTILITIES = [
    "utility_expectation.json",
    "utility_es_quarter.json",
    "utility_es_half.json",
    "utility_power_half.json",
    "utility_scenario.json",
    "utility_product_8x8.json",
]
GRID_NS = [1, 2, 3, 4, 6, 8]  # beside the default, the space's own resolution
GENERATED = {
    "bad_index_99.json": {"masses": [[1, 4]] * 4, "f1_blocks": [[0, 1], [2, 99]]},
    "bad_index_minus_1.json": {"masses": [[1, 4]] * 4, "f1_blocks": [[0, 1], [2, -1]]},
    "flat_1030.json": {"masses": [[1, 1030]] * 1030, "f1_blocks": [list(range(1030))]},
}
MALFORMED = {
    "utility_knots_not_pairs.json": {"utility": {"kind": "piecewise", "knots": [0, 1]}},
    "utility_knot_null.json": {"utility": {"kind": "piecewise", "knots": [None]}},
    "utility_knot_coordinate_null.json": {"utility": {"kind": "piecewise", "knots": [[0, 0], [1, None]]}},
    "utility_scenario_string.json": {"utility": {"kind": "scenario", "measures": [["a", 0.5, 0.25, 0.25]]}},
    "utility_scenario_null.json": {"utility": {"kind": "scenario", "measures": [[None, 0.5, 0.25, 0.25]]}},
    "utility_scenario_object.json": {"utility": {"kind": "scenario", "measures": [[{}, 0.5, 0.25, 0.25]]}},
    "utility_scenario_boolean.json": {"utility": {"kind": "scenario", "measures": [[True, False, False, False]]}},
    "utility_power_boolean.json": {"utility": {"kind": "power", "alpha": True}},
    "utility_product_boolean.json": {"utility": {"kind": "product", "k_alpha": True, "k_x": 4}},
    "space_mass_boolean.json": {"masses": [True], "f1_blocks": [[0]]},
    "space_block_index_boolean.json": {"masses": [1], "f1_blocks": [[False]]},
}
RAGGED = {"utility_scenario_ragged.json": {"utility": {"kind": "scenario", "measures": [[[1, 4]] * 4, [[1, 3]] * 3]}}}
FORMATS = [[], ["--format", "csv"]]
DIRECTORY = "a_directory"  # made in the scratch directory, given where a file is expected


def _payoffs(space_file: str) -> tuple[str, str]:
    """An F1-measurable pair for `lift`: f rises and g falls across the blocks."""
    space, filtration = load_space_file(space_file)
    f, g = [0.0] * space.size, [0.0] * space.size
    blocks = filtration.f1.blocks
    for j, block in enumerate(blocks):
        for i in block:
            f[i], g[i] = float(j), float(len(blocks) - 1 - j) / 2
    return ",".join(map(repr, f)), ",".join(map(repr, g))


def commands() -> list[list[str]]:
    """The battery, in order; file arguments are names in the working directory."""
    cmds = []
    for space in SPACES:
        f, g = _payoffs(space)
        cmds += [["validate", "--space", space, *fmt] for fmt in FORMATS]
        for utility in UTILITIES:
            both = ["--space", space, "--utility", utility]
            for fmt in FORMATS:
                cmds += [
                    ["validate", *both, *fmt],
                    ["eval", *both, *fmt],
                    ["lift", *both, "--f", f, "--g", g, *fmt],
                    ["tc-check", *both, *fmt],
                    ["cone-check", *both, *fmt],
                ]
        for n in GRID_NS:
            cmds.append(["lift", "--space", space, "--utility", "utility_es_half.json",
                         "--f", f, "--g", g, "--grid-n", str(n)])
    for exhibit in ("incompatibility", "multiperiod"):
        cmds += [["demo", exhibit, *fmt] for fmt in FORMATS]
    for space in GENERATED:
        cmds += [["validate", "--space", space, *fmt] for fmt in FORMATS]
    return cmds + refusals()


def refusals() -> list[list[str]]:
    """Commands that are refused or fail on their inputs, and `--help`."""
    base = ["--space", "space_4.json", "--utility", "utility_es_half.json"]
    probed = [["eval", *base], ["tc-check", *base], ["cone-check", *base], ["demo", "incompatibility"]]
    cmds = [[], ["frobnicate"], ["demo"], ["demo", "frobnicate"], ["--help"]]
    cmds += [[*cmd, "--help"] for cmd in (["validate"], ["eval"], ["lift"], ["tc-check"], ["cone-check"],
                                          ["demo"], ["demo", "incompatibility"], ["demo", "multiperiod"])]
    cmds += [
        ["validate", "--space", "space_4.json", "--probes", "7"],
        ["lift", *base, "--f", "1,1,0,0", "--g", "0,0,1,1", "--tol", "0.5"],
        ["lift", *base, "--f", "1,1,0,0"],
        ["eval", "--space", "space_4.json"],
        ["demo", "multiperiod", "--seed", "3"],
        ["eval", *base, "--probes", "many"],
        ["validate", "--space", "space_4.json", "--format", "xml"],
    ]
    cmds += [["tc-check", *base, "--tol", tol] for tol in ("nan", "-1", "inf", "x")]
    for cmd in probed:
        cmds += [[*cmd, flag, "-1"] for flag in ("--probes", "--seed")]
    cmds += [["tc-check", *base, "--probes", "0"], ["demo", "incompatibility", "--probes", "0"]]
    for command in ("validate", "tc-check"):
        extra = ["--probes", "5"] if command == "tc-check" else []
        cmds += [
            [command, "--space", "missing.json", "--utility", "utility_es_half.json", *extra],
            [command, "--space", DIRECTORY, "--utility", "utility_es_half.json", *extra],
            [command, "--space", "space_4.json", "--utility", "missing.json", *extra],
            [command, "--space", "space_4.json", "--utility", DIRECTORY, *extra],
            [command, *base, *extra, "--out", "no_such_dir/r.json"],
            [command, *base, *extra, "--out", DIRECTORY],
        ]
    ones, zeros = ",".join(["1.0"] * 1030), ",".join(["0.0"] * 1030)
    cmds.append(["lift", "--space", "flat_1030.json", "--utility", "utility_es_half.json",
                 "--f", ones, "--g", zeros, "--grid-n", "2"])
    return cmds + malformed()


def malformed() -> list[list[str]]:
    """Malformed input files, and `lift` at the edges of its payoffs and grid."""
    cmds = []
    for name in MALFORMED:
        if name.startswith("space_"):
            cmds.append(["validate", "--space", name])
        else:
            cmds += [["validate", "--space", "space_4.json", "--utility", name],
                     ["tc-check", "--space", "space_4.json", "--utility", name, "--probes", "5"]]
    lift = ["lift", "--space", "space_8.json", "--utility", "utility_es_half.json"]
    zeros = ",".join(["0"] * 8)
    cmds += [[*lift, "--f", zeros, "--g", zeros, *fmt] for fmt in FORMATS]
    cmds.append([*lift, "--f", "1,1,1,1,0,0,0,0", "--g", zeros, "--grid-n", "0"])
    return cmds + check_order()


def check_order() -> list[list[str]]:
    """Commands given two faults, where the report shows which is checked first."""
    cmds = []
    for utility in ("utility_product_8x8.json", "utility_scenario.json"):
        cmds += [["validate", "--space", "bad_index_99.json", "--utility", utility, *fmt] for fmt in FORMATS]
    cmds.append(["lift", "--space", "space_12.json", "--utility", "utility_es_half.json", "--grid-n", "5",
                 "--f=oops", "--g=" + ",".join(["0"] * 12)])
    return cmds + ragged()


def ragged() -> list[list[str]]:
    """A scenario utility whose measures differ in length, refused as it is parsed."""
    base = ["--space", "space_4.json", "--utility", *RAGGED]
    return [[*cmd, *fmt] for cmd in (["validate", *base], ["tc-check", *base, "--probes", "5"]) for fmt in FORMATS]


def run(argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = riskcal.cli.main(argv)
    except SystemExit as e:  # argparse refusals
        code = e.code
    except Exception as e:  # a crash is a result to compare; its frames name this checkout's paths
        code = "crash"
        err.write("".join(traceback.format_exception_only(e)))
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for name in SPACES + UTILITIES:
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(packaged_data_path(name).read_text(encoding="utf-8"))
        for name, doc in {**GENERATED, **MALFORMED, **RAGGED}.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        os.mkdir(os.path.join(work, DIRECTORY))
        os.environ["COLUMNS"] = "80"
        here = os.getcwd()
        os.chdir(work)
        try:
            cmds = commands()
            for argv in cmds:
                code, out, err = run(argv)
                digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
                total.update(digest.encode())
                print(f"{digest}  {code}  {' '.join(argv)}")
        finally:
            os.chdir(here)
    print(f"{total.hexdigest()}  total over {len(cmds)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
