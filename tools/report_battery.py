"""Fingerprint every report the riskcal CLI gives on a fixed command list.

    PYTHONPATH=src python3 tools/report_battery.py > battery.txt
    PYTHONPATH=src python3 tools/report_battery.py --against REV

Each command runs in-process through `riskcal.cli.main`, in a scratch
directory holding copies of the shipped data files and a few generated
spaces, so reports name the same relative paths whichever checkout runs.
One line per command gives the sha256 of its (exit code, stdout, stderr),
the exit code and the command; the last line gives a sha256 over all of
them. Two checkouts give the same reports exactly when `diff` of their
outputs is empty, and a differing line names the command that changed.

The list is the commands of each group function in GROUPS, in order; each
group's docstring says what it covers. A new group is one function, added
at the end of GROUPS so that every earlier command keeps its line.
Help and usage text wraps at the terminal width, so the battery runs at
COLUMNS=80. tests/data/report_battery.txt holds this script's output, and
tests/test_tools.py compares a fresh in-process run with it line by line.

`--against REV` exports REV's src/ with `git archive` into a temporary
directory, runs this same command list there in a subprocess with
PYTHONPATH set to that tree, and prints each command whose line differs
from this checkout's. It exits 1 if any does and 0 otherwise. If git
cannot export REV, it prints `cannot export REV: git archive REV: <git's
message>` and exits 2 before running any command.

Every command stops after TIMEOUT_S seconds and records the exit code
`timeout`, so a REV whose search on some command has no end shows that
command as differing instead of never finishing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import traceback

import riskcal.cli
from git_export import export
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


def _ramp_twice(k: int) -> dict:
    """Two F1 blocks of k outcomes, each with masses proportional to 1..k."""
    return {"masses": [[i, k * (k + 1)] for i in range(1, k + 1)] * 2,
            "f1_blocks": [list(range(k)), list(range(k, 2 * k))]}


SPLITS = {  # blocks whose canonical equal split backtracks
    **{f"ramp_{k}_twice.json": _ramp_twice(k) for k in range(8, 12)},
    "dead_room.json": {"masses": [[m, 12] for m in (2, 3, 3, 2, 2)], "f1_blocks": [[0, 1, 2, 3, 4]]},
}
# the ramps the benchmark's grid_lift workload lifts and validates, past SPLITS' largest
RAMP_GRIDS = {f"ramp_{k}_twice.json": _ramp_twice(k) for k in (12, 13)}
_T = 10**400  # block [0, 3] has mass 2 / _T, which is 0.0 in float64
UNDERFLOW = {"underflow.json": {"masses": [[1, _T], [_T - 2, 2 * _T], [_T - 2, 2 * _T], [1, _T]],
                                "f1_blocks": [[0, 3], [1, 2]]}}
CONDITIONED = {  # a piecewise distortion, and scenario sets that charge no outcome of space_4's block [2, 3]
    "utility_piecewise.json": {"utility": {"kind": "piecewise", "knots": [[0, 0], [0.5, 0.25], [1, 1]]}},
    "utility_scenario_uncharged.json": {"utility": {"kind": "scenario", "measures": [[[1, 2], [1, 2], 0, 0]]}},
    "utility_scenario_uncharged_and_uniform.json": {
        "utility": {"kind": "scenario", "measures": [[[1, 2], [1, 2], 0, 0], [[1, 4]] * 4]}},
}
LONG_SPLIT = {  # a default grid whose canonical split searches long, and a scenario base lifted on it
    "ramp_14_twice.json": _ramp_twice(14),
    "utility_scenario_uniform_28.json": {"utility": {"kind": "scenario", "measures": [[[1, 28]] * 28]}},
}
MIXED = {  # masses over mixed denominators, so the integer weights' scale is 420
    "mixed_denominators.json": {"masses": [[1, 5], [2, 7], [1, 4], [4, 35], [1, 15], [1, 12]],
                                "f1_blocks": [[0, 2, 5], [1, 3, 4]]},
    "utility_es_two_thirds.json": {"utility": {"kind": "es", "alpha": [2, 3]}},
    "utility_scenario_floats.json": {"utility": {"kind": "scenario", "measures": [
        [0.25, 0.25, 0.125, 0.125, 0.125, 0.125], [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]]}},
    "utility_scenario_tiny_negative.json": {"utility": {"kind": "scenario", "measures": [
        [[-1, 10**13], [1, 4], [1, 4], [5 * 10**12 + 1, 10**13]]]}},
}
EXACT_SCENARIOS = {  # scenario sets conditioned exactly: {P} where a block mass underflows, non-dyadic entries
    "utility_scenario_underflow_p.json": {"utility": {"kind": "scenario",
                                                      "measures": [UNDERFLOW["underflow.json"]["masses"]]}},
    "non_dyadic.json": {"masses": [[1, 5], [1, 7], [3, 10], [5, 14]], "f1_blocks": [[0, 2], [1, 3]]},
    "utility_scenario_non_dyadic.json": {"utility": {"kind": "scenario", "measures": [
        [[1, 3], [1, 6], [1, 5], [3, 10]], [[1, 7], [2, 7], [3, 14], [5, 14]]]}},
}
UNKNOWN_KEYS = {
    "utility_unknown_top_level.json": {"utility": {"kind": "es", "alpha": [1, 2]}, "note": "x"},
    "utility_unknown_field.json": {"utility": {"kind": "es", "alpha": [1, 2], "alpah": [1, 4]}},
}
NON_DYADIC_ES = {"utility_es_two_sevenths.json": {"utility": {"kind": "es", "alpha": [2, 7]}}}
INTERLEAVED = {"interleaved.json": {"masses": [[i, 21] for i in range(1, 7)], "f1_blocks": [[5, 1, 3], [4, 0, 2]]}}
DUPLICATE_KEYS = {  # written as text, since a dict cannot repeat a key
    "space_duplicate_key.json": '{"masses": [[1, 4], [1, 4], [1, 4], [1, 4]], "f1_blocks": [[0, 1], [2, 3]], '
                                '"f1_blocks": [[0, 1, 2, 3]]}',
    "utility_duplicate_key.json": '{"utility": {"kind": "es", "alpha": [1, 2], "alpha": [1, 4]}}',
}
SINGLE = {  # singleton F1 blocks, which admit no common split, and one block whose resolution 3 is odd
    "singletons.json": {"masses": [[1, 4]] * 4, "f1_blocks": [[0], [1], [2], [3]]},
    "one_block_sixths.json": {"masses": [[m, 6] for m in (1, 1, 1, 1, 2)], "f1_blocks": [[0, 1, 2, 3, 4]]},
}
BROKEN_FILES = {  # written as text, since some are not JSON or hold 1e400, which json.dump writes as Infinity
    "space_not_json.json": '{"masses": [[1, 2], [1, 2]], ',
    "space_array.json": '[[1, 2], [1, 2]]',
    "space_no_masses.json": '{"f1_blocks": [[0, 1]]}',
    "space_no_blocks.json": '{"masses": [[1, 2], [1, 2]]}',
    "space_empty_masses.json": '{"masses": [], "f1_blocks": [[0]]}',
    "space_zero_denominator.json": '{"masses": [[1, 0], [1, 2]], "f1_blocks": [[0, 1]]}',
    "space_labels_short.json": '{"masses": [[1, 2], [1, 2]], "f1_blocks": [[0, 1]], "labels": ["up"]}',
    "space_labelled.json": '{"masses": [[1, 2], [1, 2]], "f1_blocks": [[0], [1]], "labels": ["up", "down"]}',
    "space_blocks_not_list.json": '{"masses": [[1, 2], [1, 2]], "f1_blocks": 5}',
    "utility_no_utility.json": '{"kind": "es", "alpha": [1, 2]}',
    "utility_no_kind.json": '{"utility": {"alpha": [1, 2]}}',
    "utility_unknown_kind.json": '{"utility": {"kind": "var", "alpha": [1, 2]}}',
    "utility_knots_not_list.json": '{"utility": {"kind": "piecewise", "knots": 1}}',
    "utility_measures_empty.json": '{"utility": {"kind": "scenario", "measures": []}}',
    "utility_measure_not_list.json": '{"utility": {"kind": "scenario", "measures": [0.25]}}',
    "utility_es_three_halves.json": '{"utility": {"kind": "es", "alpha": [3, 2]}}',
    "utility_power_two.json": '{"utility": {"kind": "power", "alpha": 2}}',
    "utility_piecewise_one_knot.json": '{"utility": {"kind": "piecewise", "knots": [[0, 0]]}}',
    "utility_piecewise_endpoint.json": '{"utility": {"kind": "piecewise", "knots": [[0, 0], [1, 0.5]]}}',
    "utility_piecewise_backwards.json": '{"utility": {"kind": "piecewise", "knots": [[0, 0], [0.5, 0.25], '
                                        '[0.25, 0.5], [1, 1]]}}',
    "utility_piecewise_decreasing.json": '{"utility": {"kind": "piecewise", "knots": [[0, 0], [0.5, 0.5], '
                                         '[0.75, 0.25], [1, 1]]}}',
    "utility_piecewise_concave.json": '{"utility": {"kind": "piecewise", "knots": [[0, 0], [0.5, 0.75], [1, 1]]}}',
    "utility_scenario_sum_two.json": '{"utility": {"kind": "scenario", "measures": [[0.5, 0.5, 0.5, 0.5]]}}',
    "utility_scenario_1e400.json": '{"utility": {"kind": "scenario", "measures": [[1e400, 0, 0, 0]]}}',
    "utility_product_zero.json": '{"utility": {"kind": "product", "k_alpha": 0, "k_x": 4}}',
}
# valid: an entry may dip to -1e-12, and block (0, 1) is charged with mass 1e-12 as given
SLACK = {"utility_scenario_slack.json": {"utility": {"kind": "scenario",
                                                     "measures": [[-1e-12, 2e-12, 0.5, 0.499999999999]]}}}
REQUESTED_GRIDS = {  # two blocks of masses (1, 1, 1, 1, 2)/12, and an outcome twice in one block
    "two_blocks_twelfths.json": {"masses": [[m, 12] for m in (1, 1, 1, 1, 2)] * 2,
                                 "f1_blocks": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]},
    "repeat_in_block.json": {"masses": [[1, 4]] * 4, "f1_blocks": [[0, 0, 1], [2, 3]]},
}
PRODUCT_GRIDS = {  # 64 outcomes that utility_product_8x8.json refuses: one mass moved by 1/4096, or 4 F1 blocks
    "product_moved_mass.json": {"masses": [[65, 4096], [63, 4096]] + [[1, 64]] * 62,
                                "f1_blocks": [list(range(r * 8, r * 8 + 8)) for r in range(8)]},
    "product_four_blocks.json": {"masses": [[1, 64]] * 64,
                                 "f1_blocks": [list(range(r * 16, r * 16 + 16)) for r in range(4)]},
}
MASS_VIOLATIONS = {  # spaces validate refuses for their masses alone: a zero, a negative, sums 3/4 and 5/4
    "mass_zero.json": {"masses": [[1, 2], [1, 2], 0, 0], "f1_blocks": [[0, 1], [2, 3]]},
    "mass_negative.json": {"masses": [[1, 2], [1, 2], [1, 4], [-1, 4]], "f1_blocks": [[0, 1], [2, 3]]},
    "mass_sum_three_quarters.json": {"masses": [[1, 4], [1, 4], [1, 8], [1, 8]], "f1_blocks": [[0, 1], [2, 3]]},
    "mass_sum_five_quarters.json": {"masses": [[1, 4], [1, 4], [1, 4], [1, 2]], "f1_blocks": [[0, 1], [2, 3]]},
}
_NUS = ([[1, 4]] * 4, [[1, 2], [1, 2], [0, 1], [0, 1]], [[1, 8], [1, 8], [3, 8], [3, 8]])
RECTANGULAR = {  # space_8's m-stable set: block 0 weighs a/b = 1/2 or 1/4, and each block's conditional is in _NUS
    "utility_scenario_rectangular.json": {"utility": {"kind": "scenario", "measures": [
        [[a * p, b * q] for p, q in nu0] + [[(b - a) * p, b * q] for p, q in nu1]
        for a, b in ((1, 2), (1, 4)) for nu0 in _NUS for nu1 in _NUS]}},
}
SEARCH_BUDGET = {  # one block of 40 masses w/720, whose split searches run longest among the battery's
    "h40.json": {"masses": [[w, 720] for w in (29, 37, 33, 3, 14, 18, 12, 8, 23, 17, 25, 1, 31, 7, 3, 10, 40, 30,
                                                3, 10, 39, 20, 8, 17, 20, 10, 31, 33, 5, 22, 2, 20, 22, 13, 9, 20,
                                                10, 30, 18, 17)],
                 "f1_blocks": [list(range(40))]},
}
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


def shipped() -> list[list[str]]:
    """Every command on the shipped spaces with each shipped utility in text
    and csv, `lift` at several `--grid-n`, both demos, and `validate` of the
    generated spaces: invalid ones (an F1 block naming outcome 99 or -1) and
    one block of 1030 equal masses."""
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
    return cmds


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
    return cmds


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
    return cmds


def check_order() -> list[list[str]]:
    """Commands given two faults, where the report shows which is checked first."""
    cmds = []
    for utility in ("utility_product_8x8.json", "utility_scenario.json"):
        cmds += [["validate", "--space", "bad_index_99.json", "--utility", utility, *fmt] for fmt in FORMATS]
    cmds.append(["lift", "--space", "space_12.json", "--utility", "utility_es_half.json", "--grid-n", "5",
                 "--f=oops", "--g=" + ",".join(["0"] * 12)])
    return cmds


def ragged() -> list[list[str]]:
    """A scenario utility whose measures differ in length, refused as it is parsed."""
    base = ["--space", "space_4.json", "--utility", *RAGGED]
    cmds = [[*cmd, *fmt] for cmd in (["validate", *base], ["tc-check", *base, "--probes", "5"]) for fmt in FORMATS]
    return cmds


def negative_vectors() -> list[list[str]]:
    """`lift` with `--f V` where V starts with a minus sign, and with `--f` given no value."""
    base = ["lift", "--space", "space_4.json", "--utility", "utility_es_half.json"]
    cmds = [[*base, "--f", "-1,-1,0,0", "--g", "0,0,1,1", *fmt] for fmt in FORMATS] + [[*base, "--f", "--g", "0,0,1,1"]]
    return cmds


def splits() -> list[list[str]]:
    """`lift` at the default grid where the report shows the canonical split
    of a non-uniform or long block, then `cone-check` on a space whose F1
    block mass underflows float64."""
    cmds = []
    for space in [*SPLITS, "flat_1030.json"]:
        f, g = _payoffs(space)
        if f == g:  # one block, where both are 0: a g of 1/2 puts B strictly inside it
            g = g.replace("0.0", "0.5")
        cmds.append(["lift", "--space", space, "--utility", "utility_expectation.json", "--f", f, "--g", g])
    for utility in ("utility_es_half.json", "utility_expectation.json", "utility_power_half.json"):
        cmds += [["cone-check", "--space", *UNDERFLOW, "--utility", utility, "--probes", "3", *fmt] for fmt in FORMATS]
    return cmds


def conditioned() -> list[list[str]]:
    """`eval`, `tc-check` and `cone-check` of a piecewise distortion and of
    scenario sets with an uncharged block, then `lift` of a scenario base on
    a space whose default grid's canonical split searches long."""
    pairs = [(space, "utility_piecewise.json") for space in SPACES[:3]]
    pairs += [("space_4.json", name) for name in CONDITIONED if name.startswith("utility_scenario")]
    cmds = []
    for space, utility in pairs:
        both = ["--space", space, "--utility", utility]
        for fmt in FORMATS:
            cmds += [["eval", *both, *fmt], ["tc-check", *both, "--probes", "20", *fmt],
                     ["cone-check", *both, "--probes", "20", *fmt]]
    space, utility = LONG_SPLIT
    f, g = _payoffs(space)
    return cmds + [["lift", "--space", space, "--utility", utility, "--f", f, "--g", g]]


def mixed() -> list[list[str]]:
    """`cone-check` and `tc-check` on a space whose integer weights have a
    nontrivial scale, then a scenario entry that is exactly, if barely, negative."""
    cmds = []
    for utility in ("utility_expectation.json", "utility_es_half.json", "utility_es_two_thirds.json",
                    "utility_power_half.json", "utility_piecewise.json", "utility_scenario_floats.json"):
        both = ["--space", "mixed_denominators.json", "--utility", utility, "--probes", "20"]
        cmds += [[command, *both, *fmt] for command in ("cone-check", "tc-check") for fmt in FORMATS]
    cmds.append(["validate", "--space", "space_4.json", "--utility", "utility_scenario_tiny_negative.json"])
    return cmds


def exact_scenarios() -> list[list[str]]:
    """`tc-check` and `cone-check` of exact scenario sets, whose blocks are
    conditioned as P is, then utility files with an unknown key."""
    cmds = []
    for space, utility in (("underflow.json", "utility_scenario_underflow_p.json"),
                           ("non_dyadic.json", "utility_scenario_non_dyadic.json")):
        both = ["--space", space, "--utility", utility, "--probes", "20"]
        cmds += [[command, *both, *fmt] for command in ("tc-check", "cone-check") for fmt in FORMATS]
    cmds += [["validate", "--space", "space_4.json", "--utility", name] for name in UNKNOWN_KEYS]
    return cmds


def es_levels() -> list[list[str]]:
    """`eval` and `tc-check` of a dyadic and a non-dyadic es level on the
    larger shipped spaces, then `cone-check` of the non-dyadic one."""
    cmds = []
    for space in ("space_12.json", "space_product_64.json"):
        for utility in ("utility_es_quarter.json", *NON_DYADIC_ES):
            both = ["--space", space, "--utility", utility]
            cmds += [[*cmd, *fmt] for cmd in (["eval", *both], ["tc-check", *both, "--probes", "20"])
                     for fmt in FORMATS]
    both = ["--space", "space_8.json", "--utility", *NON_DYADIC_ES, "--probes", "20"]
    return cmds + [["cone-check", *both, *fmt] for fmt in FORMATS]


def quotient() -> list[list[str]]:
    """`tc-check` and `cone-check` of distortion bases, which recompose on the
    F1 quotient, on blocks listed out of index order, then files that repeat a key."""
    cmds = []
    for utility in ("utility_expectation.json", "utility_es_half.json", "utility_power_half.json",
                    "utility_piecewise.json"):
        both = ["--space", *INTERLEAVED, "--utility", utility, "--probes", "20"]
        cmds += [[command, *both, *fmt] for command in ("tc-check", "cone-check") for fmt in FORMATS]
    space, utility = DUPLICATE_KEYS
    cmds += [["validate", "--space", space], ["validate", "--space", "space_4.json", "--utility", utility]]
    return cmds


def psi_inverses() -> list[list[str]]:
    """`lift` at the default grid of the distortion kinds whose indicator table
    find_b has not inverted above: piecewise and the non-dyadic es(2/7)."""
    cmds = []
    for utility in ("utility_piecewise.json", *NON_DYADIC_ES):
        for space in SPACES[:3]:
            f, g = _payoffs(space)
            cmds += [["lift", "--space", space, "--utility", utility, "--f", f, "--g", g, *fmt] for fmt in FORMATS]
    return cmds


def demo_seeds() -> list[list[str]]:
    """`demo incompatibility` at the smallest seed and at 2**32, whose
    product-grid rows come from the probe stream of default_probes."""
    return [["demo", "incompatibility", "--seed", seed, *fmt] for seed in ("0", "4294967296") for fmt in FORMATS]


def edges() -> list[list[str]]:
    """Refusals of an invalid space and of malformed or non-measurable `--f`,
    `tc-check` of the es(1/2) ladder, whose gap is 0.5, at `--tol` 0.5 and 0
    and of a space past the ladder's 1025 outcomes, `lift` at the default
    grid on singleton blocks, which admit none, and at `--grid-n 2` on one
    block whose resolution is 3, and `lift` at the wedge's corner."""
    base = ["--utility", "utility_es_half.json"]
    cmds = [[command, "--space", "bad_index_99.json", *base, *extra]
            for command, extra in (("eval", []), ("lift", ["--f", "1,1,0,0", "--g", "0,0,1,1"]), ("tc-check", []),
                                   ("cone-check", []))]
    zeros = ",".join(["0"] * 8)
    cmds += [["lift", "--space", "space_8.json", *base, "--f", f, "--g", zeros]
             for f in ("1,2,3", "1,1,1,1,nan,0,0,0", "1,2,1,1,0,0,0,0")]
    cmds += [["tc-check", "--space", "space_4.json", *base, "--probes", "0", "--tol", tol] for tol in ("0.5", "0")]
    cmds += [
        ["tc-check", "--space", "flat_1030.json", *base, "--probes", "0"],
        ["lift", "--space", "singletons.json", *base, "--f", "0,1,2,3", "--g", "3,2,1,0"],
        ["lift", "--space", "one_block_sixths.json", "--utility", "utility_expectation.json",
         "--f", "0,0,0,0,0", "--g", "0.5,0.5,0.5,0.5,0.5", "--grid-n", "2"],
        ["lift", "--space", "space_4.json", *base, "--f", "1,1,0,0", "--g=-1,-1,0,0"],
    ]
    return cmds


def broken_files() -> list[list[str]]:
    """`validate` of every malformed space and utility file, then `tc-check`
    and `cone-check` of scenario entries in the float slack, in text and csv."""
    cmds = []
    for name in BROKEN_FILES:
        if name.startswith("space_"):
            cmds.append(["validate", "--space", name])
        else:
            cmds.append(["validate", "--space", "space_4.json", "--utility", name])
    both = ["--space", "space_4.json", "--utility", *SLACK, "--probes", "20"]
    return cmds + [[command, *both, *fmt] for command in ("tc-check", "cone-check") for fmt in FORMATS]


def requested_grids() -> list[list[str]]:
    """`lift` at `--grid-n` 2 and 3, in text and csv, on two blocks whose
    resolution 3 is not a multiple of 2, then `validate` of a space that
    repeats an outcome inside one block."""
    space, repeat = REQUESTED_GRIDS
    f, g = _payoffs(space)
    both = ["--space", space, "--utility", "utility_expectation.json", "--f", f, "--g", g]
    cmds = [["lift", *both, "--grid-n", n, *fmt] for n in ("2", "3") for fmt in FORMATS]
    return cmds + [["validate", "--space", repeat, *fmt] for fmt in FORMATS]


def product_grids() -> list[list[str]]:
    """`validate` and `eval` of the 8x8 product utility, in text and csv, on a
    64-outcome space with one mass moved by 1/4096 and on a uniform one of 4 F1 blocks."""
    return [[command, "--space", space, "--utility", "utility_product_8x8.json", *fmt]
            for space in PRODUCT_GRIDS for command in ("validate", "eval") for fmt in FORMATS]


def mass_violations() -> list[list[str]]:
    """`validate`, in text and csv, of each space whose masses alone are
    invalid, then `tc-check` of the one with a zero mass, refused before any probe."""
    cmds = [["validate", "--space", space, *fmt] for space in MASS_VIOLATIONS for fmt in FORMATS]
    return cmds + [["tc-check", "--space", "mass_zero.json", "--utility", "utility_es_half.json", "--probes", "5"]]


def ramp_grids() -> list[list[str]]:
    """`lift` at the default grid and `validate`, in text and csv, on the
    two-block ramps of 12 and 13 outcomes, whose canonical splits backtrack
    longest among the battery's grids."""
    cmds = []
    for space in RAMP_GRIDS:
        f, g = _payoffs(space)
        lift = ["lift", "--space", space, "--utility", "utility_expectation.json", "--f", f, "--g", g]
        cmds += [[*lift, *fmt] for fmt in FORMATS] + [["validate", "--space", space, *fmt] for fmt in FORMATS]
    return cmds


def scenario_lifts() -> list[list[str]]:
    """`lift` at the default grid, in text and csv, of scenario bases: the
    rectangular set on space_8, one whose block [2, 3] of space_4 falls back
    to the expectation, and non-dyadic exact measures on a space that has
    no default grid, refused for its resolution."""
    cmds = []
    for space, utility in (("space_8.json", *RECTANGULAR), ("space_4.json", "utility_scenario_uncharged.json"),
                           ("non_dyadic.json", "utility_scenario_non_dyadic.json")):
        f, g = _payoffs(space)
        cmds += [["lift", "--space", space, "--utility", utility, "--f", f, "--g", g, *fmt] for fmt in FORMATS]
    return cmds


def search_budget() -> list[list[str]]:
    """`validate` and `lift` at the default grid, in text and csv, on the
    40-outcome block: the existence search decides the resolution 12 after
    refuting n = 15 by its dead states, and the canonical split at 12 runs
    out of search budget, so `lift` grids with the existence search's split."""
    space, = SEARCH_BUDGET
    f, g = _payoffs(space)
    lift = ["lift", "--space", space, "--utility", "utility_expectation.json", "--f", f, "--g", g]
    return [["validate", "--space", space, *fmt] for fmt in FORMATS] + [[*lift, *fmt] for fmt in FORMATS]


GROUPS = (shipped, refusals, malformed, check_order, ragged, negative_vectors, splits, conditioned, mixed,
          exact_scenarios, es_levels, quotient, psi_inverses, demo_seeds, edges, broken_files, requested_grids,
          product_grids, mass_violations, ramp_grids, scenario_lifts, search_budget)


def commands() -> list[list[str]]:
    """The battery, in order; file arguments are names in the working directory."""
    return [cmd for group in GROUPS for cmd in group()]


# far above any command's time in this checkout, where every split search has a budget
TIMEOUT_S = 60.0


class _Timeout(BaseException):
    """A command ran past its timeout; a BaseException, so no handler in the CLI catches it."""


def _time_out(signum, frame):
    raise _Timeout


def run(argv: list[str]) -> tuple[int | str, str, str]:
    """A command's (exit code, stdout, stderr); the code is "timeout" if it
    runs past TIMEOUT_S seconds, counted by SIGALRM."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = riskcal.cli.main(argv)
    except _Timeout:
        code = "timeout"
    except SystemExit as e:  # argparse refusals
        code = e.code
    except Exception as e:  # a crash is a result to compare; its frames name this checkout's paths
        code = "crash"
        err.write("".join(traceback.format_exception_only(e)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def reports():
    """Run the battery in a scratch directory at COLUMNS=80, yielding
    (argv, exit code, stdout, stderr) for each command in order."""
    with tempfile.TemporaryDirectory() as work:
        for name in SPACES + UTILITIES:
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(packaged_data_path(name).read_text(encoding="utf-8"))
        for name, doc in {**GENERATED, **MALFORMED, **RAGGED, **SPLITS, **UNDERFLOW, **CONDITIONED,
                          **LONG_SPLIT, **MIXED, **EXACT_SCENARIOS, **UNKNOWN_KEYS,
                          **NON_DYADIC_ES, **INTERLEAVED, **SINGLE, **SLACK, **REQUESTED_GRIDS,
                          **PRODUCT_GRIDS, **MASS_VIOLATIONS, **RAMP_GRIDS, **RECTANGULAR,
                          **SEARCH_BUDGET}.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for name, text in {**DUPLICATE_KEYS, **BROKEN_FILES}.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.mkdir(os.path.join(work, DIRECTORY))
        os.environ["COLUMNS"] = "80"
        here = os.getcwd()
        os.chdir(work)
        try:
            for argv in commands():
                yield (argv, *run(argv))
        finally:
            os.chdir(here)


def fingerprint(argv: list[str], code, out: str, err: str) -> str:
    """A command's line: the sha256 of its (exit code, stdout, stderr), the code and the command."""
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    return f"{digest}  {code}  {' '.join(argv)}"


def fingerprints() -> list[str]:
    return [fingerprint(*report) for report in reports()]


def total(lines: list[str]) -> str:
    """The last line: a sha256 over the commands' digests."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.split("  ", 1)[0].encode())
    return f"{h.hexdigest()}  total over {len(lines)} commands"


def against(rev: str) -> int:
    """Run this battery here and on `rev`'s src/ in a subprocess; print each
    command whose line differs. 1 if any does, else 0; 2 if `rev` cannot be
    exported, checked before any command runs."""
    with tempfile.TemporaryDirectory() as tree:
        export(rev, tree, "src")
        lines = fingerprints()
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        theirs = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                                check=True).stdout.splitlines()[:-1]
    differ = 0
    for ours, old in zip(lines, theirs):
        if ours != old:
            differ += 1
            digest, code, command = ours.split("  ", 2)
            old_digest, old_code, _ = old.split("  ", 2)
            print(f"differs: {command}\n  {rev}: {old_digest}  {old_code}\n  here: {digest}  {code}")
    print(f"{differ} of {len(lines)} commands differ against {rev}")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fingerprint every riskcal CLI report on a fixed command list.")
    parser.add_argument("--against", metavar="REV",
                        help="run the list on REV's src/ too and print only the commands whose report differs")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    lines = fingerprints()
    print("\n".join([*lines, total(lines)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
