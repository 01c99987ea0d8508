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
one block of 1030 equal masses.
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
FORMATS = [[], ["--format", "csv"]]


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
    return cmds


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
        for name, doc in GENERATED.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
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
