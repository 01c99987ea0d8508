"""Scaling sweep of `tc-check`, outside the gated workloads.

    python3 perfbench/sweep.py [--budget 10] [--out perfbench/results/sweep.json]

Varies the outcome count (4 to 256), the number of equal F1 blocks (1 to 16)
and the probe count (200 to 20k) on uniform spaces with the es(1/2) base.
Each cell runs in its own interpreter with a wall-clock budget; a cell that
runs out of budget is killed and recorded as "timeout", not dropped. The
recorded time is that of `riskcal.cli.main` alone, import excluded, in raw
seconds, with the machine's slowdown while the cell ran.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

OUTCOMES = (4, 16, 64, 256)
BLOCKS = (1, 4, 16)
PROBES = (200, 2000, 20000)


def run_cell(space: str, probes: int) -> None:
    """Child side: time one tc-check on the given space file, print the seconds
    and the machine's slowdown while it ran (raw per reference second, speed.py)."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import riskcal.cli as cli
    from speed import SpeedSampler

    utility = SRC / "riskcal" / "data" / "utility_es_half.json"
    argv = ["tc-check", "--space", space, "--utility", str(utility), "--probes", str(probes)]
    with SpeedSampler() as sampler:
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        end = perf_counter()
    print(json.dumps({"seconds": end - start, "exit": code, "slowdown": 1 / sampler.scale(start, end)}))


def space_doc(n: int, blocks: int) -> dict:
    size = n // blocks
    return {"masses": [[1, n]] * n, "f1_blocks": [list(range(j * size, (j + 1) * size)) for j in range(blocks)]}


def measure(space: Path, n: int, b: int, k: int, env: dict, budget: float) -> dict:
    cmd = [sys.executable, __file__, "--cell", str(space), str(k)]
    cell = {"outcomes": n, "blocks": b, "probes": k}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        cell["seconds"] = "timeout"
    else:
        if proc.returncode != 0:
            raise SystemExit(f"cell {cell} failed:\n{proc.stderr}")
        res = json.loads(proc.stdout)
        cell.update(res, us_per_probe=1e6 * res["seconds"] / (k + 1))
    print(json.dumps(cell), flush=True)
    return cell


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=float, default=10.0, help="seconds per cell")
    ap.add_argument("--out", default=str(HERE / "results" / "sweep.json"))
    ap.add_argument("--cell", nargs=2, metavar=("SPACE", "PROBES"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.cell:
        run_cell(args.cell[0], int(args.cell[1]))
        return 0

    import numpy

    signal.signal(signal.SIGTERM, signal.default_int_handler)  # unwind, so the work directory goes
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cells = []
    with tempfile.TemporaryDirectory(prefix=".sweep-", dir=HERE) as work:
        for n in OUTCOMES:
            for b in BLOCKS:
                if b > n or n % b:
                    continue
                space = Path(work) / f"space_{n}_{b}.json"
                space.write_text(json.dumps(space_doc(n, b)))
                for k in PROBES:
                    cells.append(measure(space, n, b, k, env, args.budget))
    doc = {
        "command": "tc-check, es(1/2), uniform masses, equal contiguous blocks",
        "budget_s": args.budget,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "cells": cells,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
