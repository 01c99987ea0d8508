"""Re-measure the baseline table of ROADMAP item 1 and compare.

    python3 perfbench/reanchor.py [--out perfbench/results/reanchor.json]

Each row is measured in-process on the shipped data files, as the ROADMAP
table was. The machine is shared and switches between speed states about
1.7x apart, so each row records the raw value and `measured_ref`, the value
in reference seconds (speed.py), with `slowdown`, their ratio. A row counts
as reproduced (`reproduced_raw`, `reproduced_ref`) when that value is within
25% of the ROADMAP value. Takes about a
minute, most of it the full `cone-check` on space_8.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = SRC / "riskcal" / "data"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "results" / "reanchor.json"))
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import riskcal.cli as cli
    from speed import SpeedSampler
    from riskcal.conditional import ConditionalUtility, default_probes, tc_gap
    from riskcal.io import load_space_file
    from riskcal.utility import CoherentUtility, DistortionFunction, choquet_eval, core_extreme_points

    def cli_time(argv, reps=5):
        times = []
        for _ in range(reps):
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            times.append(perf_counter() - start)
        return statistics.median(times), code, err.getvalue().strip()

    def path(name):
        return str(DATA / f"{name}.json")

    es_half = DistortionFunction.es((1, 2))
    rows = []

    marks = [perf_counter()]

    def row(item, roadmap, measured, unit, note=""):
        marks.append(perf_counter())
        scale = sampler.scale(marks[-2], marks[-1])
        rows.append({"item": item, "roadmap": roadmap, "measured": measured, "unit": unit,
                     "measured_ref": measured * scale, "slowdown": 1 / scale, "note": note,
                     "reproduced_raw": bool(roadmap) and abs(measured / roadmap - 1) <= 0.25,
                     "reproduced_ref": bool(roadmap) and abs(measured * scale / roadmap - 1) <= 0.25})
        print(json.dumps(rows[-1]), flush=True)

    with SpeedSampler() as sampler:
        marks[0] = perf_counter()
        cli_time(["tc-check", "--space", path("space_4"), "--utility", path("utility_es_half")], reps=1)  # warm-up
        for name, ms in (("space_4", 70), ("space_8", 91), ("space_12", 138)):
            t, _, _ = cli_time(["tc-check", "--space", path(name), "--utility", path("utility_es_half")])
            row(f"tc-check {name} es(1/2) 200 probes", ms, 1e3 * t, "ms")
        t, _, _ = cli_time(["eval", "--space", path("space_product_64"), "--utility", path("utility_product_8x8")])
        row("eval product_64", 69, 1e3 * t, "ms")
        t, code, err = cli_time(["cone-check", "--space", path("space_12"), "--utility", path("utility_es_half")], 1)
        row("cone-check space_12 es(1/2)", None, 1e3 * t, "ms", f"exit {code}: {err}")

        for name, us in (("space_4", 46), ("space_8", 84), ("space_product_64", 638)):
            space, _ = load_space_file(path(name))
            probes = default_probes(space, 200)
            start = perf_counter()
            for x in probes:
                choquet_eval(x, es_half, space)
            row(f"choquet_eval es(1/2) n={space.size}, per probe", us, 1e6 * (perf_counter() - start) / len(probes), "us")
        for name, us in (("space_8", 300), ("space_product_64", 1700)):
            space, filtration = load_space_file(path(name))
            cu = ConditionalUtility(CoherentUtility.from_distortion(es_half), space, filtration)
            probes = default_probes(space, 200)
            start = perf_counter()
            tc_gap(cu, probes)
            row(f"tc_gap es(1/2) n={space.size}, per probe", us, 1e6 * (perf_counter() - start) / len(probes), "us")
        space8, _ = load_space_file(path("space_8"))
        for psi, s in ((es_half, 3.5), (DistortionFunction.power(0.5), 0.7)):
            start = perf_counter()
            core_extreme_points(psi, space8)
            row(f"core_extreme_points n=8 {psi.describe()}", s, perf_counter() - start, "s")
        t, code, _ = cli_time(["cone-check", "--space", path("space_8"), "--utility", path("utility_es_half")], 1)
        row("cone-check space_8 es(1/2) 200 probes", 27.4, t, "s", f"exit {code}")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
