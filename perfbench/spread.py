"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload cone_check --seeds 1-10 [--out FILE]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of that median, which is what the metric bounds in
BENCHMARK.json are compared with. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=None, help="also write the runs and the summary here (JSON)")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": statistics.median(values), "spread": spread, "bound": bounds.get(name)}
        print(f"{name:14s} median {statistics.median(values):12.4f}  spread {spread:.4f}  bound {bounds.get(name)}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs,
                                              "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
