"""Run the benchmark on another revision and on this checkout in alternating pairs.

    python3 tools/bench_pairs.py --against REV --workload W --pairs N --seed S
    python3 tools/bench_pairs.py --against REV --workload W --pairs 1 --seed S --trace 1 --out pair.json

REV's files are exported with `git archive` into a temporary directory and
this checkout's working tree is copied into another, so both sides run from
fresh directories; `perfbench/run.py` runs unchanged in each, importing
riskcal from its own src/. REV is the parent side, the working tree the
change side. Within
a pair both sides use the same seed and the run length of BENCHMARK.json;
the side that runs first alternates, the parent first in pair 0.

For each metric of the runs' result lines, and for the number of passes
each run kept, it prints each side's median and quartiles, how many pairs
the change won (ties count for neither), the ratio of the medians
change/parent, and for the end-to-end metrics of BENCHMARK.json whether
that ratio stays within the metric's bound. Since perfbench/run.py keeps
every pass's reports, peak_rss_mb grows with the passes a faster side
keeps: over all runs of the invocation it prints the least-squares slope of
peak_rss_mb against passes (MB per kept pass) and its run count. `--out`
writes the runs and that summary as JSON. Exits 1 if any run is not
`correct` or failed commands, else 0; 2 if REV cannot be exported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile

from git_export import ROOT, copy_worktree, export

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
# a run of fixed length keeps more passes the faster its side is
BETTER = {"passes": "higher", **{m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}}


def run_argv(workload: str, seed: int, trace: int) -> list[str]:
    """The benchmark command, run as long as BENCHMARK.json sets."""
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]


def run_once(tree, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in `tree`: its result line, plus the pass counts it noted."""
    cmd = [sys.executable, *run_argv(workload, seed, trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode} in {tree}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    notes = {}
    for line in lines:
        if line.startswith("# ") and "passes:" in line:
            name, value = line[2:].split(":", 1)
            notes[name] = int(value)
    return {**result, **notes}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per metric, and for `passes` when the runs note it: each side's median
    and quartiles, the change's pair wins, the change/parent ratio of medians
    and, for end-to-end metrics, the bound. The peak_rss_mb row also gets
    `mb_per_pass` and `slope_runs`, the least-squares slope of peak_rss_mb
    against passes over every run, when the runs kept more than one count."""
    pairs: dict[int, dict] = {}
    for run in runs:
        values = {name: m["value"] for name, m in run["metrics"].items()}
        if "passes" in run:
            values["passes"] = run["passes"]
        pairs.setdefault(run["pair"], {})[run["side"]] = values
    summary = {}
    for name in next(iter(pairs.values()))["parent"]:
        parent = [sides["parent"][name] for sides in pairs.values()]
        change = [sides["change"][name] for sides in pairs.values()]
        better = BETTER.get(name, "lower")
        sign = 1 if better == "lower" else -1
        p, c = quartiles(parent), quartiles(change)
        ratio = c["median"] / p["median"] if p["median"] else None
        row = {
            "parent": p,
            "change": c,
            "change_over_parent": ratio,
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
            "pairs": len(parent),
            "median_diff": sign * (p["median"] - c["median"]),
            "parent_iqr": p["q3"] - p["q1"],
        }
        if name in BOUNDS and ratio is not None:
            bound = BOUNDS[name]["bound"]
            row["bound"] = bound
            row["within_bound"] = ratio <= 1 + bound if better == "lower" else ratio >= 1 - bound
        summary[name] = row
    if "peak_rss_mb" in summary and "passes" in summary:
        passes = [run["passes"] for run in runs]
        if len(set(passes)) > 1:
            rss = [run["metrics"]["peak_rss_mb"]["value"] for run in runs]
            summary["peak_rss_mb"]["mb_per_pass"] = statistics.linear_regression(passes, rss).slope
            summary["peak_rss_mb"]["slope_runs"] = len(runs)
    return summary


def print_summary(summary: dict) -> None:
    print(f"{'metric':40s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'wins':>7s} {'ratio':>7s}  bound")
    for name, row in summary.items():
        p, c = row["parent"], row["change"]
        sides = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]" for s in (p, c)]
        ratio = "-" if row["change_over_parent"] is None else f"{row['change_over_parent']:.4f}"
        bound = ""
        if "bound" in row:
            bound = f"{'within' if row['within_bound'] else 'OUTSIDE'} {row['bound']:g}"
        print(f"{name:40s} {sides[0]:>32s} {sides[1]:>32s} {row['change_wins']:>3d}/{row['pairs']:<3d} "
              f"{ratio:>7s}  {bound}")
    rss = summary.get("peak_rss_mb", {})
    if "mb_per_pass" in rss:
        print(f"peak_rss_mb per kept pass: {rss['mb_per_pass']:.4g} MB (least squares over {rss['slope_runs']} runs)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, metavar="REV", help="the parent side's revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    runs = []
    with tempfile.TemporaryDirectory() as parent_tree, tempfile.TemporaryDirectory() as change_tree:
        export(args.against, parent_tree)
        copy_worktree(change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed, args.trace)
                runs.append({"workload": args.workload, "seed": args.seed, "pair": pair, "side": side,
                             "ran_first": side == order[0], **result})
                print(f"pair {pair} {side}: correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
    summary = summarize(runs)
    print_summary(summary)
    if args.out:
        command = " ".join(["python3", *run_argv(args.workload, args.seed, args.trace)])
        doc = {"against": args.against, "command": command, "runs": runs, "summary": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
