"""The developer tools under tools/: the report battery, its recorded
digests and its revision export, and the pair summary of tools/bench_pairs.py;
and the names perfbench/tracing.py wraps."""

import ast
import importlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import report_battery  # noqa: E402

# the interpreter that recorded tests/data/report_battery.txt
RECORDED_ON = "cpython 3.11 glibc 2.36 x86_64"


def _interpreter() -> str:
    return " ".join([sys.implementation.name, "%d.%d" % sys.version_info[:2], *platform.libc_ver(), platform.machine()])


def test_every_report_matches_its_recorded_digest(monkeypatch):
    """Every command of tools/report_battery.py, run in-process, must give the
    line recorded in tests/data/report_battery.txt; a failure names each
    command whose report changed. A change that moves reports on purpose
    re-records the file (`PYTHONPATH=src python3 tools/report_battery.py >
    tests/data/report_battery.txt`) in the same commit.

    On an interpreter other than RECORDED_ON (another implementation,
    major.minor version, C library or machine) two kinds of line are left
    out, since their text is not the program's own: argparse's help and
    usage text (stdout or stderr starting with `usage:`), which wraps and
    words differently across Python versions, and every command naming
    utility_power_half.json, whose psi is the C library's pow. Every other
    line must still match."""
    monkeypatch.setenv("COLUMNS", "80")  # restored after the battery sets it
    recorded = (ROOT / "tests" / "data" / "report_battery.txt").read_text(encoding="utf-8").splitlines()
    *recorded, recorded_total = recorded
    portable_only = _interpreter() != RECORDED_ON
    runs = list(report_battery.reports())
    lines = [report_battery.fingerprint(*run) for run in runs]
    changed, left_out = [], 0
    for (argv, _, out, err), line, old in zip(runs, lines, recorded):
        argparse_text = out.startswith("usage:") or err.startswith("usage:")
        if portable_only and (argparse_text or "utility_power_half.json" in argv):
            left_out += 1
        elif line != old:
            changed.append(" ".join(argv))
    assert not changed, f"{len(changed)} reports changed:\n" + "\n".join(changed)
    assert len(lines) == len(recorded), f"{len(lines)} commands run, {len(recorded)} recorded"
    if not left_out:
        assert report_battery.total(lines) == recorded_total


def test_report_battery_against_an_unknown_revision_prints_one_line_and_exits_2():
    # the failed `git archive` used to escape as a CalledProcessError traceback
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "report_battery.py"), "--against", "nosuchrev"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot export nosuchrev: ")
    assert "nosuchrev" in lines[0][len("cannot export nosuchrev: "):]


def test_report_battery_records_a_command_past_its_timeout_and_goes_on(monkeypatch):
    # every command runs under a timeout, so --against a revision whose search never ends still finishes
    def main(argv):
        if argv == ["hang"]:
            while True:
                pass
        print("done")
        return 0

    monkeypatch.setattr(report_battery.riskcal.cli, "main", main)
    monkeypatch.setattr(report_battery, "TIMEOUT_S", 0.2)
    start = time.perf_counter()
    assert report_battery.run(["hang"]) == ("timeout", "", "")
    assert time.perf_counter() - start < 5.0
    assert report_battery.run(["quick"]) == (0, "done\n", "")
    time.sleep(0.3)  # the quick command's timer was cancelled, so nothing fires now


def _run(pair, side, wall, rss):
    return {"pair": pair, "side": side, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                                    "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_bench_pairs_summary_counts_wins_by_direction_and_checks_each_bound():
    runs = []
    for pair, (pw, cw, prss, crss) in enumerate([(1.0, 0.8, 50.0, 56.0), (1.2, 0.9, 52.0, 57.0),
                                                 (1.1, 1.15, 51.0, 55.0)]):
        runs += [_run(pair, "parent", pw, prss), _run(pair, "change", cw, crss)]
    summary = bench_pairs.summarize(runs)
    wall, rss = summary["wall_s"], summary["peak_rss_mb"]
    assert wall["parent"] == {"median": 1.1, "q1": pytest.approx(1.05), "q3": pytest.approx(1.15)}
    assert wall["change_wins"] == 2 and wall["pairs"] == 3
    assert wall["change_over_parent"] == pytest.approx(0.9 / 1.1)
    assert wall["bound"] == 0.25 and wall["within_bound"]
    assert wall["median_diff"] == pytest.approx(0.2) and wall["parent_iqr"] == pytest.approx(0.1)
    # +9.8% against a +10% bound is within; the change lost every pair
    assert rss["change_wins"] == 0 and rss["within_bound"]
    assert rss["change_over_parent"] == pytest.approx(56.0 / 51.0)
    runs[1]["metrics"]["peak_rss_mb"]["value"] = runs[3]["metrics"]["peak_rss_mb"]["value"] = 60.0
    assert not bench_pairs.summarize(runs)["peak_rss_mb"]["within_bound"]


def test_bench_pairs_summary_reads_passes_and_the_rss_slope_per_kept_pass():
    # peak RSS exactly 40 MB + 0.25 MB per kept pass: the slope over all runs is 0.25
    runs = []
    for pair, (p_passes, c_passes) in enumerate([(10, 14), (12, 15), (11, 13)]):
        for side, passes in (("parent", p_passes), ("change", c_passes)):
            run = _run(pair, side, 1.0, 40.0 + 0.25 * passes)
            runs.append({**run, "passes": passes})
    summary = bench_pairs.summarize(runs)
    assert summary["passes"]["parent"]["median"] == 11 and summary["passes"]["change"]["median"] == 14
    assert summary["passes"]["change_wins"] == 3  # more passes in the same run length is better
    assert summary["peak_rss_mb"]["mb_per_pass"] == pytest.approx(0.25)
    assert summary["peak_rss_mb"]["slope_runs"] == 6
    # runs that note no pass count, or all the same one, give no slope
    assert "mb_per_pass" not in bench_pairs.summarize([{**r, "passes": 12} for r in runs])["peak_rss_mb"]
    assert "passes" not in bench_pairs.summarize([_run(r["pair"], r["side"], 1.0, 50.0) for r in runs])


def test_every_traced_name_resolves():
    """perfbench/tracing.py wraps each LAYERS entry by name, with a getattr on
    riskcal.<module>, and counts DistortionFunction.psi: a deleted or renamed
    function breaks `perfbench/run.py --trace 1`. The file is parsed, not run."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    assert all(layers.values())
    missing = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"riskcal.{mod}"), fn, None))]
    assert not missing, f"perfbench/tracing.py wraps names riskcal lacks: {missing}"
    assert callable(importlib.import_module("riskcal.utility").DistortionFunction.psi)
