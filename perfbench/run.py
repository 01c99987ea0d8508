"""riskcal benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload tc_distortion --seed 1 --seconds 30 --trace 0

Each call to `riskcal.cli.main(argv)` starts after the previous one returns;
report text is captured in memory. A pass runs the workload's whole command
list; passes repeat for about `--seconds`. Afterwards the first
pass's reports are checked against the reference (oracle.py) and every later
pass must reproduce them byte for byte.

End-to-end metrics (`--trace 0`); times are in reference seconds, raw
seconds corrected for the machine's speed while they were measured
(speed.py):
  wall_s        time of one pass over the command list
  cmd_p50_ms    median latency of one CLI command
  cmd_tail_ms   latency at the highest percentile with at least 10 samples
                beyond it, in a window of TAIL_WINDOW passes
  probes_per_s  probes audited by tc_gap per second of the commands that audit
  setup_s       median over 5 set-ups of: importing riskcal in a fresh
                interpreter, generating the inputs and a warm-up call
  peak_rss_mb   peak resident memory of this process after the timed passes
Every command's latency is taken as its median over the passes, so that a
slow moment of the machine moves one sample of one command and not a metric.

`--trace 1` reruns the workload with every layer wrapped (tracing.py) and prints
the per-layer metrics instead, each per pass. A documented seed-commit
refusal (cone-check on more than 8 outcomes exits 2 with "space too large")
is not counted in `failed`; it counts in `cli.main.failed_ratio` together
with the failures, until the program answers the command and the answer
passes the check.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from oracle import Checker, Mismatch
from speed import SpeedSampler
from tracing import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "riskcal" / "data"

SETUP_REPS = 5
TRACE_SHARE = 0.35  # of --seconds spent on untraced passes in a --trace 1 run
# passes in the tail's sample window: at least ~40 command latencies each
TAIL_WINDOW = {"tc_distortion": 2, "cone_check": 3, "grid_lift": 4}
TAIL_BEYOND = 10


def _import_program():
    """Import riskcal from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import riskcal.cli
    except ImportError as e:
        raise SystemExit(f"cannot import riskcal from {SRC}: {e}") from e
    where = Path(riskcal.cli.__file__).resolve().parent
    if where != (SRC / "riskcal").resolve():
        raise SystemExit(f"riskcal was imported from {where}, not from {SRC}")
    return riskcal.cli


@dataclass
class Sample:
    """One command's outcome and its latency, raw and in reference seconds."""

    seconds: float
    scale: float  # reference seconds per raw second while it ran (speed.py)
    code: int | None
    out: str
    err: str

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


class Client:
    """Runs CLI commands one after another and captures their output."""

    def __init__(self, cli_module, sampler, tracer=None):
        self.cli = cli_module
        self.sampler = sampler
        self.tracer = tracer

    def call(self, argv: list[str]) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as e:  # argparse refusals
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        return perf_counter() - start, code, out.getvalue(), err.getvalue()

    def run_pass(self, commands) -> list[Sample]:
        tracer = self.tracer
        if tracer is not None:
            tracer.start_pass()
        samples = []
        for cmd in commands:
            if tracer is not None:
                tracer.command = len(tracer.scales)
            start = perf_counter()
            seconds, code, out, err = self.call(cmd.argv)
            scale = self.sampler.scale(start, start + seconds)
            if tracer is not None:
                tracer.scales.append(scale)
            samples.append(Sample(seconds, scale, code, out, err))
        return samples

    def run_for(self, commands, seconds: float) -> list[list[Sample]]:
        """Whole passes for about `seconds`: a pass starts only while more than
        half a pass of the budget remains."""
        passes = []
        start = perf_counter()
        while True:
            passes.append(self.run_pass(commands))
            elapsed = perf_counter() - start
            if seconds - elapsed <= 0.5 * elapsed / len(passes):
                return passes


def pass_seconds(samples: list[Sample]) -> float:
    return sum(s.ref_seconds for s in samples)


def set_up(client: Client, workload: str, seed: int, work_root: Path):
    """One set-up: fresh-interpreter import, input generation, warm-up.
    Returns its time in reference seconds and the generated inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import riskcal.cli"], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    work = Path(tempfile.mkdtemp(dir=work_root))
    inputs = workloads.build(workload, seed, work, DATA)
    space4, es = inputs.space_paths["space_4"], inputs.utility_paths["es_half"]
    client.call(["tc-check", "--space", space4, "--utility", es, "--probes", "5"])
    end = perf_counter()
    return (end - start) * client.sampler.scale(start, end), inputs


def verify(inputs, reference: dict, passes: list[list[Sample]]) -> dict:
    """Check the first pass against the reference and later passes against it."""
    checker = Checker(inputs, reference)
    first = passes[0]
    status = []
    for cmd, s in zip(inputs.commands, first):
        if checker.is_seed_rejection(cmd, s.code, s.err):
            status.append("rejected")
            continue
        try:
            if s.code is None:
                raise Mismatch("crashed:\n" + s.err)
            checker.check(cmd, s.code, s.out)
            status.append("ok")
        except Mismatch as e:
            status.append("failed")
            print(f"FAILED {cmd.kind} {cmd.space or cmd.demo} {cmd.utility or ''}: {e}", file=sys.stderr)
    counts = {"ok": 0, "failed": 0, "rejected": 0}
    for samples in passes:
        for i, s in enumerate(samples):
            same = (s.code, s.out) == (first[i].code, first[i].out)
            counts[status[i] if same else "failed"] += 1
    return {**counts, "status": status, "ambiguous": checker.ambiguous}


def end_to_end(workload: str, inputs, passes: list[list[Sample]], status: list, setups: list,
               rss_mb: float):
    # Each command stands for its median over the passes, so a slow moment
    # of the machine moves one sample of one command, not a metric.
    per_cmd = [statistics.median(samples[i].ref_seconds for samples in passes) for i in range(len(status))]
    window = TAIL_WINDOW[workload]
    ordered = sorted(per_cmd * window, reverse=True)
    probes = audit_s = 0.0
    for cmd, st, t in zip(inputs.commands, status, per_cmd):
        if cmd.audited_probes and st == "ok":
            probes += cmd.audited_probes
            audit_s += t
    metrics = {
        "wall_s": (sum(per_cmd), "s"),
        "cmd_p50_ms": (1e3 * statistics.median(per_cmd), "ms"),
        "cmd_tail_ms": (1e3 * ordered[TAIL_BEYOND], "ms"),
        "probes_per_s": (probes / audit_s if audit_s else 0.0, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw_wall = sum(statistics.median(samples[i].seconds for samples in passes) for i in range(len(status)))
    notes = {
        "passes": len(passes),
        "commands_per_pass": len(per_cmd),
        "tail_percentile": round(100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered), 2),
        "tail_samples": len(ordered),
        "raw_wall_s": round(raw_wall, 4),
        "median_scale": round(statistics.median(s.scale for samples in passes for s in samples), 4),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = _import_program()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # unwind, so the work directory goes

    work_root = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        with SpeedSampler() as sampler:
            client = Client(cli, sampler)
            setups = []
            for _ in range(SETUP_REPS):
                seconds, inputs = set_up(client, args.workload, args.seed, work_root)
                setups.append(seconds)
            commands = inputs.commands
            if args.trace:
                plain = client.run_for(commands, args.seconds * TRACE_SHARE)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = Client(cli, sampler, tracer).run_for(commands, args.seconds * (1 - TRACE_SHARE))
                finally:
                    tracer.uninstall()
                passes = plain + traced
            else:
                passes = client.run_for(commands, args.seconds)
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = verify(inputs, reference, passes)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if args.trace:
        layer = tracer.metrics(len(traced))
        layer["cli.main.failed_ratio"] = (result["failed"] + result["rejected"]) / sum(map(len, passes))
        layer["trace.overhead_s"] = (statistics.median(map(pass_seconds, traced))
                                     - statistics.median(map(pass_seconds, plain)))
        units = metric_units()
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        notes = {"untraced_passes": len(plain), "traced_passes": len(traced), "spans": len(tracer.spans)}
    else:
        metrics, notes = end_to_end(args.workload, inputs, passes, result["status"], setups, rss_mb)
    attempted = result["ok"] + result["failed"] + result["rejected"]
    notes.update({"rejected_at_seed_commit": result["rejected"], "ambiguous_checks": result["ambiguous"]})
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    for name, value in notes.items():
        print(f"# {name}: {value}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
