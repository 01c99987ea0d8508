"""Per-layer tracing from outside the program.

The tracer replaces each listed public function at every module binding of
the `riskcal` package (so `riskcal.conditional.choquet_eval`, imported by
name, is wrapped as well as `riskcal.utility.choquet_eval`), records one span
per call with its parent span and the command it belongs to, and keeps the
spans in memory until the run ends. `DistortionFunction.psi` runs about 10^5
times per pass, so it is counted, not spanned. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "io": ("load_space_file", "load_utility_file", "emit_report_text", "emit_report_csv"),
    "space": ("validate", "conditional_resolution", "build_uniform_grid"),
    "utility": ("choquet_eval", "scenario_min_eval", "core_extreme_points", "product_example_eval"),
    "conditional": ("default_probes", "tc_gap", "blockwise_eval", "recompose", "cone_decompose"),
    "lift": ("lift_pair", "find_b", "additivity_probe"),
}

# per-layer metrics beyond `.calls` and `.self_s`, with their units
EXTRA_METRICS = {
    "utility.psi.calls": "count",
    "conditional.tc_gap.us_per_probe": "us",
    "conditional.cone_decompose.feasible_ratio": "ratio",
    "io.emit.bytes": "bytes",
    "utility.core_extreme_points.distinct_ratio": "ratio",
    "utility.core_extreme_points.repeat_ratio": "ratio",
    "space.conditional_resolution.repeat_ratio": "ratio",
    "cli.main.failed_ratio": "ratio",
    "trace.overhead_s": "s",
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Wraps the riskcal layers while installed; collects spans and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, command id, start, end]
        self.stack: list[int] = []
        self.command = -1  # sequence number of the command being run
        self.scales: list[float] = []  # reference-seconds scale per command
        self.psi_calls = 0
        self.probes = 0
        self.cone_done = 0
        self.cone_feasible = 0
        self.emit_bytes = 0
        self.vertices = 0
        self.permutations = 0
        self.core_seen: set = set()
        self.core_repeats = 0
        self.resolution_seen: set = set()
        self.resolution_repeats = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import riskcal.utility as utility

        wrappers = {}  # id of an original function -> its wrapper
        for mod, fns in LAYERS.items():
            module = sys.modules[f"riskcal.{mod}"]
            for fn in fns:
                wrappers[id(getattr(module, fn))] = self._wrap(f"{mod}.{fn}", getattr(module, fn))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "riskcal" or name.startswith("riskcal.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

        psi = utility.DistortionFunction.psi

        def counted_psi(this, p):
            self.psi_calls += 1
            return psi(this, p)

        self._undo.append((utility.DistortionFunction, "psi", psi))
        utility.DistortionFunction.psi = counted_psi

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.command, perf_counter(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = perf_counter()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ counters

    def _before_conditional_tc_gap(self, cu, probes, check_cones=False):
        self.probes += len(probes)

    def _after_conditional_cone_decompose(self, result, cu, x):
        self.cone_done += 1
        self.cone_feasible += bool(result[0])

    def _after_io_emit_report_text(self, text, *args):
        self.emit_bytes += len(text.encode("utf-8"))

    _after_io_emit_report_csv = _after_io_emit_report_text

    def _before_utility_core_extreme_points(self, psi, space, cap=8):
        key = (space.mass, psi)
        if key in self.core_seen:
            self.core_repeats += 1
        self.core_seen.add(key)

    def _after_utility_core_extreme_points(self, result, psi, space, cap=8):
        self.vertices += len(result.measures)
        self.permutations += math.factorial(space.size)

    def _before_space_conditional_resolution(self, space, filtration):
        key = (space.mass, filtration.f1.blocks)
        if key in self.resolution_seen:
            self.resolution_repeats += 1
        self.resolution_seen.add(key)

    def start_pass(self) -> None:
        """Repeat ratios count calls already made within the same pass."""
        self.core_seen.clear()
        self.resolution_seen.clear()

    # ------------------------------------------------------------ results

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics: every count and time divided by `passes`;
        times in reference seconds (see run.py)."""
        names = span_names()
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        child = [0.0] * len(self.spans)
        tc_gap_s = 0.0
        for name, parent, _cmd, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, parent, cmd, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += ((end - start) - child[idx]) * self.scales[cmd]
            if name == "conditional.tc_gap":
                tc_gap_s += (end - start) * self.scales[cmd]
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        core_calls = calls["utility.core_extreme_points"]
        res_calls = calls["space.conditional_resolution"]
        out.update({
            "utility.psi.calls": self.psi_calls / passes,
            "conditional.tc_gap.us_per_probe": 1e6 * tc_gap_s / self.probes if self.probes else 0.0,
            "conditional.cone_decompose.feasible_ratio":
                self.cone_feasible / self.cone_done if self.cone_done else 0.0,
            "io.emit.bytes": self.emit_bytes / passes,
            "utility.core_extreme_points.distinct_ratio":
                self.vertices / self.permutations if self.permutations else 0.0,
            "utility.core_extreme_points.repeat_ratio": self.core_repeats / core_calls if core_calls else 0.0,
            "space.conditional_resolution.repeat_ratio":
                self.resolution_repeats / res_calls if res_calls else 0.0,
        })
        return out
