"""Machine-speed sampling, so that times taken at different moments compare.

The shared machine the benchmark was built on switches between speed states
about 1.7x apart, often several times within one command; raw times of
identical work spread by 25% between runs. While the benchmark runs, a
sampler thread wakes every 10 ms and times a fixed pure-Python kernel of
about 0.15 ms (Fraction arithmetic, the program's own kind of work) on the
CPU the client runs on: the process is pinned to the CPU it starts on, which
this thread and the subprocesses it starts inherit. A latency in reference
seconds is the raw latency times REF_S over the median kernel time sampled
while it ran (for an interval that holds fewer than MIN_SAMPLES samples, the
last MIN_SAMPLES samples before its end).
"""

from __future__ import annotations

import os
import statistics
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REF_S = 1.5e-4
PERIOD_S = 0.01
MIN_SAMPLES = 5


def _kernel() -> None:
    s = Fraction(0)
    half = Fraction(1, 2)
    for i in range(1, 40):
        s += Fraction(1, i % 7 + 1)
        if i % 5 == 0:
            s = max((s - half) / half, Fraction(0))


def _current_cpu() -> int | None:
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class SpeedSampler:
    """Context manager: pins the process, samples the kernel, scales latencies."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds), appended by the thread
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)
        self._affinity = None

    def __enter__(self) -> "SpeedSampler":
        cpu = _current_cpu()
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {cpu})
        self._thread.start()
        while len(self.samples) < MIN_SAMPLES:
            self._stop.wait(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = perf_counter()
            _kernel()
            self.samples.append((start, perf_counter() - start))

    def scale(self, start: float, end: float) -> float:
        """Factor turning raw seconds spent in [start, end] into reference seconds."""
        samples = self.samples[:]
        hi = bisect_right(samples, end, key=lambda s: s[0])
        lo = min(bisect_left(samples, start, key=lambda s: s[0]), max(0, hi - MIN_SAMPLES))
        return REF_S / statistics.median(s[1] for s in samples[lo:hi])
