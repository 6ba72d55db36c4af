"""How fast the host runs right now, from a fixed pure-Python loop.

The benchmark runs on a shared 2-vCPU virtual machine whose speed swings
between two states: the same single-threaded Python work takes up to
1.6 times as long in the slow one, a state lasts from seconds to
minutes, and each vCPU has its own.  Whole runs fell in one state or the
other, so no choice of run length or median steadied the raw timings
(README.md has the figures).

So the benchmark pins itself and every process it starts to one vCPU,
times this loop on it every ``SAMPLE_INTERVAL`` seconds of serving, and
reports timings at the reference speed: a round served while the loop
took ``s`` times ``REFERENCE_MS`` on average has its latencies divided
by ``s``.  The loop uses no ``repro`` code, so a change to the optimizer
cannot move it.
"""

from __future__ import annotations

import os
import statistics
import time

#: What one loop takes at the reference speed (this machine's fast state).
REFERENCE_MS = 4.1
ITERATIONS = 50_000
#: Seconds of serving between two samples inside a round.  The speed
#: changes faster than a round lasts, so a round is judged by the mean
#: of every sample taken during it, not by its two ends.
SAMPLE_INTERVAL = 0.1


def loop_ms() -> float:
    started = time.perf_counter()
    total = 0
    for index in range(ITERATIONS):
        total += index * index % 7
    return (time.perf_counter() - started) * 1e3


def slowdown(repeats: int = 10) -> float:
    """How many times slower than the reference the host runs right now."""
    return statistics.median(loop_ms() for _ in range(repeats)) / REFERENCE_MS


class Speedometer:
    """Samples the loop through a round of serving; see the module docstring."""

    def __init__(self) -> None:
        self._samples = [loop_ms()]
        self._served = 0.0

    def served(self, seconds: float) -> float:
        """Count ``seconds`` of serving; returns the time spent sampling."""
        self._served += seconds
        if self._served < SAMPLE_INTERVAL:
            return 0.0
        self._served = 0.0
        started = time.perf_counter()
        self._samples.append(loop_ms())
        return time.perf_counter() - started

    def round_slowdown(self) -> float:
        """The mean slowdown since the last call (samples at both ends)."""
        self._samples.append(loop_ms())
        value = statistics.fmean(self._samples) / REFERENCE_MS
        self._samples = self._samples[-1:]
        self._served = 0.0
        return value


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one vCPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
