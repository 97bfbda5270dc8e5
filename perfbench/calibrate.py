"""Machine-speed reference for the benchmark's timings.

The benchmark shares its machine with other work. On a shared 2-core VM the
speed a Python process got drifted by up to 2x within minutes, in both wall
and CPU time. To keep runs comparable, the timed loop also times a fixed
reference task at regular intervals. The task does not use sumdiff, so no
change to the package can speed it up or slow it down. It does the kind of
work sumdiff's kernels do: masked shifts of 64-bit masks through method
calls, minimum search and ``bit_count``. Of the tasks tried, this one tracked
the speed of scans, sweeps and CLI requests most closely.

Every end-to-end time is then reported at reference speed. An operation's
time is divided by its speed factor: the median of the reference timings
taken from WINDOW_S before the operation started until WINDOW_S after it
ended, over REFERENCE_S. The speed swings within seconds, so a factor local to
each operation corrects more than a single factor for the whole run. If the
machine is 10% slower than usual around an operation, its factor is near 1.1.
The calibrated time then comes out near the usual one. The raw times and the
median factor are printed beside the calibrated numbers.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.005  # reference-task time that defines reference speed
WINDOW_S = 1.0


class _Residues:
    """A 64-element group shaped like Z8 x Z8, shifted one residue class at a
    time, like the product-group kernel."""

    __slots__ = ("full", "select")

    def __init__(self):
        self.full = (1 << 64) - 1
        self.select = [sum(1 << i for i in range(r, 64, 8)) for r in range(8)]

    def shift(self, mask: int, a: int) -> int:
        acc = 0
        for r in range(8):
            part = mask & self.select[r]
            if part:
                acc |= part << a if r + a < 8 else part >> (8 - a)
        return acc & self.full


def _reference_task() -> int:
    g = _Residues()
    weight = 0
    for m in range(1, 300):
        mask = (m * 0x9E3779B97F4A7C15) & g.full
        best = mask
        for a in range(1, 8):
            shifted = g.shift(mask, a)
            if shifted < best:
                best = shifted
        weight += best.bit_count()
    return weight


def reference_s() -> float:
    """Time one run of the reference task, with the cyclic GC held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_task()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference timings every ``every`` seconds while the loop runs.

    With ``interrupt``, a SIGALRM handler takes them, so a long operation is
    sampled from inside; ``spent`` is the time the handler took, which the
    caller subtracts from the operation it interrupted. Without it, the loop
    calls ``between_ops``: for operations that wait on child processes, which
    a timing inside them would compete with for the CPU.
    """

    def __init__(self, every: float, interrupt: bool):
        self.every = every
        self.interrupt = interrupt
        self.reference = []  # (perf_counter at the timing, reference_s())
        self.spent = 0.0

    def take(self, *_) -> None:
        t0 = perf_counter()
        self.reference.append((t0, reference_s()))
        self.spent += perf_counter() - t0

    def between_ops(self) -> None:
        if not self.interrupt and perf_counter() - self.reference[-1][0] >= self.every:
            self.take()

    def __enter__(self):
        self.take()
        if self.interrupt:
            self._previous = signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.take()


def speed_factor(durations) -> float:
    return statistics.median(durations) / REFERENCE_S


def calibrate(start: float, elapsed: float, reference) -> float:
    """``elapsed`` at reference speed. ``reference`` is a time-ordered list of
    (perf_counter at the timing, reference_s()), with timings on both sides of
    the operation."""
    times = [t for t, _ in reference]
    lo = bisect_left(times, start - WINDOW_S)
    hi = bisect_right(times, start + elapsed + WINDOW_S)
    if lo == hi:  # no timing close by: use the nearest one
        lo = max(0, min(lo, len(times) - 1))
        hi = lo + 1
    return elapsed / speed_factor([d for _, d in reference[lo:hi]])
