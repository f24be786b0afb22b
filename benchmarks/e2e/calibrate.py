"""Speed calibration for a host whose speed changes under the benchmark.

The 2-core virtual machines this benchmark runs on share physical cores with
other tenants: the same Python code alternates, for seconds to tens of seconds
at a time and on each virtual CPU independently, between a fast state and one
1.45-1.75x slower.  Raw wall-clock medians of ten 15-second runs then spread
(first to third quartile over median) by 0.26-0.37, wider than any bound a
benchmark may declare.

So the harness pins itself to one CPU and keeps a *speed trace*: a background
thread times one fixed kernel -- an object-heavy loop (attribute access, calls,
allocation, a sort) followed by an integer loop, which slow down by different
amounts, as the library's geometric and numeric code do -- every 25 ms.  A
CPU-bound duration measured in this process over ``[start, end]`` is divided
by the mean slowdown of the trace over that interval (see
:meth:`SpeedTrace.slowdown` for what counts).  The kernel holds the
interpreter lock for under a millisecond, far below the 5 ms switch interval,
so a pass is never split by another thread, and the trace costs the measured
code about 2.5 % of its time, evenly.

On recorded traces (README.md, "Noise") this takes the spread of single
0.5-0.8 s builds from 0.16-0.18 raw to 0.04, and of medians of three to
0.02-0.03.

``KERNEL_REF_S`` is the kernel's floor on the machine the reference run was
taken on, so reported durations read as that machine's undisturbed wall-clock.
On another machine every normalised duration is off by one constant factor,
which cancels whenever two runs on one machine are compared.

Not normalised: durations that pass in other processes or in timers (the
``serve`` workload's client-observed latency and rate; reads that wait for the
interpreter lock during a checkpoint), span durations of the traced run, byte
and page counts, and memory.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Set

#: Fast-state floor (5th percentile over 5 s) of the kernel on the reference box.
KERNEL_REF_S = 0.000575
#: Seconds between two samples of the trace.
PERIOD_S = 0.025
#: Shortest stretch of the trace a slowdown is taken over (ten samples).
MIN_WINDOW_S = 0.25


class _P:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_POINTS: List[_P] = [_P(float(i % 37) * 3.1, float(i % 91) * 1.7) for i in range(300)]


def kernel() -> float:
    """Seconds one pass of the calibration kernel takes right now."""
    started = time.perf_counter()
    points = [_P(p.x + 1.0, p.y) for p in _POINTS]
    nearest = {}
    for i, point in enumerate(points):
        best = math.inf
        for other in points[i + 1:i + 8]:
            value = math.hypot(point.x - other.x, point.y - other.y)
            if value < best:
                best = value
        nearest[i] = (best, i)
    sorted(nearest.values())
    total = 0
    for i in range(4000):
        total += i * i
    return time.perf_counter() - started


class SpeedTrace:
    """The slowdown of the CPU this process is pinned to, sampled over time."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._all_cpus: Optional[Set[int]] = None

    def start(self) -> None:
        """Pin the calling thread to its faster CPU and start sampling.

        Threads started afterwards inherit the pin, so the trace describes
        the CPU every thread of the harness runs on.
        """
        if hasattr(os, "sched_setaffinity"):
            self._all_cpus = set(os.sched_getaffinity(0))
            best = None
            for cpu in sorted(self._all_cpus):
                os.sched_setaffinity(0, {cpu})
                pace = min(kernel() for _ in range(3))
                if best is None or pace < best[0]:
                    best = (pace, cpu)
            assert best is not None
            os.sched_setaffinity(0, {best[1]})
        self._sample()
        self._thread = threading.Thread(target=self._run, name="e2e-speed", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        if self._all_cpus is not None:
            os.sched_setaffinity(0, self._all_cpus)

    def _sample(self) -> None:
        value = kernel()
        self._times.append(time.perf_counter())
        self._values.append(value)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    @contextmanager
    def unpinned(self) -> Iterator[None]:
        """Let the calling thread (and the processes it forks) use every CPU."""
        if self._all_cpus is None:
            yield
            return
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self._all_cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, pinned)

    def release(self, pid: int) -> None:
        """Give a child process, started while pinned, every CPU back."""
        if self._all_cpus is not None:
            os.sched_setaffinity(pid, self._all_cpus)

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown over ``[start, end]`` (``time.perf_counter`` values); 1.0 is the reference.

        The interval is widened about its middle to :data:`MIN_WINDOW_S`, so
        that a short operation is not judged by the two samples next to it;
        the machine's state lasts far longer than that.  A sample more than
        twice the window's median was preempted in mid-pass (up to 100x has
        been seen): it says nothing about speed and is left out of the mean.
        """
        pad = (MIN_WINDOW_S - (end - start)) / 2.0
        if pad > 0.0:
            start, end = start - pad, end + pad
        low = max(0, bisect.bisect_left(self._times, start) - 1)
        high = bisect.bisect_right(self._times, end) + 1
        window = self._values[low:high]
        limit = 2.0 * statistics.median(window)
        return statistics.fmean(v for v in window if v <= limit) / KERNEL_REF_S
