"""Reference-speed clock: wall time rescaled by the machine's momentary speed.

The speed of a small shared machine drifts: on the 2-vCPU box this
benchmark was written on, a fixed pure-Python loop took from 0.57 to 0.81 ms
for tens of seconds at a time.  Repeating the run does not remove a drift
that long from wall-clock medians.  So while a workload runs, a SIGALRM
handler runs :func:`kernel` every ``PERIOD_S`` seconds in the same process
and records how long it took.  An interval ``[t0, t1]`` is then reported as::

    (t1 - t0 - kernel time inside it) * NOMINAL_KERNEL_S / median kernel time near it

that is, in seconds of a machine on which the kernel takes exactly
``NOMINAL_KERNEL_S`` (about its typical time on that box).  There, over ten
runs of each workload, the quartile distance of ``graphs_per_s`` was 0.15 to
0.20 of the median in wall-clock seconds and 0.06 to 0.08 in reference-speed
seconds.  The rescaling is not exact: under contention gaindex slows down
somewhat more than the kernel does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
WINDOW_S = 0.5
NOMINAL_KERNEL_S = 0.0006


def kernel() -> int:
    total = 0
    for i in range(10000):
        total += i * i
    return total


def kernel_seconds(samples: int = 3) -> float:
    """Median time of a few kernel runs, now."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedClock:
    """Samples the kernel from a timer signal between :meth:`start` and :meth:`stop`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = self.clock()
        kernel()
        self.starts.append(t0)
        self.durations.append(self.clock() - t0)

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of work in ``[t0, t1]``."""
        inside = self.durations[
            bisect.bisect_left(self.starts, t0) : bisect.bisect_right(self.starts, t1)
        ]
        mid = (t0 + t1) / 2
        near = self.durations[
            bisect.bisect_left(self.starts, min(t0, mid - WINDOW_S)) : bisect.bisect_right(
                self.starts, max(t1, mid + WINDOW_S)
            )
        ]
        speed = statistics.median(near or self.durations) / NOMINAL_KERNEL_S
        return (t1 - t0 - sum(inside)) / speed
