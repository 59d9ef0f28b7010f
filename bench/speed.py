"""Calibration of the benchmark's timings against the machine's speed.

The shared machine the benchmark runs on changes speed by up to half
over tens of seconds, with slow stretches longer than a run, so raw times
of one program differ more between runs than a regression worth catching.
Such drift slows all interpreted code alike.  The benchmark therefore
times a fixed kernel of its own every ``INTERVAL`` seconds, from a timer
signal, and reports every time scaled piece by piece by
``REFERENCE_SECONDS / kernel time nearby``: the time the work would take
on a machine where the kernel takes ``REFERENCE_SECONDS``.  The kernel's
own time is taken out first.  The kernel never calls the program and runs
with the garbage collector off, so a slower program cannot slow the
kernel and always shows as a larger calibrated time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

#: Nominal kernel time that calibrated times are scaled to; about the
#: kernel's time on the machine the benchmark was written on at its fastest.
REFERENCE_SECONDS = 0.0015
#: Seconds between kernel samples while sampling is on.
INTERVAL = 0.05


def kernel() -> int:
    """Fixed interpreted work like the engine's: bit tricks, tuples, dicts, sets."""
    acc = 0
    seen: dict = {}
    for i in range(3600):
        m = (i * 2654435761) & 0xFFFF
        key = (m & 0xFF, m >> 8)
        seen[key] = seen.get(key, 0) + 1
        acc ^= m & -m
    return acc + len({k for k in seen if k[0] & 1})


class Speed:
    """Kernel samples of one run; ``with speed:`` samples on a timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.listener = None  # called with each sample's duration
        self._handler = None
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:  # a timer signal arrived during a sample
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.starts.append(start)
        self.seconds.append(end - start)
        if self.listener is not None:
            self.listener(end - start)

    def __enter__(self) -> "Speed":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def sampled(self, start: float, end: float) -> float:
        """Time spent in samples begun between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.seconds[lo:hi])

    def calibrated(self, start: float, end: float) -> float:
        """Work time between ``start`` and ``end`` at the reference speed.

        The samples begun in between cut the interval into pieces; each
        piece, without the samples, is scaled by the median of the two
        samples on either side of it, which a single disturbed sample does
        not move.  Samples run to completion inside the work that they
        interrupt, so none straddles ``start`` or ``end``.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        total, begun = 0.0, start
        for after in range(first, last + 1):
            piece_end = self.starts[after] if after < last else end
            around = self.seconds[max(after - 2, 0):after + 2]
            total += (piece_end - begun) * REFERENCE_SECONDS / statistics.median(around)
            if after < last:
                begun = self.starts[after] + self.seconds[after]
        return total
