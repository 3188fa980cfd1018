"""Host speed, sampled while the program runs, to steady the timings.

The machine the benchmark runs on is shared: for stretches of seconds to
minutes the same code runs up to 1.9x slower than in calm stretches.  A
:class:`HostSpeed` sampler interrupts the process every
:data:`INTERVAL_S` seconds (``SIGALRM``) and times a fixed pure-Python
reference loop.  The loop is the benchmark's own code and touches no
memory beyond a few locals, so a program change does not move it; the
host does.  :meth:`HostSpeed.adjust` then turns a wall-clock interval
into the time it would have taken at the reference speed
(:data:`REFERENCE_S` per loop): the time spent in the reference loop is
taken out, and each stretch between two samples is divided by the host's
slowdown around it.

Every timing metric the untraced run reports is adjusted this way.  The
raw wall times and the mean slowdown are kept in the run record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

__all__ = ["HostSpeed", "INTERVAL_S", "REFERENCE_S"]

_CLOCK = time.perf_counter

#: Seconds between two samples of the host's speed.
INTERVAL_S = 0.25

#: Seconds one reference loop took, as a median over several minutes, on
#: the 2-core Xeon host the benchmark was built on; adjusted times are
#: times at that speed.
REFERENCE_S = 0.0025

#: A sample's slowdown is the median over this many neighbouring
#: samples, so that one interrupted loop does not decide it.
_SMOOTH = 5


def _reference() -> int:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the host's speed on ``SIGALRM`` while started."""

    def __init__(self) -> None:
        #: (start, duration) of every reference loop, in clock order.
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: Seconds spent in reference loops so far; an interval's own
        #: reference time is the difference of two readings.
        self.spent_s = 0.0
        self._factors: List[float] = []
        self._running = False

    def sample(self, *_: object) -> None:
        start = _CLOCK()
        _reference()
        duration = _CLOCK() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.spent_s += _CLOCK() - start

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling and fix the slowdowns :meth:`adjust` uses."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False
        self.sample()
        half = _SMOOTH // 2
        durations = self.durations
        self._factors = [
            statistics.median(durations[max(0, i - half):i + half + 1])
            / REFERENCE_S
            for i in range(len(durations))
        ]

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the samples taken in [start, end]."""
        low = bisect.bisect_left(self.starts, start)
        high = max(low + 1, bisect.bisect_right(self.starts, end))
        inside = self._factors[low:high] or self._factors[-1:]
        return statistics.fmean(inside)

    def adjust(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at the reference speed.

        Reference loops inside the interval are left out, and each
        stretch is divided by the slowdown of the next sample, the last
        one by that of the sample before it.
        """
        starts, factors = self.starts, self._factors
        last = len(starts) - 1
        i = bisect.bisect_right(starts, start)
        cursor, total = start, 0.0
        while i <= last and starts[i] < end:
            total += (starts[i] - cursor) / factors[i]
            cursor = min(end, starts[i] + self.durations[i])
            i += 1
        total += max(0.0, end - cursor) / factors[min(i, last)]
        return total
