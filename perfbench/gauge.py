"""Host speed gauge: wall times scaled to a fixed reference speed.

The benchmark runs on shared hosts whose speed swings by up to 2x over
seconds to minutes, with the process on the CPU all the while (see the
Noise section of README.md).  A fixed chunk of exact rational arithmetic,
the kind of work paratile does, is timed next to every operation: once
before it, once after it, and every ``tick_s`` seconds while it runs, from
a SIGALRM handler.  The handler's own time is taken out of the operation's
wall time, and

    scaled = wall * mean(REF_CHUNK_S / chunk time)

is the operation's time on a host where the chunk takes ``REF_CHUNK_S``.
The chunk does not touch paratile, so a change to the program moves the
scaled time as it moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

REF_TERMS = 400
# the chunk's time on a 2-vCPU Xeon VM (Python 3.11) in a fast phase: the
# unit of every scaled time is a second at that speed
REF_CHUNK_S = 0.001


def chunk_s() -> float:
    """Wall time of one reference chunk: the harmonic sum to REF_TERMS."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REF_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - t0


class Gauge:
    """Times calls and scales them by the speed the chunk sees meanwhile.
    With ``tick_s`` None only the chunks before and after count."""

    def __init__(self, tick_s: Optional[float] = 0.05):
        self.tick_s = tick_s
        self.rates: List[float] = []  # REF_CHUNK_S / chunk time
        self.spent = 0.0  # seconds inside the handler
        self._busy = False
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands in a tick
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.rates.append(REF_CHUNK_S / chunk_s())
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def start(self) -> None:
        self.rates = [REF_CHUNK_S / chunk_s()]
        self.spent = 0.0
        if self.tick_s:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self) -> Tuple[float, float]:
        """Stop ticking; return the mean rate and the handler's seconds."""
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self.rates.append(REF_CHUNK_S / chunk_s())
        return statistics.fmean(self.rates), self.spent

    def time(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``fn``; return its result, its wall time less the handler's
        time, and that time scaled to the reference speed."""
        self.start()
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0 - self.spent
            rate, _ = self.stop()
        return result, wall, wall * rate
