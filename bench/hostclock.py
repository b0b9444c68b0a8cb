"""Wall time rescaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed swings by a
third for tens of seconds at a time as its neighbours come and go; the
compiler's wall time swings with it.  A fixed slice of pure-Python
reference work (dict updates and a string sort, operations the compiler
spends its time on) slows and speeds up with the host too, so the ratio of
the two moves far less.  On a shared 2-vCPU host, six 30-second runs of
repeated 4k-token compiles spread (interquartile range over median) up to
0.35 in wall time and up to 0.14 in reference time; their medians moved by
up to 0.32 and 0.05.

``HostClock`` runs one reference slice every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler, so slices land inside long compiles too, and keeps
their durations.  A compile's *reference time* is its wall time, less the
time the handler took, times the mean of ``REF_SLICE_S / slice`` over the
slices taken during it (or, for a compile shorter than the interval, the
nearest ones around it): the wall time the same work would take on a host
that runs one slice in ``REF_SLICE_S`` seconds.  That constant is roughly
one slice on the host the baseline was measured on, so reference times
read close to its wall times.
"""

from __future__ import annotations

import contextlib
import signal
import time
from bisect import bisect_left, bisect_right

#: the reference host's time for one slice; a constant, so numbers from
#: different commits and hosts stay comparable
REF_SLICE_S = 0.0025
SLICE_ITEMS = 8000
#: one slice every this many seconds: about 2.5% of the wall time
INTERVAL_S = 0.1
#: a compile shorter than the interval borrows slices within this distance
WINDOW_S = 1.0


def reference_slice() -> float:
    """Seconds one fixed slice of reference work takes on this host now."""
    t = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(SLICE_ITEMS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    sorted([str(i * 7919 % SLICE_ITEMS) for i in range(SLICE_ITEMS // 4)])
    return time.perf_counter() - t


def speed_of(slices: list[float]) -> float:
    """Mean of ``REF_SLICE_S / s``: how much faster than the reference host
    this one ran while the slices were taken (below 1: slower)."""
    return sum(REF_SLICE_S / s for s in slices) / len(slices)


class HostClock:
    """Samples host speed while a ``with`` block runs.

    ``stolen`` is the wall time spent in reference slices so far; a timed
    region subtracts its growth.  Use ``paused()`` around work that should
    not be sampled, such as waiting on a child process.
    """

    def __init__(self):
        self.times: list[float] = []    # perf_counter at each slice start
        self.slices: list[float] = []   # each slice's duration
        self.stolen = 0.0
        self._previous = None

    def sample(self) -> None:
        t = time.perf_counter()
        self.slices.append(reference_slice())
        self.times.append(t)
        self.stolen += time.perf_counter() - t

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer, and restart it where it stopped, so frequent
        short pauses do not keep putting the next slice off."""
        left = signal.setitimer(signal.ITIMER_REAL, 0.0)[0]
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, left or INTERVAL_S, INTERVAL_S)

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]``: from the slices taken inside,
        or if fewer than two, from the two nearest on each side within
        ``WINDOW_S``."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        chosen = self.slices[lo:hi]
        if len(chosen) < 2:
            lo2 = bisect_left(self.times, start - WINDOW_S)
            hi2 = bisect_right(self.times, end + WINDOW_S)
            chosen = self.slices[max(lo - 2, lo2):min(hi + 2, hi2)]
        if not chosen:
            raise RuntimeError("no host-speed slices near a timed region")
        return speed_of(chosen)
