"""A fixed reference kernel that measures how fast the host runs now.

The benchmark shares its host with other tenants, and their load
changes the speed of everything it runs, by up to a factor of two,
over seconds to minutes.  A time measured while the host is slow says
nothing about the program under test.  So the benchmark runs this
kernel four times a second, during its operations and between them,
and scales each operation's time by the host speed the kernel saw
around it (see :class:`Meter`).  The samples must fall inside the
operations: sampled only between them, the host's speed is seen too
early or too late, and the scaled figures of long operations spread
as widely as host seconds or wider.

The kernel mixes the kinds of work the program does: interpreted
Python over small objects (an LRU set-associative tag array driven by
a fixed address stream, the shape of the timing model), NumPy
operations on small arrays (the shape of the campaign engine's
kernels) and a walk that misses the caches (the timing model's large
object graph; a neighbour that contends for the caches slows it, where
it would not slow a kernel that fits in them).  Its work is the same
on every call.

A change to the program must not move the kernel, or scaling would
cancel part of the change.  The kernel imports nothing from the
program, and each sample is a warm-up call that is not counted
followed by the counted call, so the counted call finds the caches in
the kernel's own state, not in the one the program's working set
left: a first call right after an optimize() operation takes up to
half again as long as a second one.  ``test_perfbench.py`` plants a
slowdown (CPU work and a large buffer walk) inside one layer of the
program and checks that the scaled time keeps it.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import OrderedDict

import numpy as np

#: Host seconds one :func:`reference_kernel` call takes at the
#: reference speed; a scaled time is what an operation would have
#: taken at that speed.  Measured as the median call on a 2-vCPU
#: Xeon VM; the value only fixes the unit, a change of host shifts
#: every scaled time alike.
REFERENCE_S = 0.0065

#: Seconds between two samples; a sample (two reference calls) every
#: quarter second costs about 6% of the run.
SAMPLE_EVERY_S = 0.25

#: How far before and after an operation reference calls count.
WINDOW_S = 2.0

_SETS, _WAYS, _LINE = 64, 4, 128


def _address_stream(n: int) -> list[int]:
    """A deterministic mix of strided and scattered line addresses."""
    state, out = 12345, []
    for i in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(i * _LINE if i % 3 else (state % 65536) * _LINE)
    return out


_ADDRESSES = _address_stream(4800)
_VECTORS = np.random.default_rng(7).standard_normal((200, 256))
#: One cycle through 2**20 slots in random order (8 MiB): following it
#: misses the caches the way the timing model's object graph does.
_order = np.random.default_rng(11).permutation(1 << 20)
_CHASE = np.empty(1 << 20, dtype=np.int64)
_CHASE[_order[:-1]] = _order[1:]
_CHASE[_order[-1]] = _order[0]
del _order


def reference_kernel() -> int:
    """One fixed unit of host work; returns a checksum."""
    sets = [OrderedDict() for _ in range(_SETS)]
    hits = 0
    for addr in _ADDRESSES:
        line = addr // _LINE
        ways = sets[line % _SETS]
        if line in ways:
            ways.move_to_end(line)
            hits += 1
        else:
            if len(ways) >= _WAYS:
                ways.popitem(last=False)
            ways[line] = None
    acc = np.zeros(256)
    for row in _VECTORS:
        flipped = np.where(row > 0.5, row * 0.5, row + 1.0)
        acc += np.abs(flipped - acc) * 0.25
        hits += int(np.count_nonzero(flipped > acc))
    at = 0
    for _ in range(12000):
        at = _CHASE[at]
    return hits + at


class Meter:
    """Times operations and scales them by the host speed around them.

    While the meter is entered (``with meter:``), a timer signal takes
    a sample every :data:`SAMPLE_EVERY_S` seconds, inside operations as
    well as between them: :func:`reference_kernel` once to warm up and
    once counted, recording when the two calls ran and how long the
    counted one took.  :meth:`time` runs one operation and returns its
    interval.  An operation's host time is its wall time less the
    samples taken inside it; its *scaled* time (:meth:`scaled`) is its
    host time multiplied by ``REFERENCE_S / r``, with ``r`` the mean
    of the counted calls that ran within :data:`WINDOW_S` of it: one
    call is too short to measure the host's speed on its own, and the
    speed changes over seconds, not less.  Ask for scaled times once
    the run is over, so that the calls after an operation count as
    well as those before it.
    """

    def __init__(self) -> None:
        #: ``(start, counted call start, end)`` of every sample
        self.samples: list[tuple[float, float, float]] = []
        self._handler = None

    def __enter__(self) -> "Meter":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_kernel()  # warm-up, not counted
        counted = time.perf_counter()
        reference_kernel()
        self.samples.append((start, counted, time.perf_counter()))

    def time(self, fn):
        """Run ``fn()``; return ``(result, (begin, end))``."""
        begin = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
        return result, (begin, end)

    def host_s(self, interval: tuple[float, float]) -> float:
        """Wall seconds of an interval less the samples inside it."""
        begin, end = interval
        return end - begin - sum(c - a for a, _, c in self.samples
                                 if begin <= a and c <= end)

    def scaled(self, interval: tuple[float, float]) -> float:
        """The scaled seconds of one interval :meth:`time` returned."""
        begin, end = interval
        near = [c - b for _, b, c in self.samples
                if begin - WINDOW_S <= b and c <= end + WINDOW_S]
        return self.host_s(interval) * REFERENCE_S / statistics.fmean(near)

    @property
    def reference_s(self) -> float:
        return sum(c - a for a, _, c in self.samples)
