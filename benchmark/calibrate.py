"""Measures how fast the machine runs while each operation runs.

The shared host this benchmark was built on changes speed by up to a factor
of two within a fraction of a second, for all code alike, so a raw wall time
says as much about the neighbours as about the program.  ``Sampler`` times a
fixed kernel every ``INTERVAL`` seconds from a timer signal, so the kernel
also runs in the middle of long operations, and once more after each
operation.  The kernel is exact Gaussian elimination over ``Fraction`` on a
seeded integer matrix, the same kind of work the program does, written here
and never in ``src/`` so that no change to the program can change it.

An operation's calibrated time is its wall time, less the time the kernel
took inside it, divided by the mean kernel time over the samples from the
last one before it to the first one after it, times ``REFERENCE_S``.  It
reads as milliseconds or seconds at the reference speed.
"""
from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# A round figure for one ``kernel()`` call on the machine the bounds were set
# on (2-core x86_64 VM, Python 3.11.7): 1.8-2.1 ms in its fast spells,
# about 3 ms in its slow ones.  A fixed constant: it only scales the
# reported figures into familiar units and is never measured again.
REFERENCE_S = 0.0020

# Seconds of wall time between timer samples; a sample takes about 2.5 ms.
INTERVAL = 0.04

_SIZE = 9
_rng = random.Random("koszuldg-benchmark-calibration")
_MATRIX = [[_rng.randint(-4, 4) if _rng.random() < 0.6 else 0
            for _ in range(_SIZE + 2)] for _ in range(_SIZE)]


def kernel() -> int:
    """Row-reduce the fixed matrix over the rationals; return its rank."""
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


class Sampler:
    """Kernel times, taken on request and, inside ``with``, from a timer.

    ``spent`` is the wall time all samples took, so a caller can take it out
    of the interval it timed."""

    def __init__(self):
        kernel()                    # warm up
        self.samples = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:              # a timer tick during a requested sample
            return
        self._busy = True
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)
        self.spent += time.perf_counter() - started
        self._busy = False

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int) -> float:
        """REFERENCE_S over the mean kernel time from sample ``since - 1``
        (the last one before the timed interval) to the newest one."""
        return REFERENCE_S / statistics.fmean(self.samples[max(since - 1, 0):])
