"""Host speed, sampled inside a benchmark interpreter.

The shared host switches between a fast and a slow state every few
seconds, and the share of slow time in a run of about a minute moves every
timed metric by more than its bound.  ``Sampler`` times a small fixed
piece of exact arithmetic (``reference_work``) from a SIGALRM handler every
``PERIOD_S`` of wall time, in the same process, so the samples cover every
timed region, the cold ones included.  For a region [a, b]:

- ``wall(a, b)`` is its wall time less the time the handler took inside it;
- ``scaled(a, b)`` is that time at the speed at which ``reference_work``
  takes ``NOMINAL_S``: wall time times ``NOMINAL_S`` over the harmonic mean
  of the samples taken from ``WINDOW_S`` before ``a`` to ``WINDOW_S`` after
  ``b``.  Samples come evenly in wall time and speed is the reciprocal of
  the sample time, so the harmonic mean gives the mean speed over the
  region.

The reference uses ``fractions.Fraction`` and lists, the kind of work the
engine does, but none of the engine's code: a change to the engine leaves
it alone.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.2
WINDOW_S = 0.6
# Near the median time of reference_work() on the 2-CPU machine in
# README.md; any fixed value would do, as long as it never changes.
NOMINAL_S = 0.0035
SIZE = 8


def reference_work() -> Fraction:
    """Gauss-Jordan elimination of a fixed SIZE x SIZE rational system."""
    n = SIZE
    m = [[Fraction(1, i + j + 1) + Fraction(i - j, 7) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m[0][n]


class Sampler:
    def __init__(self):
        self.samples: list = []   # (start, seconds) of each reference_work()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def wall(self, a: float, b: float) -> float:
        return b - a - sum(d for s, d in self.samples if a <= s and s + d <= b)

    def scaled(self, a: float, b: float) -> float:
        near = [d for s, d in self.samples if a - WINDOW_S <= s <= b + WINDOW_S]
        return self.wall(a, b) * NOMINAL_S / statistics.harmonic_mean(near)
