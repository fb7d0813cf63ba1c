"""Speed-corrected operation times for a benchmark on a shared host.

On a small virtual machine, other tenants of the host slow the Python
interpreter by up to about 1.8x, in phases of a few seconds to a few
minutes.  On a 2-vCPU Intel Xeon guest a fixed pure-Python loop took
38-90 ms at different moments, and ten 25-second runs of ``oracle-dp``
spread by a third of their median: wider than any useful regression
bound.

While the timed operations run, ``SpeedProbe`` interrupts the main
thread every ``INTERVAL`` seconds (SIGALRM) and times a fixed reference
kernel that does not touch contamruns: an integer loop and a sum of
Fractions, the two kinds of interpreter work the workloads do.  An
operation's corrected time is its wall time minus the kernel time spent
inside it, scaled by ``NOMINAL_S`` over the kernel's mean time during
and around the operation: the time it would have taken at the reference
speed.  The mean, not the median, because the kernel samples that a
busy host delays are the ones that carry its slowness.  On the guest
above this cut the spread of pass times over 25-second windows from
0.23-0.34 of the median to about 0.06 for ``oracle-dp`` and from
0.08-0.16 to 0.02-0.03 for ``mc-hitting``; ``mc-longest``, which spends
most of its time in numpy, went from 0.05-0.08 to 0.03-0.09.

The kernel shares the core's caches with the operation, so a change that
makes the program thrash them also slows the kernel and is partly hidden
from the corrected times; the raw times, printed next to them, show it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02
# samples up to this far either side of an operation also set its speed, so
# that operations shorter than INTERVAL get one
WINDOW = 0.25
# about the kernel's median time in workload runs on the guest
# named above, so corrected times read as that machine's typical times
NOMINAL_S = 300e-6


def reference_kernel() -> None:
    x = 0
    for i in range(1500):
        x += i * i
    s = Fraction(0)
    for k in range(1, 40):
        s += Fraction(1, k)


class SpeedProbe:
    """Samples the reference kernel's time while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def correct(self, t0: float, t1: float) -> float:
        """Corrected seconds of an operation that ran from t0 to t1."""
        inside = self.costs[bisect.bisect_left(self.starts, t0):
                            bisect.bisect_left(self.starts, t1)]
        lo = bisect.bisect_left(self.starts, t0 - WINDOW)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW)
        around = self.costs[lo:hi] or self.costs[max(0, lo - 1):lo + 1]
        if not around:
            raise RuntimeError("no reference-kernel sample near the operation")
        return (t1 - t0 - sum(inside)) * NOMINAL_S / statistics.fmean(around)
