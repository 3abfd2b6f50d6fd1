"""Op times in reference seconds, corrected for the machine's drift.

The shared machine the benchmark runs on changes speed by up to 1.8x
over seconds to minutes, and the same drift shows in CPU time.  So the
benchmark times a fixed reference kernel, which does not touch pdzip,
about every PROBE_EVERY seconds between ops.  An op's time is then
rescaled by REFERENCE_S over the median kernel time within WINDOW
seconds of the op: what the op would have taken at the speed the kernel
had when REFERENCE_S was measured.  A change to pdzip moves the op's
time and not the kernel's, so it shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array
from fractions import Fraction

# the kernel's median time on an idle core of the 2-core x86-64 VM
# (Python 3.11) the benchmark was tuned on
REFERENCE_S = 0.0050
PROBE_EVERY = 0.1
WINDOW = 1.0


def kernel() -> int:
    """Fixed pure-Python work of pdzip's kind: exact rationals with
    growing big-int parts, dict and list traffic, a sort."""
    total = Fraction(0)
    low = {}
    for i in range(1, 1500):
        total += Fraction(i % 97 + 1, i)
        low[i] = total.numerator & 0xFFFF
    return len(sorted(low.values()))


class Clock:
    """Kernel probes taken during a run, and the scale they imply."""

    def __init__(self) -> None:
        self.at = array("d")     # probe start times (perf_counter)
        self.took = array("d")   # probe durations in seconds
        self._next = 0.0
        self._cache: dict[tuple[int, int], float] = {}

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._next = t1 + PROBE_EVERY

    def maybe_probe(self) -> None:
        """Probe if PROBE_EVERY seconds have passed since the last one."""
        if time.perf_counter() >= self._next:
            self.probe()

    def scale(self, start: float, seconds: float) -> float:
        """REFERENCE_S over the median probe within WINDOW of the op."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW)
        if lo >= hi:  # no probe near: take the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        key = (lo, hi)
        factor = self._cache.get(key)
        if factor is None:
            factor = self._cache[key] = REFERENCE_S / statistics.median(self.took[lo:hi])
        return factor

    def reference(self, start: float, seconds: float) -> float:
        """An op's measured seconds in reference seconds."""
        return seconds * self.scale(start, seconds)

    def summary(self) -> str:
        took = sorted(self.took)
        q = statistics.quantiles(took, n=4) if len(took) > 1 else [took[0]] * 3
        return (f"reference kernel: {len(took)} probes, median {q[1] * 1e3:.3f} ms "
                f"(quartiles {q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} ms) "
                f"against {REFERENCE_S * 1e3:.3f} ms at reference speed")
