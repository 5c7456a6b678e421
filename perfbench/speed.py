"""Machine-speed probes for steadier timings on a shared machine.

The 2-CPU machine the bounds were set on runs the same code up to 30-50%
faster or slower for spells of seconds to minutes, because of load outside
the container.  A run that lands in a slow spell reads slow on every query,
so medians within a run cannot remove it.  The benchmark therefore times a
fixed probe that shares no code with hypersum (integer, Fraction and small
numpy work, about 4 ms) before the first query of a batch and after every
query, and scales each query's wall time by NOMINAL_S over the mean of the
two probes around it.  Over ten 10-second runs per workload this cut the
spread (IQR / median) of the batch time from 0.07-0.26 to 0.01-0.08.  Cold
set-up is scaled the same way by a pure-interpreter probe.  Raw wall times
are kept in the run record.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.004  # probe time that a speed-adjusted second corresponds to


def python_probe() -> float:
    """Seconds for a fixed pure-interpreter loop (about 4 ms).  It imports
    nothing, so it can run just before a timed ``import hypersum``."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(40000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self) -> None:
        import numpy as np
        from fractions import Fraction

        self._np, self._fraction = np, Fraction
        self._keys = np.random.default_rng(0).integers(0, 1 << 40, 16384)
        self._small = np.arange(512)

    def __call__(self) -> float:
        np, fraction = self._np, self._fraction
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        frac = fraction(0)
        for i in range(200):
            frac += fraction(i, 7)
        for i in range(60):
            np.searchsorted(self._small, i)
        np.unique(self._keys)
        return time.perf_counter() - start


def adjusted(latencies: list[float], probes: list[float]) -> list[float]:
    """Latencies rescaled to the nominal speed; ``probes`` has one entry more
    than ``latencies`` (before the first query and after each one)."""
    return [lat * 2 * NOMINAL_S / (probes[j] + probes[j + 1]) for j, lat in enumerate(latencies)]
