"""The machine's current speed, from a fixed reference computation.

The host's speed drifts by up to +-20% over a few seconds and by up to 1.7x
between minutes, far more than 10-run medians absorb. Benchmark times are
therefore scaled by REF_NOMINAL_S / r, where r is the time of a fixed,
benchmark-owned computation run close by on the same interpreter.
REF_NOMINAL_S is its time when the 2-core Xeon sandbox ran at its fastest,
so scaled times read as seconds on that machine when it is quiet.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

REF_NOMINAL_S = 0.00037
REF_WINDOW_S = 0.5
REF_REPS = 3


def reference() -> None:
    """Fixed work owned by the benchmark: interpreter loop, dict, big ints."""
    table = {}
    for i in range(300):
        table[i] = str(i * i)
    x = 7**2000
    for _ in range(6):
        x = (x * x) >> 5000


def sample_speed(samples: list) -> None:
    """Append (time, fastest of REF_REPS reference runs), GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REF_REPS):
            start = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    samples.append((time.perf_counter(), best))


def speed_factors(intervals: list, samples: list) -> list[float]:
    """REF_NOMINAL_S over the local reference time, one per (start, end).

    Uses the samples within REF_WINDOW_S of the interval, and at least the
    nearest one on each side.
    """
    times = [t for t, _ in samples]
    factors = []
    for start, end in intervals:
        lo = bisect.bisect_left(times, start - REF_WINDOW_S)
        hi = bisect.bisect_right(times, end + REF_WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(times, end) + 1, len(times)))
        factors.append(REF_NOMINAL_S / statistics.median(d for _, d in samples[lo:hi]))
    return factors
