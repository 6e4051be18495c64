"""The host-speed probe every wall-clock number is normalised with.

The reference container is a shared 2-vCPU VM whose effective speed moves
between roughly 0.8x and 1.3x of its usual value for seconds at a time
(no steal time is reported; a fixed arithmetic loop simply takes 0.75 ms,
then 0.95 ms, then 1.2 ms).  Raw per-call times therefore spread by
10-25% between back-to-back runs of one commit — wider than any bound
worth gating on — while the same times divided by a probe taken a few
milliseconds away agree to about 1%.

So the runner interleaves :func:`probe` with the workload (one probe per
~20 ms slice of calls), smooths the probe series with a short running
median, and reports every time as it would read on a host where the
probe takes exactly :data:`REFERENCE_NS` — this box in its usual state.
That is the "normalised by the calibration loop, so gates are
machine-independent" of ROADMAP item 1.  The probe shares no code with
the engine, so no engine change can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

#: Probe time on the reference host; reported times are scaled to it.
REFERENCE_NS = 1_000_000.0

#: Running-median half-width (in slices) applied to the probe series.
SMOOTH = 4


def probe() -> int:
    """A fixed pure-Python loop; returns how long it took, in ns."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return perf_counter_ns() - t0


def settled_probe() -> int:
    """Best of three probes: one host-speed reading outside a slice."""
    return min(probe(), probe(), probe())


def timed(fn, *args, **kwargs) -> tuple:
    """``(fn's result, how long it took in ns at reference host speed)``
    for work too coarse to slice: one settled reading on either side."""
    before = settled_probe()
    t0 = perf_counter_ns()
    result = fn(*args, **kwargs)
    took = perf_counter_ns() - t0
    return result, took * REFERENCE_NS * 2 / (before + settled_probe())


def smooth(readings: list) -> list:
    """Host-speed factor per slice (1.0 = reference host, >1 = slower)."""
    return [
        statistics.median(readings[max(0, j - SMOOTH): j + SMOOTH + 1])
        / REFERENCE_NS
        for j in range(len(readings))
    ]
