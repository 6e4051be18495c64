"""Time-series telemetry: registry deltas sampled on the logical clock.

A :class:`MetricsRegistry` is a since-boot accumulator; operators need
*series* — "what is the hit rate **now**", "is WAL traffic climbing".
:class:`TelemetrySampler` bridges the two: each sample diffs the
registry against the previous sample and appends one
:class:`TelemetryPoint` to a fixed-size ring buffer, so memory is
bounded no matter how long the engine runs.

Per point:

* **counters → rates** — events per simulated second over the window,
  guarded against zero-duration windows (rates are simply omitted) and
  against counter resets (``MetricsRegistry.reset`` mid-run: a
  shrinking value is treated as a restart, the post-reset value is the
  window's delta);
* **gauges → last** — instantaneous levels need no windowing;
* **histograms → windowed p50/p95/p99** — quantiles of the *bucket
  deltas*, i.e. of only the values recorded inside the window, via the
  shared :func:`~repro.obs.registry.percentile_from_buckets` kernel;
* **derived → windowed hit rates** — ``<prefix>.hit_rate`` for every
  ``.hit``/``.miss`` counter pair, computed from window deltas (the
  sampler's answer to "hit rate now" vs the report's since-boot rate).

The clock is the cost model's simulated nanoseconds (the same logical
clock spans use), so series are deterministic and mean the same thing
as the experiment figures.  The sampler only *reads* the registry —
it never installs instruments into it — so sampling cannot perturb the
metrics it observes, and a NullRegistry yields empty points.

Selectors address one number inside a point for timelines and SLO rules:
``rate.<counter>``, ``gauge.<gauge>``, ``derived.<prefix>.hit_rate``,
``p50.<hist>``/``p95.<hist>``/``p99.<hist>``, and
``ratio:<sel>/<sel>`` (zero/absent denominators yield no value, never a
division error).  Names are literal: a fleet's totals are the §5j
``fleet.*`` instruments of the facade registry, addressed like any
other (``rate.fleet.wal.bytes``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs.registry import (
    Clock,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_from_buckets,
    resolve_clock,
    resolve_registry,
)

#: Default ring capacity: enough for a long dashboard without unbounded
#: growth (240 points at a 1-second cadence is four minutes of history).
DEFAULT_CAPACITY = 240

#: Windowed histogram quantiles every point carries.
QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


@dataclass(frozen=True)
class TelemetryPoint:
    """One sampled window of engine telemetry."""

    seq: int
    t_ns: float
    dt_ns: float
    rates: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    percentiles: dict[str, dict[str, float]] = field(default_factory=dict)
    derived: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "t_ns": self.t_ns,
            "dt_ns": self.dt_ns,
            "rates": dict(self.rates),
            "gauges": dict(self.gauges),
            "percentiles": {k: dict(v) for k, v in self.percentiles.items()},
            "derived": dict(self.derived),
        }


#: Selector kinds a point can resolve (beyond the ``ratio:`` combinator).
_SELECTOR_KINDS = ("rate", "gauge", "derived", "p50", "p95", "p99")


def select(point: TelemetryPoint, selector: str) -> float | None:
    """Resolve a selector against one point (``None`` when absent).

    ``ratio:<a>/<b>`` divides two sub-selectors and is guarded: a zero or
    missing denominator yields ``None``, never an error.
    """
    if selector.startswith("ratio:"):
        body = selector[len("ratio:"):]
        num_sel, sep, den_sel = body.partition("/")
        if not sep:
            raise ObservabilityError(f"ratio selector needs a '/': {selector!r}")
        num = select(point, num_sel)
        den = select(point, den_sel)
        if num is None or not den:
            return None
        return num / den
    kind, sep, name = selector.partition(".")
    if not sep or not name:
        raise ObservabilityError(f"bad selector {selector!r}")
    if kind == "rate":
        values: dict[str, float] = point.rates
    elif kind == "gauge":
        values = point.gauges
    elif kind == "derived":
        values = point.derived
    elif kind in ("p50", "p95", "p99"):
        quantiles = point.percentiles.get(name)
        return quantiles.get(kind) if quantiles else None
    else:
        raise ObservabilityError(
            f"unknown selector kind {kind!r} "
            "(want rate/gauge/derived/p50/p95/p99)"
        )
    return values.get(name)


class TelemetrySampler:
    """Fixed-memory ring of registry-delta samples on a logical clock.

    ``clock`` follows :func:`~repro.obs.registry.resolve_clock`; pass
    ``None`` when every :meth:`sample` call gets an explicit timestamp.
    The sampler has no cadence of its own: a window ends when its driver
    calls :meth:`sample`.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        clock: Clock | object | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError("sampler capacity must be >= 1")
        self._registry = resolve_registry(registry)
        self._clock = resolve_clock(clock)
        self._points: deque[TelemetryPoint] = deque(maxlen=capacity)
        self._prev_counters: dict[str, int] = {}
        self._prev_buckets: dict[str, list[int]] = {}
        self._last_t: float | None = None
        #: Samples ever taken (>= ``len(points)`` once the ring wraps).
        self.samples_taken = 0

    # -- sampling -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._points.maxlen or 0

    def sample(self, now_ns: float | None = None) -> TelemetryPoint:
        """Take one sample at ``now_ns`` (default: the clock's now).

        The first sample establishes the baseline: it carries gauges but
        no rates (there is no window yet).  A zero-duration window —
        two samples at the same logical instant — likewise yields no
        rates and no derived values rather than dividing by zero; the
        counter baseline still advances, so the *next* non-degenerate
        window stays correct.
        """
        now = float(now_ns) if now_ns is not None else self._clock()
        dt = now - self._last_t if self._last_t is not None else 0.0
        rates: dict[str, float] = {}
        gauges: dict[str, float] = {}
        percentiles: dict[str, dict[str, float]] = {}
        counter_deltas: dict[str, int] = {}
        for name, instrument in self._registry.items():
            if isinstance(instrument, Histogram):
                buckets = instrument.bucket_counts()
                prev = self._prev_buckets.get(name)
                if prev is None or any(b < p for b, p in zip(buckets, prev)):
                    # First sight, or the histogram was reset mid-window:
                    # the post-reset contents are the window's recordings.
                    window = buckets
                else:
                    window = [b - p for b, p in zip(buckets, prev)]
                self._prev_buckets[name] = buckets
                if sum(window):
                    percentiles[name] = {
                        label: percentile_from_buckets(window, q, cap=instrument.max)
                        for label, q in QUANTILES
                    }
            elif isinstance(instrument, Counter):
                value = instrument.value
                prev_value = self._prev_counters.get(name, 0)
                # A registry reset mid-run shrinks the value; the honest
                # window delta is then the value itself (counter restarted
                # from zero), not a negative rate.
                delta = value - prev_value if value >= prev_value else value
                self._prev_counters[name] = value
                counter_deltas[name] = delta
                if dt > 0:
                    rates[name] = delta * 1e9 / dt
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
        derived = self._derive(counter_deltas) if dt > 0 else {}
        point = TelemetryPoint(
            seq=self.samples_taken,
            t_ns=now,
            dt_ns=dt,
            rates=rates,
            gauges=gauges,
            percentiles=percentiles,
            derived=derived,
        )
        self._points.append(point)
        self._last_t = now
        self.samples_taken += 1
        return point

    @staticmethod
    def _derive(deltas: dict[str, int]) -> dict[str, float]:
        """Windowed ``<prefix>.hit_rate`` for every hit/miss delta pair."""
        derived: dict[str, float] = {}
        for name, hit in deltas.items():
            if not name.endswith(".hit"):
                continue
            prefix = name[: -len(".hit")]
            miss = deltas.get(f"{prefix}.miss")
            if miss is None:
                continue
            total = hit + miss
            if total > 0:
                derived[f"{prefix}.hit_rate"] = hit / total
        return derived

    # -- read surfaces --------------------------------------------------------

    @property
    def points(self) -> list[TelemetryPoint]:
        """Retained points, oldest first (at most ``capacity``)."""
        return list(self._points)

    def last(self) -> TelemetryPoint | None:
        return self._points[-1] if self._points else None

    def series(self, selector: str) -> list[tuple[float, float]]:
        """``(t_ns, value)`` for every retained point where the selector
        resolves (windows where it is absent are simply skipped)."""
        out: list[tuple[float, float]] = []
        for point in self._points:
            value = select(point, selector)
            if value is not None:
                out.append((point.t_ns, value))
        return out

    def __len__(self) -> int:
        return len(self._points)

    def as_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "samples_taken": self.samples_taken,
            "points": [p.as_dict() for p in self._points],
        }
