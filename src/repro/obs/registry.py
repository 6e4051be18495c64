"""Typed metric instruments in a hierarchical registry.

The paper's argument is quantitative — fill factors, hit rates, bytes
reclaimed — so every bit-reclaiming subsystem emits into one shared
:class:`MetricsRegistry` instead of keeping ad-hoc counters.  Three
instrument kinds cover the engine:

* :class:`Counter` — monotonic event counts (``bufferpool.miss``).
* :class:`Gauge` — instantaneous levels (``bufferpool.resident_pages``).
* :class:`Histogram` — fixed log2-bucket distributions, sized for
  simulated-ns latencies and byte counts (``span.query.lookup.ns``).

Names are dot-separated paths (``index_cache.swap.promotions``);
:meth:`MetricsRegistry.snapshot` folds them back into nested dicts so
experiments and benchmarks consume one machine-readable tree.

One count per event.  A component that counts an event in a plain int
field (``BufferPool.hits``, ``CacheStats.probes``) owns that count:
:meth:`MetricsRegistry.adopt` hands the ``(holder, field)`` pair to the
named counter, whose :attr:`Counter.value` is its own ``inc()`` total
plus every adopted field, read when asked.  The hot path bumps the field
and nothing else, and a component counts whatever its registry — one
built on :data:`NULL_REGISTRY` still counts, and that registry adopts
nothing.  What a registry adopts it keeps alive for its own lifetime
(DESIGN.md §5b).  An event with no owning field is counted with
:meth:`Counter.inc` on an instrument looked up once at construction.

:class:`NullRegistry` implements the same surface as no-ops, so with the
null registry an ``inc`` costs one empty method call — cost-model
outputs are bit-identical with observability on or off, because no
instrument ever touches the RNG or the simulated clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import ObservabilityError

#: Histogram bucket count.  Bucket 0 holds values below 1; bucket ``i``
#: (``i >= 1``) holds values in ``[2**(i-1), 2**i)``; the last bucket is
#: open-ended.  63 powers of two cover simulated-ns latencies (a 5 ms
#: disk read is ~2**22 ns) and byte sizes with room to spare.
HISTOGRAM_BUCKETS = 64


class Counter:
    """A monotonically increasing event count: direct :meth:`inc` calls
    plus the ``(holder, field)`` counts :meth:`MetricsRegistry.adopt`
    hands it."""

    __slots__ = ("_direct", "_sources")

    def __init__(self) -> None:
        self._direct = 0
        self._sources: list[tuple[object, str]] = []

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ObservabilityError("counters are monotonic; inc needs n >= 0")
        self._direct += n

    @property
    def value(self) -> int:
        total = self._direct
        for holder, field in self._sources:
            total += getattr(holder, field)
        return total

    def reset(self) -> None:
        """Read 0 from here on; adopted fields keep their own counts, and
        an adopted instrument (a :class:`Counter`, a :class:`Histogram`'s
        count) is zeroed by its own registry."""
        self._direct = -sum(
            getattr(holder, field) for holder, field in self._sources
            if not isinstance(holder, (Counter, Histogram))
        )


class Gauge:
    """An instantaneous level that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

def bucket_index(value: float) -> int:
    """Log2 bucket for ``value``: 0 below 1, else ``1 + floor(log2 v)``,
    clamped to the last (open-ended) bucket."""
    if value < 1:
        return 0
    return min(int(value).bit_length(), HISTOGRAM_BUCKETS - 1)


def bucket_upper_bound(index: int) -> float:
    """Exclusive upper bound of bucket ``index`` (``inf`` for the last)."""
    if index >= HISTOGRAM_BUCKETS - 1:
        return float("inf")
    return float(2 ** index)


def percentile_from_buckets(
    buckets: list[int], q: float, cap: float | None = None
) -> float:
    """Upper bound of the bucket where the ``q``-quantile of ``buckets``
    falls (0.0 for an empty distribution).

    The shared quantile kernel: :meth:`Histogram.percentile` runs it over
    a histogram's cumulative buckets, and the telemetry sampler runs it
    over per-window bucket *deltas* to get windowed p50/p95/p99 without
    storing raw samples.  ``cap`` clamps the open-ended last bucket (a
    histogram passes its observed max).
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError("percentile wants q in [0, 1]")
    count = sum(buckets)
    if not count:
        return 0.0
    target = q * count
    seen = 0
    for i, n in enumerate(buckets):
        seen += n
        if seen >= target and n:
            bound = bucket_upper_bound(i)
            return min(bound, cap) if cap is not None else bound
    return cap if cap is not None else bucket_upper_bound(  # pragma: no cover
        HISTOGRAM_BUCKETS - 1
    )


class Histogram:
    """Fixed log2-bucket distribution with count/sum/min/max."""

    __slots__ = ("_buckets", "count", "sum", "_min", "_max")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._buckets = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def record(self, value: float) -> None:
        # bucket_index's rule inline: no frame and no min per record.
        index = 0 if value < 1 else int(value).bit_length()
        self._buckets[index if index < HISTOGRAM_BUCKETS else -1] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> list[int]:
        return list(self._buckets)

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """``(exclusive_upper_bound, count)`` for every populated bucket."""
        return [
            (bucket_upper_bound(i), n)
            for i, n in enumerate(self._buckets)
            if n
        ]

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket where the ``q``-quantile falls.

        Bucketed, so an upper estimate — good enough for dashboards.
        """
        if not self.count:
            # Validate q even when empty, matching the populated path.
            return percentile_from_buckets(self._buckets, q)
        return percentile_from_buckets(self._buckets, q, cap=self._max)

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other``'s distribution into this one.  Log2 buckets make
        cross-shard merges exact at bucket granularity — the fleet rollup
        (§5j) merges every ``shard.<i>`` histogram this way."""
        if not other.count:
            return
        buckets = other._buckets
        mine = self._buckets
        for i in range(HISTOGRAM_BUCKETS):
            if buckets[i]:
                mine[i] += buckets[i]
        self.count += other.count
        self.sum += other.sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max


_Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by dotted name."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._interior: set[str] = set()

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def _get_or_create(self, name: str, kind: type) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ObservabilityError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {kind.__name__}"
                )
            return existing
        self._check_name(name)
        instrument = kind()
        self._instruments[name] = instrument
        parts = name.split(".")
        for i in range(1, len(parts)):
            self._interior.add(".".join(parts[:i]))
        return instrument

    def _check_name(self, name: str) -> None:
        if not name or name.startswith(".") or name.endswith(".") or ".." in name:
            raise ObservabilityError(f"bad metric name {name!r}")
        if name in self._interior:
            raise ObservabilityError(
                f"metric {name!r} collides with an existing metric prefix"
            )
        parts = name.split(".")
        for i in range(1, len(parts)):
            if ".".join(parts[:i]) in self._instruments:
                raise ObservabilityError(
                    f"metric {name!r} nests under existing leaf metric "
                    f"{'.'.join(parts[:i])!r}"
                )

    def adopt(self, holder: object, fields: dict[str, str]) -> None:
        """Count ``holder``'s int fields into counters: ``{field: name}``.

        The counter named ``name`` reads ``holder.<field>`` on every
        :attr:`Counter.value` from now on; the registry keeps ``holder``
        alive to do so.  Several holders may feed one name (two pools sum
        into ``bufferpool.hit``), and one field may feed several names.  A
        holder may be another registry's :class:`Counter` (field
        ``value``), as each ``fleet.<counter>`` adopts its shards', or a
        :class:`Histogram` (``count``); adopting a pair twice counts it once.
        """
        for field, name in fields.items():
            sources = self.counter(name)._sources
            if not any(h is holder and f == field for h, f in sources):
                sources.append((holder, field))

    # -- introspection -------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def items(self) -> Iterator[tuple[str, _Instrument]]:
        for name in sorted(self._instruments):
            yield name, self._instruments[name]

    def reset(self) -> None:
        """Zero every counter and histogram in place (cached references
        stay valid) — the engine's one metrics reset.  Gauges are levels
        their owners set when state changes, so they keep their values."""
        for instrument in self._instruments.values():
            if not isinstance(instrument, Gauge):
                instrument.reset()

    def snapshot(self) -> dict:
        """Current values as a nested dict, deterministic key order.

        Counters become ints, gauges floats, histograms summary dicts with
        a ``buckets`` map of ``upper_bound -> count``.
        """
        root: dict = {}
        for name, instrument in self.items():
            parts = name.split(".")
            node = root
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = _render(instrument)
        return root

def _render(instrument: _Instrument) -> object:
    if isinstance(instrument, Counter):
        return instrument.value
    if isinstance(instrument, Gauge):
        return instrument.value
    return {
        "count": instrument.count,
        "sum": instrument.sum,
        "min": instrument.min,
        "max": instrument.max,
        "mean": instrument.mean,
        "buckets": {
            ("inf" if ub == float("inf") else str(int(ub))): n
            for ub, n in instrument.nonzero_buckets()
        },
    }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

class _NullHistogram(Histogram):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """No-op registry: same surface, shared inert instruments, empty
    snapshots.  Keeps uninstrumented runs at near-zero overhead."""

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:
        return self._COUNTER

    def adopt(self, holder: object, fields: dict[str, str]) -> None:
        pass

    def gauge(self, name: str) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str) -> Histogram:
        return self._HISTOGRAM

    def snapshot(self) -> dict:
        return {}


#: Process-wide inert registry; the default sink for components built
#: without an explicit registry.
NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry = NULL_REGISTRY


def get_default_registry() -> MetricsRegistry:
    """The registry instrumented components fall back to."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the fallback; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the default registry to a ``with`` block (experiment glue)."""
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


def resolve_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """``registry`` if given, else the current default (usually null)."""
    return registry if registry is not None else _default_registry


def engine_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """``registry`` if given, else the ambient default if one is
    installed, else a fresh :class:`MetricsRegistry`: an engine always
    counts, unless handed :data:`NULL_REGISTRY` explicitly."""
    if registry is not None:
        return registry
    if _default_registry is not NULL_REGISTRY:
        return _default_registry
    return MetricsRegistry()


#: A resolved clock: zero arguments, returns simulated nanoseconds.
Clock = Callable[[], float]


def resolve_clock(clock: Clock | object | None) -> Clock:
    """The one clock convention of ``repro.obs``: a zero-argument
    callable returning simulated ns is used as-is, any object with a
    ``now_ns`` attribute (a :class:`~repro.sim.cost_model.CostModel`) is
    read through it, and ``None`` is a clock that always reads zero."""
    if clock is None:
        return lambda: 0.0
    if callable(clock):
        return clock  # type: ignore[return-value]
    return lambda: clock.now_ns  # type: ignore[attr-defined]
