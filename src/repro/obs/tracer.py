"""The op bracket: spans on the simulated clock, fanned out to sinks.

One :class:`Tracer` per engine is all the query layer knows about
observation (DESIGN.md §5k).  ``with tracer.span("query.lookup")`` charges
the *simulated* nanoseconds that elapsed on the
:class:`~repro.sim.cost_model.CostModel` clock into the ``span.<name>.ns``
log2 histogram — deterministic, in the unit of the experiment figures —
keeps the span in a bounded ring (:meth:`Tracer.recent`), and opens and
closes whichever sinks are armed around the same body.
"""

from __future__ import annotations

from collections import deque
from contextlib import _GeneratorContextManager
from dataclasses import dataclass

from repro.obs.registry import (
    Clock,
    Histogram,
    MetricsRegistry,
    resolve_clock,
    resolve_registry,
)

#: Default capacity of the recent-span ring buffer.
DEFAULT_RING_SIZE = 256
_DONE = object()  # what ``next(gen, _DONE)`` returns once a span's body ran


@dataclass(frozen=True)
class SpanEvent:
    """One finished span, as kept in the ring buffer."""

    name: str
    start_ns: float
    end_ns: float
    depth: int
    attrs: tuple[tuple[str, object], ...] = ()
    error: bool = False

    @property
    def elapsed_ns(self) -> float:
        return self.end_ns - self.start_ns


class _Bracket:
    """:meth:`Tracer.span`'s ``contextlib.contextmanager`` bracket, slotted;
    a clean exit sees the generator end without raising ``StopIteration``,
    an exit with an exception is contextlib's own."""

    __slots__ = ("gen",)

    def __enter__(self) -> None:
        try:
            return next(self.gen)
        except StopIteration:
            raise RuntimeError("generator didn't yield") from None

    def __exit__(self, typ, value, traceback) -> bool:
        if typ is not None:
            return _GeneratorContextManager.__exit__(self, typ, value, traceback)
        if next(self.gen, _DONE) is _DONE:
            return False
        try:
            raise RuntimeError("generator didn't stop")
        finally:
            self.gen.close()


class Tracer:
    """Times spans, records them, and feeds the sinks armed on it.

    ``clock`` follows :func:`~repro.obs.registry.resolve_clock`; with no
    clock, spans still count (and nest, and ring-buffer) but measure
    zero, and on the null registry they export nothing.  The sinks are
    plain attributes, ``None`` until armed: ``profiler`` (a §5e
    :class:`~repro.obs.profiler.QueryProfiler`), ``trace`` (a §5j
    :class:`~repro.obs.trace.TraceCollector`, whose spans are tagged
    with ``shard``, this engine's id under a sharded facade) and
    ``ticker`` (anything with a ``tick()``: the §5f controller).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        clock: Clock | object | None = None,
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        self.registry = resolve_registry(registry)
        self._clock = resolve_clock(clock)
        #: Raw ``(name, start, end, depth, attrs, error)`` per finished
        #: span; :meth:`recent`, the ring's one reader, builds the events.
        self._ring: deque[tuple] = deque(maxlen=ring_size)
        #: Current nesting depth (0 outside any span).
        self.depth = 0
        self._histograms: dict[str, Histogram] = {}
        self.profiler = None
        self.trace = None
        self.shard: int | None = None
        self.ticker = None

    def arm(self, profiler=None, trace=None, shard=None, ticker=None) -> None:
        """Arm sinks, once per engine; those left ``None`` keep what they
        had, and ``shard`` is set together with ``trace``."""
        if profiler is not None:
            self.profiler = profiler
        if trace is not None:
            self.trace, self.shard = trace, shard
        if ticker is not None:
            self.ticker = ticker

    def tick(self) -> None:
        """Tick the armed controller.  Called *before* a span opens: no
        pin is held, so a knob change (pool resize, WAL flush) is safe."""
        if self.ticker is not None:
            self.ticker.tick()

    def span(
        self,
        name: str,
        profile: tuple | None = None,
        trace: dict[str, object] | None = None,
        timed: bool = True,
        **attrs: object,
    ) -> _Bracket:
        """Bracket a block; exception-safe (errors still record the span).

        ``profile`` is the argument tuple of ``QueryProfiler.begin``
        (``op, table[, index_name, index, project, batch]``) and ``trace``
        the attributes of the trace span ``name``; each goes only to an
        armed sink.  ``timed=False`` brackets for the sinks alone — no
        histogram, ring event or depth — for ops without a ``span.*``
        series and the lazy row scan, whose bracket outlives the call.
        The bracket is ``contextlib.contextmanager``'s over the generator
        :meth:`_span` (``span.__wrapped__``): seven calls, not nine.
        """
        bracket = _Bracket()
        bracket.gen = self._span(name, profile, trace, timed, **attrs)
        return bracket

    def _span(self, name, profile=None, trace=None, timed=True, **attrs):
        """The generator :meth:`span` brackets."""
        profiler = self.profiler if profile is not None else None
        collector = self.trace if trace is not None else None
        traced = (
            collector.begin(name, self.shard, trace)
            if collector is not None else None
        )
        profiled = None
        if profiler is not None:
            try:
                profiled = profiler.begin(*profile)
            except BaseException:
                # A sink that fails to open leaves no sink open.
                if traced is not None:
                    collector.end(traced, True)
                raise
        if timed:
            start = self._clock()
            depth = self.depth
            self.depth = depth + 1
        error = False
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            if timed:
                self.depth = depth
                end = self._clock()
                self._histogram(name).record(end - start)
                if error:
                    self.registry.counter(f"span.{name}.errors").inc()
                self._ring.append((name, start, end, depth, attrs, error))
            if profiled is not None:
                profiler.end(profiled, error)
            if traced is not None:
                collector.end(traced, error)

    span.__wrapped__ = _span

    def _histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self.registry.histogram(f"span.{name}.ns")
            self._histograms[name] = hist
        return hist

    def recent(self, n: int | None = None) -> list[SpanEvent]:
        """The last ``n`` finished spans, oldest first (all if ``None``)."""
        raw = list(self._ring)
        return [
            SpanEvent(
                name, start, end, depth, tuple(sorted(attrs.items())), error
            )
            for name, start, end, depth, attrs, error in (
                raw if n is None else raw[-n:]
            )
        ]

    def clear(self) -> None:
        self._ring.clear()
