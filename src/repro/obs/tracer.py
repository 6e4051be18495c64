"""The op bracket: spans on the simulated clock, fanned out to sinks.

One :class:`Tracer` per engine is all the query layer knows about
observation (DESIGN.md §5k).  ``with tracer.span("query.lookup")`` charges
the *simulated* nanoseconds that elapsed on the
:class:`~repro.sim.cost_model.CostModel` clock into the ``span.<name>.ns``
log2 histogram — deterministic, in the unit of the experiment figures —
and opens and closes whichever sinks are armed around the same body.
The tracer keeps no span itself: an armed
:class:`~repro.obs.trace.TraceCollector` is where spans are stored.
"""

from __future__ import annotations

from contextlib import _GeneratorContextManager

from repro.obs.registry import (
    Clock,
    Histogram,
    MetricsRegistry,
    resolve_clock,
    resolve_registry,
)

_DONE = object()  # what ``next(gen, _DONE)`` returns once a span's body ran


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
    """Times spans into histograms and feeds the sinks armed on it.

    ``clock`` follows :func:`~repro.obs.registry.resolve_clock`; with no
    clock, spans still count but measure zero, and on the null registry
    they export nothing.  The tracer holds no per-span state: a span's
    tree, attributes and error flag live in the ``trace`` sink.  The
    sinks are plain attributes, ``None`` until armed: ``profiler`` (a §5e
    :class:`~repro.obs.profiler.QueryProfiler`), ``trace`` (a §5j
    :class:`~repro.obs.trace.TraceCollector`), ``journal`` (a §5j
    :class:`~repro.obs.events.EventJournal`, which the engine's emitters
    read when they emit).  ``shard`` is this engine's id under a sharded
    facade (``None`` standalone); it tags the engine's spans and events.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        clock: Clock | object | None = None,
    ) -> None:
        self.registry = resolve_registry(registry)
        self._clock = resolve_clock(clock)
        self._histograms: dict[str, Histogram] = {}
        self.profiler = None
        self.trace = None
        self.journal = None
        self.shard: int | None = None

    def arm(self, profiler=None, trace=None, journal=None) -> None:
        """Arm sinks, once per engine; those left ``None`` keep what they
        had."""
        if profiler is not None:
            self.profiler = profiler
        if trace is not None:
            self.trace = trace
        if journal is not None:
            self.journal = journal

    def span(
        self,
        name: str,
        profile: tuple | None = None,
        trace: dict[str, object] | None = None,
        timed: bool = True,
    ) -> _Bracket:
        """Bracket a block; exception-safe (an error is still timed, and
        counted in ``span.<name>.errors``).

        ``profile`` is the argument tuple of ``QueryProfiler.begin``
        (``op, table[, index_name, index, project, batch]``) and ``trace``
        the attributes of the trace span ``name``; each goes only to an
        armed sink.  ``timed=False`` brackets for the sinks alone — no
        clock read, no histogram — for ops without a ``span.*`` series
        and the lazy row scan, whose bracket outlives the call.
        The bracket is ``contextlib.contextmanager``'s over the generator
        :meth:`_span` (``span.__wrapped__``): seven calls, not nine.
        """
        bracket = _Bracket()
        bracket.gen = self._span(name, profile, trace, timed)
        return bracket

    def _span(self, name, profile, trace, timed):
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
        error = False
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            if timed:
                self._histogram(name).record(self._clock() - start)
                if error:
                    self.registry.counter(f"span.{name}.errors").inc()
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
