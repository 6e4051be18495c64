"""Distributed trace-context propagation for the sharded engine.

The §5e :class:`~repro.obs.tracer.Tracer` answers "how long do
operations of kind X take" — it folds every span into a log2 histogram
and forgets the tree.  This module answers the question sharding (§5i)
made urgent: *what did this one logical operation actually do, on which
shards, in what order?*

A :class:`TraceCollector` mints a :class:`TraceContext` (trace id +
baggage: txn id, query fingerprint, shard hops) at the ``Database`` /
``ShardedDatabase`` facade and threads it — by plain lexical nesting,
the engine is single-threaded by construction — through scatter-gather
fan-out, per-shard executors, session commit/abort, WAL group-commit
flushes, and recovery.  Each logical op becomes one :class:`Trace`: a
tree of :class:`TraceSpan` nodes where fan-out spans carry the shard id
and registry-delta attributes (rows, pages, WAL bytes, cache/fragment
hits).  Finished traces land in a bounded ring and export as plain JSON
or as Chrome ``trace_event`` format (load the file in ``about:tracing``
/ Perfetto: one "process" per shard, the facade as process 0).

Clock discipline matches the rest of ``repro.obs``: spans *read*
simulated clocks and registries, never advance them, so arming tracing
cannot perturb a deterministic workload.  The off path is the usual
contract — until a collector is armed on the engine's tracer
(DESIGN.md §5k), every hook site pays a single ``is None`` test.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.registry import (
    Clock,
    MetricsRegistry,
    resolve_clock,
    resolve_registry,
)

#: Default capacity of the finished-trace ring buffer.
DEFAULT_TRACE_RING = 64


@dataclass
class TraceContext:
    """Identity and baggage of one logical operation.

    ``baggage`` carries the correlation keys the metrics families can't:
    the owning txn id, the §5e query fingerprint, and the ordered list of
    shard hops the router made while executing under this context.
    """

    trace_id: int
    baggage: dict[str, object] = field(default_factory=dict)

    @property
    def hops(self) -> list[int]:
        return self.baggage.setdefault("hops", [])  # type: ignore[return-value]

    def record_hop(self, shard: int) -> None:
        self.hops.append(shard)

    def as_dict(self) -> dict[str, object]:
        return {"trace_id": self.trace_id, "baggage": dict(self.baggage)}


class TraceSpan:
    """One node of a span tree.  ``shard`` is None for facade-side work."""

    __slots__ = (
        "span_id", "parent_id", "name", "shard",
        "start_ns", "end_ns", "attrs", "error", "children",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        shard: int | None,
        start_ns: float,
        attrs: dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.shard = shard
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.attrs = attrs
        self.error = False
        self.children: list[TraceSpan] = []

    @property
    def elapsed_ns(self) -> float:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "span_id": self.span_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.shard is not None:
            out["shard"] = self.shard
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error:
            out["error"] = True
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out


class Trace:
    """One finished (or in-flight) span tree plus its context."""

    __slots__ = ("context", "root", "spans")

    def __init__(self, context: TraceContext, root: TraceSpan) -> None:
        self.context = context
        self.root = root
        #: Flat list in start order — the root first.
        self.spans: list[TraceSpan] = [root]

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    def shards_touched(self) -> list[int]:
        """Sorted distinct shard ids any span in the tree ran on."""
        return sorted({s.shard for s in self.spans if s.shard is not None})

    def as_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.context.trace_id,
            "name": self.root.name,
            "baggage": dict(self.context.baggage),
            "shards": self.shards_touched(),
            "elapsed_ns": self.root.elapsed_ns,
            "root": self.root.as_dict(),
        }

    def format(self, indent: str = "  ") -> str:
        """A human span tree, one line per span."""
        lines = [
            f"trace {self.context.trace_id} {self.root.name} "
            f"shards={self.shards_touched()} "
            f"baggage={dict(self.context.baggage)}"
        ]

        def walk(span: TraceSpan, depth: int) -> None:
            where = "facade" if span.shard is None else f"shard {span.shard}"
            attrs = "".join(
                f" {k}={v}" for k, v in sorted(span.attrs.items())
            )
            lines.append(
                f"{indent * depth}{span.name} [{where}] "
                f"{span.elapsed_ns:.0f}ns{attrs}"
            )
            for child in span.children:
                walk(child, depth + 1)

        walk(self.root, 1)
        return "\n".join(lines)


class TraceCollector:
    """Mints, nests, and retains traces.  Single-threaded by design.

    ``trace(name, **baggage)`` opens a *root* span and installs its
    context; nested ``trace``/``span`` calls attach children.  ``span``
    outside any active trace mints a fresh root (``auto_root=True``, the
    single-engine facade behaviour) or no-ops.

    Metrics (in ``registry``): ``trace.started`` / ``trace.finished`` /
    ``trace.spans`` / ``trace.errors`` counters and a ``trace.fanout``
    histogram of distinct shards per finished trace.
    """

    def __init__(
        self,
        clock: Clock | object | None = None,
        registry: MetricsRegistry | None = None,
        capacity: int = DEFAULT_TRACE_RING,
        auto_root: bool = True,
        shard_clocks: dict[int, Clock | object] | None = None,
    ) -> None:
        self._clock = resolve_clock(clock)
        #: Per-shard clocks: a span tagged ``shard=i`` is timed on shard
        #: ``i``'s own simulated clock (machines have local time; the
        #: Chrome export scopes each shard to its own pid/timeline).
        #: Spans with ``shard=None`` use the facade clock.
        self._shard_clocks: dict[int, Clock] = {
            i: resolve_clock(c) for i, c in (shard_clocks or {}).items()
        }
        self._registry = resolve_registry(registry)
        self._ring: deque[Trace] = deque(maxlen=capacity)
        #: The in-flight trace, if a root span is open.
        self.active: Trace | None = None
        self._stack: list[TraceSpan] = []
        self._next_trace_id = 1
        self._next_span_id = 1
        self._auto_root = auto_root
        self._started = self._registry.counter("trace.started")
        self._finished = self._registry.counter("trace.finished")
        self._span_count = self._registry.counter("trace.spans")
        self._errors = self._registry.counter("trace.errors")
        self._fanout = self._registry.histogram("trace.fanout")

    # -- introspection -------------------------------------------------------

    def traces(self, n: int | None = None) -> list[Trace]:
        """The last ``n`` finished traces, oldest first (all if None)."""
        out = list(self._ring)
        return out if n is None else out[max(len(out) - n, 0):]

    def clear(self) -> None:
        self._ring.clear()

    def _shard_clock(self, shard: int | None) -> Clock:
        if shard is None:
            return self._clock
        return self._shard_clocks.get(shard, self._clock)

    # -- recording -----------------------------------------------------------

    def begin(
        self,
        name: str,
        shard: int | None = None,
        attrs: dict[str, object] | None = None,
        baggage: dict[str, object] | None = None,
    ) -> TraceSpan | None:
        """Open a span and return it for :meth:`end`.

        Under an active trace this is a child of the innermost open span
        and ``baggage`` merges into the active context.  Outside one it
        mints a fresh root when ``baggage`` is given (:meth:`trace`) or
        ``auto_root`` is on, and otherwise opens nothing (``None``).
        """
        trace = self.active
        if trace is None and baggage is None and not self._auto_root:
            return None
        parent = self._stack[-1] if trace is not None else None
        span = TraceSpan(
            self._next_span_id, parent.span_id if parent else None, name,
            shard, self._shard_clock(shard)(), dict(attrs or ()),
        )
        self._next_span_id += 1
        if trace is None:
            context = TraceContext(self._next_trace_id, dict(baggage or ()))
            self._next_trace_id += 1
            self.active = Trace(context, span)
            self._started.inc()
        else:
            if baggage:
                trace.context.baggage.update(baggage)
            parent.children.append(span)
            trace.spans.append(span)
        self._stack.append(span)
        self._span_count.inc()
        return span

    def end(self, span: TraceSpan | None, error: bool = False) -> None:
        """Close the span :meth:`begin` opened (no-op for ``None``); a
        closing root retires its trace into the ring."""
        if span is None:
            return
        if error:
            span.error = True
            self._errors.inc()
        self._stack.pop()
        span.end_ns = self._shard_clock(span.shard)()
        if span.parent_id is None:
            trace = self.active
            self.active = None
            self._ring.append(trace)
            self._finished.inc()
            self._fanout.record(len(trace.shards_touched()))

    def trace(self, name: str, **baggage: object):
        """``with``: a root span on the collector's own clock (or, nested
        under an active trace, a child span whose baggage merges into the
        active context); yields the :class:`Trace`."""
        return self._bracket(name, None, None, baggage)

    def span(self, name: str, shard: int | None = None, **attrs: object):
        """``with``: a child span of the active trace, yielded.  Outside
        any trace this mints a one-span root (``auto_root``) or yields
        None."""
        return self._bracket(name, shard, attrs, None)

    @contextmanager
    def _bracket(self, name, shard, attrs, baggage) -> Iterator:
        span = self.begin(name, shard, attrs, baggage)
        error = False
        try:
            yield span if baggage is None else self.active
        except BaseException:
            error = True
            raise
        finally:
            self.end(span, error)

    def annotate(self, **attrs: object) -> None:
        """Merge attributes into the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def record_hop(self, shard: int) -> None:
        """Append a router hop to the active context's baggage."""
        if self.active is not None:
            self.active.context.record_hop(shard)

    # -- export --------------------------------------------------------------

    def as_dicts(self, n: int | None = None) -> list[dict[str, object]]:
        return [t.as_dict() for t in self.traces(n)]

    def to_chrome(self) -> dict[str, object]:
        """Chrome ``trace_event`` JSON object format: ``ph="X"`` complete
        events, one pid per shard (facade = pid 0), ts/dur in µs."""
        events: list[dict[str, object]] = []
        pids: set[int] = set()
        for trace in self.traces():
            for span in trace.spans:
                pid = 0 if span.shard is None else span.shard + 1
                pids.add(pid)
                events.append(
                    {
                        "name": span.name,
                        "cat": "repro",
                        "ph": "X",
                        "pid": pid,
                        "tid": trace.trace_id,
                        "ts": span.start_ns / 1000.0,
                        "dur": span.elapsed_ns / 1000.0,
                        "args": {
                            "trace_id": trace.trace_id,
                            "span_id": span.span_id,
                            **span.attrs,
                        },
                    }
                )
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {
                    "name": "facade" if pid == 0 else f"shard {pid - 1}"
                },
            }
            for pid in sorted(pids)
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ns"}
