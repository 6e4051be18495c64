"""Bounded structured event journal: the state transitions metrics miss.

Counters say *how many* faults were healed; they cannot say that fault
#3 on shard 2 was detected *after* the migration intent for key 17 was
logged but *before* its commit.  The :class:`EventJournal` records
exactly those typed transitions — fault detected/recovered, quarantine,
checkpoint, crash/recovery phases, migration intent/commit, tuning
actions, SLO breach/clear — as causally-ordered
:class:`EngineEvent` records.

Ordering is two-level, the productized version of the PR 9 crash-matrix
test timeline: a **global seq** (the facade's append order — the engine
is single-threaded, so this is the true causal order) plus a
**per-shard monotonic seq** so each shard's local history reads
gap-free even after the bounded ring evicts old records.  Every event
carries the facade clock reading and, when one is active, the
:mod:`~repro.obs.trace` trace id, so journal slices join against span
trees and sampler windows.

Query surface: :meth:`EventJournal.query` filters by kind (exact or
``fnmatch`` glob), shard, trace id, and time range.  The drill report
embeds a slice of it (``DrillReport.events``) for crash forensics;
recovery reports carry none, since the journal already holds them.
Off path: one ``is None`` test per emit site.
"""

from __future__ import annotations

import fnmatch
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from repro.obs.registry import (
    Clock,
    MetricsRegistry,
    resolve_clock,
    resolve_registry,
)

#: Default capacity of the journal ring.
DEFAULT_JOURNAL_CAPACITY = 2048

# -- event kinds (the closed vocabulary; emitters use these constants) -------

FAULT_DETECTED = "fault.detected"
FAULT_RECOVERED = "fault.recovered"
FAULT_UNRECOVERABLE = "fault.unrecoverable"
QUARANTINE = "fault.quarantine"
CHECKPOINT = "wal.checkpoint"
CRASH = "crash"
RECOVERY_BEGIN = "recovery.begin"
RECOVERY_REDO = "recovery.redo"
RECOVERY_END = "recovery.end"
MIGRATION_INTENT = "migration.intent"
MIGRATION_COMMIT = "migration.commit"
REBALANCE_BEGIN = "rebalance.begin"
REBALANCE_END = "rebalance.end"
TUNING_ACTION = "tuning.action"
SLO_BREACH = "slo.breach"
SLO_CLEAR = "slo.clear"

EVENT_KINDS = (
    FAULT_DETECTED, FAULT_RECOVERED, FAULT_UNRECOVERABLE, QUARANTINE,
    CHECKPOINT, CRASH, RECOVERY_BEGIN, RECOVERY_REDO, RECOVERY_END,
    MIGRATION_INTENT, MIGRATION_COMMIT, REBALANCE_BEGIN, REBALANCE_END,
    TUNING_ACTION, SLO_BREACH, SLO_CLEAR,
)


@dataclass(frozen=True)
class EngineEvent:
    """One journal record.  ``seq`` is the global causal order; ``shard_seq``
    is monotonic within ``shard`` (None = facade-side events)."""

    seq: int
    shard_seq: int
    shard: int | None
    kind: str
    t_ns: float
    trace_id: int | None
    payload: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "seq": self.seq,
            "shard_seq": self.shard_seq,
            "shard": self.shard,
            "kind": self.kind,
            "t_ns": self.t_ns,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.payload:
            out["payload"] = dict(self.payload)
        return out

    def format(self) -> str:
        where = "facade" if self.shard is None else f"shard {self.shard}"
        payload = "".join(f" {k}={v}" for k, v in self.payload)
        tid = f" trace={self.trace_id}" if self.trace_id is not None else ""
        return (
            f"#{self.seq:<5d} [{where} +{self.shard_seq}] "
            f"t={self.t_ns:.0f}ns {self.kind}{tid}{payload}"
        )


class EventJournal:
    """Bounded, causally-ordered, queryable ring of :class:`EngineEvent`.

    ``clock`` follows :func:`~repro.obs.registry.resolve_clock`.
    ``trace_source`` is an optional
    :class:`~repro.obs.trace.TraceCollector`; when set, emitted events
    are stamped with the active trace id automatically.

    Metrics (in ``registry``): ``events.emitted`` / ``events.dropped``
    counters — dropped counts ring evictions, so
    ``emitted - dropped == len(journal.query())``.
    """

    def __init__(
        self,
        clock: Clock | object | None = None,
        registry: MetricsRegistry | None = None,
        capacity: int = DEFAULT_JOURNAL_CAPACITY,
        trace_source=None,
    ) -> None:
        self._clock = resolve_clock(clock)
        self._registry = resolve_registry(registry)
        self._ring: deque[EngineEvent] = deque(maxlen=capacity)
        self._next_seq = 1
        self._shard_seqs: dict[int | None, int] = {}
        self.trace_source = trace_source
        self._emitted = self._registry.counter("events.emitted")
        self._dropped = self._registry.counter("events.dropped")

    def __iter__(self) -> Iterator[EngineEvent]:
        return iter(self._ring)

    def emit(
        self,
        kind: str,
        shard: int | None = None,
        trace_id: int | None = None,
        **payload: object,
    ) -> EngineEvent:
        """Append one event.  ``trace_id`` defaults to the trace source's
        active trace, if any."""
        if trace_id is None and self.trace_source is not None:
            active = self.trace_source.active
            if active is not None:
                trace_id = active.trace_id
        shard_seq = self._shard_seqs.get(shard, 0) + 1
        self._shard_seqs[shard] = shard_seq
        event = EngineEvent(
            seq=self._next_seq,
            shard_seq=shard_seq,
            shard=shard,
            kind=kind,
            t_ns=self._clock(),
            trace_id=trace_id,
            payload=tuple(sorted(payload.items())),
        )
        self._next_seq += 1
        if len(self._ring) == self._ring.maxlen:
            self._dropped.inc()
        self._ring.append(event)
        self._emitted.inc()
        return event

    def query(
        self,
        kind: str | None = None,
        shard: int | None = None,
        trace_id: int | None = None,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
    ) -> list[EngineEvent]:
        """Filter retained events, in causal (seq) order.

        ``kind`` may be exact (``"migration.intent"``) or a glob
        (``"fault.*"``); ``shard`` filters by origin (facade events have
        shard None and are only returned when ``shard`` is omitted or
        explicitly None — pass nothing to see everything); time bounds
        are inclusive.  ``limit`` keeps the *last* N matches.
        """
        out = []
        for event in self._ring:
            if kind is not None and not (
                event.kind == kind or fnmatch.fnmatchcase(event.kind, kind)
            ):
                continue
            if shard is not None and event.shard != shard:
                continue
            if trace_id is not None and event.trace_id != trace_id:
                continue
            if t0 is not None and event.t_ns < t0:
                continue
            if t1 is not None and event.t_ns > t1:
                continue
            out.append(event)
        return out if limit is None else out[max(len(out) - limit, 0):]

    def as_dicts(self, limit: int | None = None) -> list[dict[str, object]]:
        events = list(self._ring)
        if limit is not None:
            events = events[max(len(events) - limit, 0):]
        return [e.as_dict() for e in events]

    def format(self, limit: int = 20, **filters) -> str:
        events = self.query(limit=limit, **filters)
        if not events:
            return "event journal: (empty)"
        head = (
            f"event journal: {len(self._ring)} retained, "
            f"showing last {len(events)}"
        )
        return "\n".join([head] + [e.format() for e in events])

    def clear(self) -> None:
        """Drop retained events and reset sequence state; the
        ``events.*`` counters are the registry's to reset."""
        self._ring.clear()
        self._next_seq = 1
        self._shard_seqs.clear()
