"""EXPLAIN-ANALYZE-style query profiling over the metrics registry.

The registry (§5b) answers "what did the whole engine do"; this module
answers "what did *that query* do".  A :class:`QueryProfiler` brackets
each table/executor operation, snapshots the engine-wide instruments the
operation can move — buffer-pool pins, index-cache hit/miss, heap
fetches, B+Tree descents, WAL bytes, fault retries — plus the cost-model
clock, and charges the deltas to a normalized **query fingerprint**
(operation kind + table + index + projection + batch bucket, never key
values).  Two read surfaces fall out:

* :meth:`QueryProfiler.top` — per-fingerprint aggregates ranked by total
  simulated cost, the ``EXPLAIN ANALYZE`` rollup; and
* :meth:`QueryProfiler.slow_queries` — a bounded ring of the costliest
  individual profiles (the slow-query log), ranked by elapsed cost.

WAL byte attribution is group-commit-aware: the profiler reads the
writer's :attr:`~repro.wal.log.WalWriter.logged_bytes` (flushed *plus*
buffered), so a record that merely parks in the group-commit buffer is
still charged to the operation that logged it, not to whichever later
operation happens to trip the flush.

Profiling is strictly opt-in (``Database.enable_profiling`` arms the
profiler on the engine's tracer, DESIGN.md §5k): unarmed, the op bracket
skips it, and the NullRegistry zero-overhead guarantee is untouched.
This module imports only :mod:`repro.obs.registry` and
:mod:`repro.util.table`, so the query layer can depend on it without
cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.obs.registry import (
    NULL_REGISTRY,
    Clock,
    MetricsRegistry,
    resolve_clock,
    resolve_registry,
)
from repro.util.table import format_table

#: Fingerprints beyond this many aggregate under :data:`OVERFLOW_FINGERPRINT`
#: so a fingerprint explosion (e.g. a bug interpolating keys into table
#: names) cannot grow the profiler without bound.
DEFAULT_MAX_FINGERPRINTS = 512

#: Where profiles land once the fingerprint table is full.
OVERFLOW_FINGERPRINT = "(other)"

#: Registry counters captured around every operation, as
#: ``(count, metric_name)``.  Deltas of these are what a profile
#: reports, so they reconcile with registry totals by construction.
CAPTURED_COUNTERS: tuple[tuple[str, str], ...] = (
    ("pages_reused", "bufferpool.hit"),
    ("pages_read", "bufferpool.miss"),
    ("evictions", "bufferpool.eviction"),
    ("cache_hits", "index_cache.hit"),
    ("cache_misses", "index_cache.miss"),
    ("heap_fetches", "index_cache.heap_fetch"),
    ("descents", "btree.descent"),
    ("wal_records", "wal.records"),
    ("retries", "faults.retries"),
)


def batch_bucket(n: int) -> int:
    """Normalize a batch size to its power-of-two ceiling (1 stays 1).

    Fingerprints must not split per batch size — a replay issuing batches
    of 5, 6, and 7 keys is one query shape — but a 1000-key batch is a
    different shape than a 4-key one.  Power-of-two buckets keep both
    properties.
    """
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def fingerprint(
    op: str,
    table: str,
    index: str | None = None,
    project: tuple[str, ...] | None = None,
    batch: int = 1,
) -> str:
    """The normalized query identity: shape, never values.

    ``lookup(t.pk)->k,n`` stays stable across every key probed;
    ``xN`` marks the batch bucket for multi-key operations.
    """
    parts = [op, ":", table]
    if index:
        parts += [".", index]
    if project:
        parts += ["->", ",".join(project)]
    if batch > 1:
        parts += [" x", str(batch_bucket(batch))]
    return "".join(parts)


#: Every count a profile and a rollup carry, in :class:`_Counts` order:
#: the captured registry deltas, then the WAL bytes the operation logged.
COUNTS = tuple(name for name, _metric in CAPTURED_COUNTERS) + ("wal_bytes",)


@dataclass(kw_only=True)
class _Counts:
    """The engine work behind one operation, or behind a rollup of them."""

    pages_reused: int = 0   # buffer-pool hits (already resident)
    pages_read: int = 0     # buffer-pool misses (disk reads)
    evictions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    heap_fetches: int = 0
    descents: int = 0
    wal_records: int = 0
    retries: int = 0
    wal_bytes: int = 0

    @property
    def pages_pinned(self) -> int:
        """Total page pins taken (reused + read)."""
        return self.pages_reused + self.pages_read

    def _add(self, other: "_Counts") -> None:
        for name in COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class QueryProfile(_Counts):
    """One profiled operation: the EXPLAIN ANALYZE line items."""

    seq: int
    fingerprint: str
    op: str
    batch: int = 1
    elapsed_ns: float = 0.0
    error: bool = False

    def line(self) -> str:
        """One slow-log line, dashboard-ready."""
        flags = " !" if self.error else ""
        return (
            f"#{self.seq} {self.fingerprint}{flags}: "
            f"{self.elapsed_ns:.0f}ns pinned={self.pages_pinned} "
            f"(reused={self.pages_reused} read={self.pages_read}) "
            f"cache={self.cache_hits}/{self.cache_hits + self.cache_misses} "
            f"heap={self.heap_fetches} wal={self.wal_bytes}B "
            f"retries={self.retries}"
        )


@dataclass
class FingerprintStats(_Counts):
    """Aggregate of every profile sharing a fingerprint."""

    fingerprint: str
    plan: str
    calls: int = 0
    errors: int = 0
    rows: int = 0
    total_ns: float = 0.0
    max_ns: float = 0.0

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    def absorb(self, p: QueryProfile) -> None:
        """Charge one profile."""
        self.calls += 1
        self.errors += int(p.error)
        self.rows += p.batch
        self.total_ns += p.elapsed_ns
        self.max_ns = max(self.max_ns, p.elapsed_ns)
        self._add(p)

    def merge(self, other: "FingerprintStats") -> None:
        """Fold another rollup of this fingerprint (another shard's) in."""
        self.calls += other.calls
        self.errors += other.errors
        self.rows += other.rows
        self.total_ns += other.total_ns
        self.max_ns = max(self.max_ns, other.max_ns)
        self._add(other)

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "plan": self.plan,
            "calls": self.calls,
            "errors": self.errors,
            "rows": self.rows,
            "total_ns": self.total_ns,
            "mean_ns": self.mean_ns,
            "max_ns": self.max_ns,
            "pages_pinned": self.pages_pinned,
            "cache_hit_rate": self.cache_hit_rate,
            **{name: getattr(self, name) for name in COUNTS},
        }


def _plan_shape(
    op: str,
    table: str,
    index_name: str | None,
    index: object | None,
    project: tuple[str, ...] | None,
    batch: int,
) -> str:
    """Human-readable plan string: access path + projection + batch."""
    if index_name is None:
        access = table
    else:
        kind = "index"
        if index is not None:
            kind = "cached-index" if index.cached_fields else "plain-index"
        access = f"{table} via {kind}({index_name})"
    parts = [f"{op} {access}"]
    if project:
        parts.append(f"project ({', '.join(project)})")
    if batch > 1:
        parts.append(f"batch<={batch_bucket(batch)}")
    return " ".join(parts)


@dataclass
class ProfilerCounts:
    """The profiler's count, apart from it: the registry adopts this, so
    a shared registry never holds the profiler's WAL, clock or rollups."""

    #: Operations profiled so far.
    operations: int = 0


class QueryProfiler:
    """Charges engine-wide instrument deltas to per-query fingerprints.

    ``clock`` follows :func:`~repro.obs.registry.resolve_clock`.
    ``wal`` is the (duck-typed) :class:`~repro.wal.log.WalWriter`; when
    present, per-operation WAL bytes include its group-commit buffer so
    attribution is flush-timing-independent.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        clock: Clock | object | None = None,
        wal=None,
        slow_log_size: int = 64,
        max_fingerprints: int = DEFAULT_MAX_FINGERPRINTS,
    ) -> None:
        reg = resolve_registry(registry)
        self._clock = resolve_clock(clock)
        self._wal = wal
        self._counters = [reg.counter(metric) for _name, metric in CAPTURED_COUNTERS]
        # Registered without a WAL too, so the dashboard and the
        # wal-overhead rule read a zero there rather than nothing.
        reg.counter("wal.bytes")
        self._m_errors = reg.counter("profiler.errors")
        self._m_fingerprints = reg.gauge("profiler.fingerprints")
        self._stats: dict[str, FingerprintStats] = {}
        self._slow: deque[QueryProfile] = deque(maxlen=slow_log_size)
        self._max_fingerprints = max_fingerprints
        self._depth = 0
        self.counts = ProfilerCounts()
        reg.adopt(self.counts, {"operations": "profiler.ops"})

    @property
    def operations(self) -> int:
        """Operations profiled so far."""
        return self.counts.operations

    # -- profiling ------------------------------------------------------------

    def begin(
        self,
        op: str,
        table: str,
        index_name: str | None = None,
        index: object | None = None,
        project: tuple[str, ...] | None = None,
        batch: int = 1,
    ) -> tuple | None:
        """Open a profile; returns the token :meth:`end` closes it with.

        ``None`` inside an already-open profile: nested operations charge
        to the outermost bracket only (a lookup issued inside a profiled
        join is part of the join's cost, not a second query)."""
        if self._depth:
            return None
        project_t = tuple(project) if project is not None else None
        shape = op, table, index_name, index, project_t, batch
        profile = QueryProfile(
            seq=self.counts.operations,
            fingerprint=fingerprint(op, table, index_name, project_t, batch),
            op=op,
            batch=batch,
        )
        # PlainIndex keeps heap fetches as a plain attribute (no registry
        # counter on that path); fold its delta in when the index is known.
        plain_before = getattr(index, "heap_fetches", None)
        token = profile, shape, plain_before, self._capture(), self._clock()
        # Open only once nothing above can raise: a malformed argument
        # must not leave every later operation looking nested.
        self._depth = 1
        return token

    def end(self, token: tuple | None, error: bool = False) -> None:
        """Close and absorb the profile behind ``token`` (``None``: no-op)."""
        if token is None:
            return
        profile, shape, plain_before, before, start = token
        self._depth = 0
        profile.elapsed_ns = self._clock() - start
        profile.error = error
        self.counts.operations += 1
        for name, now, then in zip(COUNTS, self._capture(), before):
            setattr(profile, name, now - then)
        if plain_before is not None:
            index = shape[3]  # the index object begin() was given
            profile.heap_fetches += index.heap_fetches - plain_before
        self._absorb(profile, shape)

    def _capture(self) -> list[int]:
        """The :data:`COUNTS` totals now, in order."""
        values = [counter.value for counter in self._counters]
        values.append(self._wal.logged_bytes if self._wal is not None else 0)
        return values

    def _absorb(self, profile: QueryProfile, shape: tuple) -> None:
        if profile.error:
            self._m_errors.inc()
        stats = self._stats.get(profile.fingerprint)
        if stats is None:
            if len(self._stats) >= self._max_fingerprints:
                stats = self._stats.get(OVERFLOW_FINGERPRINT)
                if stats is None:
                    stats = FingerprintStats(OVERFLOW_FINGERPRINT, "(overflow)")
                    self._stats[OVERFLOW_FINGERPRINT] = stats
            else:
                stats = FingerprintStats(profile.fingerprint, _plan_shape(*shape))
                self._stats[profile.fingerprint] = stats
            self._m_fingerprints.set(len(self._stats))
        stats.absorb(profile)
        self._slow.append(profile)

    @classmethod
    def fold(cls, profilers: list["QueryProfiler"]) -> "QueryProfiler":
        """A fleet's profile, on no registry: per-shard rollups merged by
        fingerprint and every shard's slow log in one ring, which
        :meth:`slow_queries` ranks by ``(-elapsed_ns, seq)``."""
        fleet = cls(NULL_REGISTRY, slow_log_size=64 * len(profilers))
        for profiler in profilers:
            for stats in profiler.top():
                fleet._stats.setdefault(
                    stats.fingerprint, FingerprintStats(stats.fingerprint, stats.plan)
                ).merge(stats)
            fleet._slow.extend(profiler.slow_queries())
            fleet.counts.operations += profiler.operations
        return fleet

    # -- read surfaces --------------------------------------------------------

    def top(self, n: int | None = None) -> list[FingerprintStats]:
        """Fingerprints ranked by total simulated cost, costliest first."""
        ranked = sorted(
            self._stats.values(),
            key=lambda s: (-s.total_ns, s.fingerprint),
        )
        return ranked if n is None else ranked[:n]

    def slow_queries(self, n: int | None = None) -> list[QueryProfile]:
        """The retained slow-log profiles ranked by elapsed cost."""
        ranked = sorted(self._slow, key=lambda p: (-p.elapsed_ns, p.seq))
        return ranked if n is None else ranked[:n]

    def format_top(self, n: int = 10) -> str:
        """Text table of :meth:`top`, `EXPLAIN ANALYZE` rollup style."""
        rows = [
            [
                s.fingerprint,
                s.calls,
                round(s.total_ns),
                round(s.mean_ns),
                s.pages_pinned,
                s.pages_read,
                f"{s.cache_hit_rate:.2f}",
                s.heap_fetches,
                s.wal_bytes,
                s.retries,
            ]
            for s in self.top(n)
        ]
        if not rows:
            return "query profiles: (no operations profiled)"
        return format_table(
            [
                "fingerprint", "calls", "total_ns", "mean_ns", "pinned",
                "read", "cache_hr", "heap", "wal_B", "retries",
            ],
            rows,
            title="query profiles",
        )

    def as_dict(self) -> dict:
        """JSON-safe export: the 32 costliest fingerprints of the ranked
        rollup plus the 16 slowest retained slow queries."""
        return {
            "operations": self.operations,
            "fingerprints": len(self._stats),
            "top": [s.as_dict() for s in self.top(32)],
            "slow_queries": [p.line() for p in self.slow_queries(16)],
        }
