"""Column-major mirror of a table heap (§3 hot partition, column form).

A :class:`ColumnStore` shadows one table's heap as a list of
:class:`ColumnSegment` chunks: per-column Python lists (the decoded
working set the batch kernels run over) plus a liveness vector.  Sealed
segments additionally carry their :mod:`repro.columnar.codecs` encoded
form for the waste accounting the paper cares about; the open tail
segment stays decoded-only until it fills.

The mirror is *derived* state, maintained the same way indexes are: the
table notifies it after every applied heap mutation
(:meth:`note_insert` / :meth:`note_update` / :meth:`note_delete`).  It
builds lazily on first columnar read and rebuilds whenever it detects
it has diverged from the heap (e.g. out-of-band heap surgery by the
recovery layer), so a stale mirror degrades to a rebuild, never to a
wrong answer.

Scans must be *byte-identical* to the row executor, which yields rows
in heap order (heap pages in allocation order, ascending live slot),
while segment order is insertion order: an insert that takes a
tombstoned slot lands, in heap order, before rows inserted earlier.
So each position records its row's heap key, ``(page rank, slot)``
packed in one int, when the row is appended.  While every append's key
exceeds all earlier ones, heap order is segment order
(``in_position_order``); after one that does not, a scan sorts its
selected rows by key.

Reuse follows one rule at two levels (DESIGN.md §5h): a memo holds
only what is a pure function of the vectors beneath it, and every write
to those vectors drops it, so no entry needs a validity token.  Each
segment's ``memo`` holds work derived from its own vectors alone
(selections, scan rows, partial aggregates; see
:mod:`repro.columnar.executor`), so a query after a write recomputes
only the segment written.  The store's ``memo`` holds whole answers,
and any write to the table drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.columnar.codecs import EncodedColumn, encode_column, raw_bytes
from repro.schema.record import unpack_record_map
from repro.schema.schema import Schema
from repro.storage.heap import Rid

#: Rows per segment: large enough that one kernel dispatch amortizes over
#: ~1k tuples, small enough that a patch re-encode stays cheap.
SEGMENT_ROWS = 1024

#: Entries a store's memo, and each segment's, may hold.
MEMO_ENTRIES = 256


@dataclass
class ColumnarStats:
    """One manager's columnar counts, bumped by its stores and adopted by
    its registry: plain ints, so the registry never holds a store or a
    memoised answer, and a dropped table's counts stay."""

    rebuilds: int = 0
    segments_sealed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0


def remember(memo: dict, key, value):
    """Keep ``value`` in ``memo``, first dropping the oldest entry if the
    memo already holds ``MEMO_ENTRIES``."""
    if len(memo) >= MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def _heap_key(page_rank: int, slot: int) -> int:
    """A row's place in heap order as one int: page rank, then slot (a
    slot number is a u16 directory index, so 16 bits hold it)."""
    return page_rank << 16 | slot


class ColumnSegment:
    """A fixed-capacity chunk of the mirror: decoded vectors + liveness."""

    __slots__ = (
        "columns", "live", "keys", "count", "live_count", "sealed", "memo",
        "_encoded",
    )

    def __init__(self, names: tuple[str, ...]) -> None:
        self.columns: dict[str, list] = {name: [] for name in names}
        self.live: list[bool] = []
        #: Each position's heap key (``_heap_key``), fixed at append.
        self.keys: list[int] = []
        self.count = 0
        self.live_count = 0
        self.sealed = False
        #: Work derived from this segment's vectors alone, keyed by
        #: predicate: a pure function of them, so every mutation drops it
        #: and it needs no validity token.
        self.memo: dict = {}
        self._encoded: dict[str, EncodedColumn] | None = None

    def append(self, row: dict[str, object], key: int) -> int:
        position = self.count
        for name, vector in self.columns.items():
            vector.append(row[name])
        self.live.append(True)
        self.keys.append(key)
        self.count += 1
        self.live_count += 1
        self._encoded = None
        self.memo.clear()
        return position

    def patch(self, position: int, row: dict[str, object]) -> None:
        for name, vector in self.columns.items():
            vector[position] = row[name]
        self._encoded = None
        self.memo.clear()

    def kill(self, position: int) -> bool:
        """Mark ``position`` dead; False if it already was."""
        if not self.live[position]:
            return False
        self.live[position] = False
        self.live_count -= 1
        self._encoded = None
        self.memo.clear()
        return True

    def encoded_columns(self, schema: Schema) -> dict[str, EncodedColumn]:
        """Encoded form of every column (cached until the next mutation)."""
        if self._encoded is None:
            self._encoded = {
                column.name: encode_column(
                    column, self.columns[column.name], self.live
                )
                for column in schema.columns
            }
        return self._encoded


class ColumnStore:
    """The columnar mirror of one table's heap."""

    def __init__(
        self, table, stats: ColumnarStats, segment_rows: int = SEGMENT_ROWS
    ) -> None:
        self.table = table
        self.stats = stats
        self._schema: Schema = table.schema
        self._segment_rows = max(1, segment_rows)
        self.segments: list[ColumnSegment] = []
        #: Live positions over every segment, kept as they change.
        self.live_rows = 0
        #: Whole answers, keyed ``(verb, projection or specs, predicate
        #: key)``: dropped by every write to the table.
        self.memo: dict = {}
        #: Rid -> (segment index, position) of its row.
        self._positions: dict[Rid, tuple[int, int]] = {}
        #: True while every append's heap key exceeded all before it, so
        #: heap order is segment order and a scan may concatenate its
        #: segments' rows as they are.
        self.in_position_order = True
        #: The largest heap key appended since the last rebuild.
        self._last_key = -1
        #: Heap page id -> its rank in the heap's allocation order.
        self._page_rank: dict[int, int] = {}
        self.built = False
        #: Set when a notification can't be applied in place (unknown RID);
        #: the next read rebuilds instead of guessing.
        self._stale = False

    # -- maintenance -------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the mirror; the next columnar read rebuilds from the heap."""
        self.built = False
        self._stale = False
        self.segments = []
        self.live_rows = 0
        self._positions = {}
        self.in_position_order = True
        self._last_key = -1
        self._page_rank = {}
        self._drop_answers()

    def _drop_answers(self) -> None:
        self.stats.cache_invalidations += len(self.memo)
        self.memo.clear()

    def answer(self, key: tuple, compute, *args):
        """The answer memoised under ``key``, else ``compute(self, *args)``
        remembered under it; counted as a hit or a miss."""
        value = self.memo.get(key)
        if value is None:
            self.stats.cache_misses += 1
            return remember(self.memo, key, compute(self, *args))
        self.stats.cache_hits += 1
        return value

    def note_insert(self, rid: Rid, row: dict[str, object]) -> None:
        self._drop_answers()
        if not self.built:
            return
        if rid in self._positions:  # heap slot reuse out from under us
            self._stale = True
            return
        if not self.segments or self.segments[-1].count >= self._segment_rows:
            if self.segments:
                self.segments[-1].sealed = True
                self.stats.segments_sealed += 1
            self.segments.append(ColumnSegment(self._schema.names))
        rank = self._page_rank.get(rid.page_id)
        if rank is None:  # a page the heap allocated since the last lookup
            rank = self._rank_pages()[rid.page_id]
        key = _heap_key(rank, rid.slot)
        if key < self._last_key:  # a slot before a row inserted earlier
            self.in_position_order = False
        else:
            self._last_key = key
        position = self.segments[-1].append(row, key)
        self._positions[rid] = (len(self.segments) - 1, position)
        self.live_rows += 1

    def note_update(self, rid: Rid, row: dict[str, object]) -> None:
        self._drop_answers()
        if not self.built:
            return
        where = self._positions.get(rid)
        if where is None:
            self._stale = True
            return
        self.segments[where[0]].patch(where[1], row)

    def note_delete(self, rid: Rid) -> None:
        self._drop_answers()
        if not self.built:
            return
        where = self._positions.pop(rid, None)
        if where is None:
            self._stale = True
            return
        if self.segments[where[0]].kill(where[1]):
            self.live_rows -= 1

    def _rank_pages(self) -> dict[int, int]:
        """Re-read the heap's page allocation order (pages only append)."""
        self._page_rank = {
            page_id: rank
            for rank, page_id in enumerate(self.table.heap.page_ids)
        }
        return self._page_rank

    # -- consistency -------------------------------------------------------

    def ensure_current(self) -> None:
        """Rebuild if the mirror is unbuilt, flagged stale, or has visibly
        diverged from the heap (live-row cardinality disagreement catches
        out-of-band mutations that bypassed the Table write paths)."""
        if (
            not self.built
            or self._stale
            or self.live_rows != self.table.heap.num_records
        ):
            self.rebuild()

    def rebuild(self) -> None:
        self.invalidate()
        names = self._schema.names
        segments = self.segments
        positions = self._positions
        page_rank = self._rank_pages()
        key = -1
        # The heap scans in heap order, so the keys come ascending.
        for rid, record in self.table.heap.scan():
            row = unpack_record_map(self._schema, record)
            if not segments or segments[-1].count >= self._segment_rows:
                if segments:
                    segments[-1].sealed = True
                    self.stats.segments_sealed += 1
                segments.append(ColumnSegment(names))
            key = _heap_key(page_rank[rid.page_id], rid.slot)
            positions[rid] = (len(segments) - 1, segments[-1].append(row, key))
        self.live_rows = len(positions)
        self._last_key = key
        self.built = True
        self.stats.rebuilds += 1

    # -- accounting --------------------------------------------------------

    def encoded_bytes(self) -> int:
        """Encoded footprint of sealed segments (open tail excluded)."""
        return sum(
            encoded.encoded_bytes
            for segment in self.segments
            if segment.sealed
            for encoded in segment.encoded_columns(self._schema).values()
        )

    def raw_bytes(self) -> int:
        """Row-format footprint of the same sealed positions."""
        return sum(
            raw_bytes(column, segment.count)
            for segment in self.segments
            if segment.sealed
            for column in self._schema.columns
        )
