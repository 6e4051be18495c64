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
wrong answer.  Every mutation bumps ``epoch`` — the fingerprint cache's
validity token.

Scans must be *byte-identical* to the row executor, which yields rows
in heap order (heap pages in allocation order, ascending live slot),
while segment order is insertion order: an insert that takes a
tombstoned slot lands, in heap order, before rows inserted earlier.
So each position records its row's heap key, ``(page rank, slot)``
packed in one int, when the row is appended.  While every append's key
exceeds all earlier ones, heap order is segment order
(``in_position_order``); after one that does not, a scan sorts its
selected rows by key.

Each segment also keeps a ``memo`` of work derived from its own vectors
alone (selections, scan rows, partial aggregates; see
:mod:`repro.columnar.executor`).  Every mutation of the segment drops
it, so a query after a write recomputes only the segment written.
"""

from __future__ import annotations

from repro.columnar.cache import ColumnarStats
from repro.columnar.codecs import EncodedColumn, encode_column, raw_bytes
from repro.schema.record import unpack_record_map
from repro.schema.schema import Schema
from repro.storage.heap import Rid

#: Rows per segment: large enough that one kernel dispatch amortizes over
#: ~1k tuples, small enough that a patch re-encode stays cheap.
SEGMENT_ROWS = 1024


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

    def kill(self, position: int) -> None:
        if self.live[position]:
            self.live[position] = False
            self.live_count -= 1
            self._encoded = None
            self.memo.clear()

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
        #: Bumped on every mutation (and on invalidate); cache validity token.
        self.epoch = 0
        #: Set when a notification can't be applied in place (unknown RID);
        #: the next read rebuilds instead of guessing.
        self._stale = False

    # -- maintenance -------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the mirror; the next columnar read rebuilds from the heap."""
        self.built = False
        self._stale = False
        self.segments = []
        self._positions = {}
        self.in_position_order = True
        self._last_key = -1
        self._page_rank = {}
        self.epoch += 1

    def note_insert(self, rid: Rid, row: dict[str, object]) -> None:
        self.epoch += 1
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

    def note_update(self, rid: Rid, row: dict[str, object]) -> None:
        self.epoch += 1
        if not self.built:
            return
        where = self._positions.get(rid)
        if where is None:
            self._stale = True
            return
        self.segments[where[0]].patch(where[1], row)

    def note_delete(self, rid: Rid) -> None:
        self.epoch += 1
        if not self.built:
            return
        where = self._positions.pop(rid, None)
        if where is None:
            self._stale = True
            return
        self.segments[where[0]].kill(where[1])

    def _rank_pages(self) -> dict[int, int]:
        """Re-read the heap's page allocation order (pages only append)."""
        self._page_rank = {
            page_id: rank
            for rank, page_id in enumerate(self.table.heap.page_ids)
        }
        return self._page_rank

    # -- consistency -------------------------------------------------------

    @property
    def live_rows(self) -> int:
        return sum(segment.live_count for segment in self.segments)

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
