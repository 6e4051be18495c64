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
in heap order (ascending page id, ascending live slot).  The store
tracks position-by-RID so :meth:`heap_order_positions` can emit exactly
that order even though segment order is insertion order.
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


class ColumnSegment:
    """A fixed-capacity chunk of the mirror: decoded vectors + liveness."""

    __slots__ = ("columns", "live", "count", "live_count", "sealed", "_encoded")

    def __init__(self, names: tuple[str, ...]) -> None:
        self.columns: dict[str, list] = {name: [] for name in names}
        self.live: list[bool] = []
        self.count = 0
        self.live_count = 0
        self.sealed = False
        self._encoded: dict[str, EncodedColumn] | None = None

    def append(self, row: dict[str, object]) -> int:
        position = self.count
        for name, vector in self.columns.items():
            vector.append(row[name])
        self.live.append(True)
        self.count += 1
        self.live_count += 1
        self._encoded = None
        return position

    def patch(self, position: int, row: dict[str, object]) -> None:
        for name, vector in self.columns.items():
            vector[position] = row[name]
        self._encoded = None

    def kill(self, position: int) -> None:
        if self.live[position]:
            self.live[position] = False
            self.live_count -= 1
            self._encoded = None

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
        #: Rid -> (segment index, position); the bridge back to heap order.
        self._positions: dict[Rid, tuple[int, int]] = {}
        self.built = False
        #: Bumped on every mutation (and on invalidate); cache validity token.
        self.epoch = 0
        #: Set when a notification can't be applied in place (unknown RID);
        #: the next read rebuilds instead of guessing.
        self._stale = False
        #: Heap-order (segment, position) list, memoized per epoch.
        self._order: list[tuple[int, int]] | None = None

    # -- maintenance -------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the mirror; the next columnar read rebuilds from the heap."""
        self.built = False
        self._stale = False
        self.segments = []
        self._positions = {}
        self._order = None
        self.epoch += 1

    def note_insert(self, rid: Rid, row: dict[str, object]) -> None:
        self.epoch += 1
        self._order = None
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
        position = self.segments[-1].append(row)
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
        for rid, record in self.table.heap.scan():
            row = unpack_record_map(self._schema, record)
            if not segments or segments[-1].count >= self._segment_rows:
                if segments:
                    segments[-1].sealed = True
                    self.stats.segments_sealed += 1
                segments.append(ColumnSegment(names))
            positions[rid] = (len(segments) - 1, segments[-1].append(row))
        self.built = True
        self.stats.rebuilds += 1

    # -- reads -------------------------------------------------------------

    def heap_order(self) -> list[tuple[int, int]]:
        """(segment, position) pairs in heap order — the exact row order
        ``Table._scan_rows`` produces, so materialized output is
        list-identical to the row executor's.  Memoized until the next
        insert or rebuild; deleted positions may linger in the memo and
        are skipped by the liveness mask the executor applies.
        """
        if self._order is None:
            by_page: dict[int, list[tuple[int, Rid]]] = {}
            for rid in self._positions:
                by_page.setdefault(rid.page_id, []).append((rid.slot, rid))
            order: list[tuple[int, int]] = []
            positions = self._positions
            for page_id in self.table.heap.page_ids:
                slots = by_page.get(page_id)
                if not slots:
                    continue
                slots.sort()
                order.extend(positions[rid] for _, rid in slots)
            self._order = order
        return self._order

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
