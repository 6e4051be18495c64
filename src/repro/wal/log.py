"""The write-ahead log: an append-only device and a group-commit writer.

``repro``'s durability rule is **flush-before-evict** (redo-only,
ARIES-lite): an operation reserves an LSN, applies its page changes with
that LSN stamped on every dirtied frame, then appends a redo record.
Records sit in the writer's in-memory buffer until either

* a *group commit* fills (``group_commit_records`` buffered frames are
  appended to the device as one blob — one simulated device write for N
  records), or
* the buffer pool is about to write back a page whose ``page_lsn``
  exceeds the durable LSN, in which case :meth:`WalWriter.flush_to`
  forces the buffer out first — the classic WAL invariant that no data
  page reaches disk ahead of its log.

A crash loses the buffer (those operations were never durable, exactly
like a lost ``fsync``); the device's byte prefix is what survives.  The
log is never truncated in this simulation — checkpoints bound *replay
time*, not log size, standing in for archival to cold storage.

Imports nothing from ``repro.query``: checkpointing walks the database
duck-typed (catalog + heaps + pools), so ``Database`` can import this
module without a cycle.
"""

from __future__ import annotations

from repro.errors import SimulatedCrashError, WalError
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.storage.heap import Rid
from repro.wal.record import RecordType, ScanResult, WalRecord, encode_frame

#: Records per group-commit append unless told otherwise — one name for
#: the writer, both database facades and recovery, so a restarted engine
#: commits in the batches a fresh one would.
GROUP_COMMIT_RECORDS = 8


class WalDevice:
    """Append-only simulated log device with crash hooks.

    ``crash_after(n)`` arms a power cut at absolute byte ``n``: the
    append that would cross it keeps only the prefix up to ``n`` (a torn
    log tail, detected later by frame CRCs) and raises
    :class:`~repro.errors.SimulatedCrashError`.  ``truncate_at`` is the
    restart-side counterpart used to discard a detected torn tail.
    """

    def __init__(self, initial: bytes = b"") -> None:
        self._data = bytearray(initial)
        #: Completed device appends (the group-commit denominator).
        self.appends = 0
        self._crash_at: int | None = None

    @property
    def data(self) -> bytes:
        """The durable byte stream (what survives a crash)."""
        return bytes(self._data)

    @property
    def size(self) -> int:
        return len(self._data)

    def crash_after(self, total_bytes: int) -> None:
        """Arm a simulated power cut at absolute byte ``total_bytes``."""
        if total_bytes < len(self._data):
            raise WalError(
                f"crash byte {total_bytes} is already durable "
                f"({len(self._data)} bytes on device)"
            )
        self._crash_at = total_bytes

    def append(self, blob: bytes) -> None:
        if self._crash_at is not None:
            if len(self._data) + len(blob) > self._crash_at:
                keep = self._crash_at - len(self._data)
                self._data += blob[:keep]
                self._crash_at = None
                raise SimulatedCrashError(
                    f"power cut mid-append at log byte {len(self._data)}"
                )
        self._data += blob
        self.appends += 1

    def truncate_at(self, n_bytes: int) -> None:
        """Discard everything past byte ``n_bytes`` (torn-tail cleanup)."""
        if not 0 <= n_bytes <= len(self._data):
            raise WalError(
                f"truncate point {n_bytes} outside device of {len(self._data)}"
            )
        del self._data[n_bytes:]


class WalWriter:
    """LSN allocator + group-commit redo-record writer.

    The LSN protocol: callers :meth:`reserve_lsn` *before* touching any
    page (so dirtied frames can be stamped), then append the matching
    record once the operation's page changes are applied.  An operation
    that fails between the two simply abandons its LSN — gaps are legal
    (see :mod:`repro.wal.record`) — and appends compensation records for
    whatever it undid, reusing the normal record types, so the log
    always redoes to the state the engine actually reached.

    ``scan`` is recovery's one decode of ``device`` (a fresh device's is
    empty): the writer continues its LSN, txn-id and CSN sequences from
    it, and refuses one that does not cover the device.
    """

    def __init__(
        self,
        device: WalDevice | None = None,
        registry: MetricsRegistry | None = None,
        group_commit_records: int = GROUP_COMMIT_RECORDS,
        scan: ScanResult = ScanResult(records=(), valid_bytes=0, torn=False),
    ) -> None:
        if group_commit_records < 1:
            raise WalError("group_commit_records must be >= 1")
        self.device = device if device is not None else WalDevice()
        if scan.valid_bytes != self.device.size:
            raise WalError(
                f"scan covers {scan.valid_bytes} of the device's "
                f"{self.device.size} bytes"
            )
        #: Records per group-commit device append (the adaptive knob).
        self.group_commit_records = group_commit_records
        #: The owning engine's Tracer, the writer's one §5j hook:
        #: flushes become spans of the trace collector armed on it, and
        #: checkpoints are journaled into its journal under its shard id.
        #: Off path: is-None tests, no call, per flush/checkpoint.
        self.tracer = None
        self._buffer: list[bytes] = []
        self._buffered_lsn = 0
        records = scan.records
        self._flushed_lsn = scan.max_lsn
        #: The LSN the next reservation will return.
        self.next_lsn = scan.max_lsn + 1
        #: Highest txn id and commit CSN in the log this writer opened
        #: over: where its session manager starts (DESIGN.md §5g).
        self.max_txn_id = max((r.txn_id for r in records), default=0)
        self.max_csn = max(
            (r.csn for r in records if r.rtype is RecordType.TXN_COMMIT),
            default=0,
        )
        reg = resolve_registry(registry)
        self._m_records = reg.counter("wal.records")
        self._m_bytes = reg.counter("wal.bytes")
        self._m_flushes = reg.counter("wal.flushes")
        self._m_batch = reg.histogram("wal.group_commit.batch_records")
        self._m_checkpoints = reg.counter("wal.checkpoints")
        self._m_kind = {
            rtype: reg.counter(f"wal.kind.{rtype.name.lower()}")
            for rtype in RecordType
        }
        self._m_group_knob = reg.gauge("adaptive.knob.wal.group_commit_records")
        self._m_group_knob.set(float(self.group_commit_records))

    # -- properties ----------------------------------------------------------

    @property
    def logged_bytes(self) -> int:
        """Encoded bytes this log has taken: the flushed ones the
        ``wal.bytes`` counter holds plus those in the group-commit buffer.

        The counter moves only at flush time; the query
        profiler and the facade's per-shard work read this instead, so a
        record's bytes are charged to the operation that *logged* it,
        independent of group-commit flush timing.
        """
        return self._m_bytes.value + sum(len(frame) for frame in self._buffer)

    def set_group_commit(self, group_commit_records: int) -> None:
        """Retune the group-commit window on a live writer.

        Durability is unaffected: records already buffered stay buffered
        (or flush immediately if the new, smaller window is already
        full), and ``flush_to`` still forces the buffer out whenever the
        buffer pool needs it.  Only the *batching* of future device
        appends changes.
        """
        if group_commit_records < 1:
            raise WalError("group_commit_records must be >= 1")
        self.group_commit_records = int(group_commit_records)
        self._m_group_knob.set(float(self.group_commit_records))
        if len(self._buffer) >= self.group_commit_records:
            self.flush()

    # -- LSN + record protocol ----------------------------------------------

    def reserve_lsn(self) -> int:
        """Allocate the next LSN (call before applying page changes)."""
        lsn = self.next_lsn
        self.next_lsn += 1
        return lsn

    def log_insert(
        self, table: str, rid: Rid, payload: bytes, lsn: int | None = None,
        txn_id: int = 0,
    ) -> int:
        return self._log(WalRecord(
            lsn=self._resolve(lsn), rtype=RecordType.INSERT, table=table,
            page_id=rid.page_id, slot=rid.slot, payload=bytes(payload),
            txn_id=txn_id,
        ))

    def log_update(
        self, table: str, rid: Rid, payload: bytes, lsn: int | None = None,
        txn_id: int = 0,
    ) -> int:
        return self._log(WalRecord(
            lsn=self._resolve(lsn), rtype=RecordType.UPDATE, table=table,
            page_id=rid.page_id, slot=rid.slot, payload=bytes(payload),
            txn_id=txn_id,
        ))

    def log_delete(
        self, table: str, rid: Rid, lsn: int | None = None, txn_id: int = 0
    ) -> int:
        return self._log(WalRecord(
            lsn=self._resolve(lsn), rtype=RecordType.DELETE, table=table,
            page_id=rid.page_id, slot=rid.slot, txn_id=txn_id,
        ))

    def log_txn_begin(self, txn_id: int) -> int:
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.TXN_BEGIN,
            meta={"txn": txn_id}, txn_id=txn_id,
        ))

    def log_txn_commit(self, txn_id: int, csn: int) -> int:
        """Append the commit point for ``txn_id``.

        The record rides the normal group-commit buffer, so commits
        from many sessions batch into one device append; a session that
        needs synchronous durability calls :meth:`flush` after.
        """
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.TXN_COMMIT,
            meta={"txn": txn_id, "csn": csn}, txn_id=txn_id,
        ))

    def log_txn_abort(self, txn_id: int) -> int:
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.TXN_ABORT,
            meta={"txn": txn_id}, txn_id=txn_id,
        ))

    def log_create_table(self, meta: dict) -> int:
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.CREATE_TABLE, meta=meta
        ))

    def log_create_index(self, meta: dict) -> int:
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.CREATE_INDEX, meta=meta
        ))

    def log_hot_cold_move(self, label: str, src: Rid, dst: Rid) -> int:
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.HOT_COLD_MOVE, table=label,
            page_id=src.page_id, slot=src.slot,
            aux_page=dst.page_id, aux_slot=dst.slot,
        ))

    def log_shard_migrate(self, meta: dict) -> int:
        """Append a cross-shard migration intent (to the *dst* shard's
        log; ``meta`` carries table, JSON-safe key, src, dst, seq)."""
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.SHARD_MIGRATE, meta=meta
        ))

    def log_index_cache_drop(self, index_name: str) -> int:
        return self._log(WalRecord(
            lsn=self.reserve_lsn(), rtype=RecordType.INDEX_CACHE_DROP,
            table=index_name,
        ))

    # -- durability ----------------------------------------------------------

    def flush(self) -> None:
        """Append every buffered frame to the device as one blob."""
        if not self._buffer:
            return
        trace = self.tracer.trace if self.tracer is not None else None
        if trace is not None:
            with trace.span(
                "wal.flush",
                shard=self.tracer.shard,
                records=len(self._buffer),
                bytes=sum(len(b) for b in self._buffer),
            ):
                self._flush_locked()
            return
        self._flush_locked()

    def _flush_locked(self) -> None:
        blob = b"".join(self._buffer)
        batch = len(self._buffer)
        # On a crash mid-append the buffer is conceptually lost with the
        # rest of RAM; clearing it first keeps this object honest if a
        # harness keeps using it after catching SimulatedCrashError.
        self._buffer = []
        buffered_lsn = self._buffered_lsn
        self.device.append(blob)
        self._flushed_lsn = buffered_lsn
        self._m_flushes.inc()
        self._m_batch.record(batch)
        self._m_bytes.inc(len(blob))

    def flush_to(self, lsn: int) -> None:
        """Make every record with LSN <= ``lsn`` durable (WAL rule hook).

        The buffer pool calls this before writing back a page stamped
        with ``page_lsn = lsn``; group commit means the whole buffer
        goes, not just the prefix.
        """
        if lsn > self._flushed_lsn:
            self.flush()

    def checkpoint(self, db) -> int:
        """Append a fuzzy checkpoint for ``db`` and flush.

        No pages are forced out.  The record carries a catalog snapshot
        (tables with their page lists and schemas, indexes with their
        geometry) plus ``redo_from`` — the minimum ``rec_lsn`` over
        dirty data-pool frames.  Every change with a smaller LSN is
        already on disk, so replay after a later crash starts there.
        """
        dirty = db.data_pool.dirty_rec_lsns()
        if db.index_pool is not db.data_pool:
            dirty = list(dirty) + list(db.index_pool.dirty_rec_lsns())
        lsn = self.reserve_lsn()
        redo_from = min([x for x in dirty if x > 0], default=lsn)
        meta = checkpoint_meta(db)
        meta["redo_from"] = min(redo_from, lsn)
        self._log(WalRecord(lsn=lsn, rtype=RecordType.CHECKPOINT, meta=meta))
        self.flush()
        self._m_checkpoints.inc()
        tracer = self.tracer
        if tracer is not None and tracer.journal is not None:
            tracer.journal.emit(
                "wal.checkpoint",
                shard=tracer.shard,
                lsn=lsn,
                redo_from=meta["redo_from"],
            )
        return lsn

    def all_bytes(self) -> bytes:
        """Durable bytes plus the still-buffered frames (for *in-process*
        consumers like the heap-page healer; a crash sees only
        ``device.data``)."""
        return self.device.data + b"".join(self._buffer)

    # -- internals -----------------------------------------------------------

    def _resolve(self, lsn: int | None) -> int:
        return lsn if lsn is not None else self.reserve_lsn()

    def _log(self, record: WalRecord) -> int:
        self._buffer.append(encode_frame(record))
        if record.lsn > self._buffered_lsn:
            self._buffered_lsn = record.lsn
        self._m_records.inc()
        self._m_kind[record.rtype].inc()
        if len(self._buffer) >= self.group_commit_records:
            self.flush()
        return record.lsn


# -- catalog metadata ---------------------------------------------------------


def schema_meta(schema) -> list[list]:
    """JSON-safe encoding of a :class:`~repro.schema.schema.Schema`."""
    return [
        [c.name, c.ctype.kind.value, c.ctype.size, c.ctype.name]
        for c in schema.columns
    ]


def table_meta(name: str, schema, heap) -> dict:
    """CREATE_TABLE / checkpoint entry for one table."""
    return {
        "name": name,
        "append_only": bool(heap.append_only),
        "page_ids": list(heap.page_ids),
        "schema": schema_meta(schema),
    }


def index_meta(table_name: str, name: str, index) -> dict:
    """CREATE_INDEX / checkpoint entry for index ``name`` on a table."""
    return {
        "name": name,
        "table": table_name,
        "key_columns": list(index.key_codec.columns),
        "kind": "cached" if index.cached_fields else "plain",
        "cached_fields": list(index.cached_fields),
        "split_fraction": index.tree.split_fraction,
    }


def checkpoint_meta(db) -> dict:
    """Catalog snapshot for a fuzzy checkpoint (duck-typed db walk)."""
    tables = []
    indexes = []
    for table in db.catalog.tables():
        tables.append(table_meta(table.name, table.schema, table.heap))
        for name in table.index_names:
            indexes.append(index_meta(table.name, name, table.index(name)))
    return {"tables": tables, "indexes": indexes}
