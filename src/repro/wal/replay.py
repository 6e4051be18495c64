"""WAL replay: rebuild a :class:`Database` to the last durable LSN.

Two recovery shapes share one code path, :func:`recover`:

* **Fresh-disk replay** (``disk=None``): the data files are gone; every
  heap change in the log is redone onto a blank disk (filler pages are
  allocated so logged page ids land where they should).  This is what
  the crash-point matrix test drives at every record boundary.
* **Crash-restart** (``disk=`` the survived disk): RAM died, the disk
  and the log device survived.  Redo starts at the last fuzzy
  checkpoint's ``redo_from`` — every change below it is provably on
  disk — and each record is applied *test-and-redo* style: page state
  is compared slot-by-slot so redoing an already-durable change is a
  no-op, and replaying the in-order suffix converges even when slots
  were reused across delete/insert cycles.

Indexes are never redone record-by-record: they are derived data, and
recovery rebuilds every index from its restored heap (exactly the
self-healing primitive PR 2 introduced for corrupt index pages).  Cached
tuple copies start cold.

The module also exports :func:`rebuild_heap_page` — materialize one heap
page purely from the log's full history — which
:class:`~repro.faults.recovery.RecoveryManager` uses to heal torn or
bit-flipped heap pages at runtime: the pages PR 2 had to declare
"honestly unrecoverable" are now redo-recovered.

Imports ``repro.query`` (to build the Database), so ``repro.wal.__init__``
must not import this module — reach it as ``repro.wal.replay``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.errors import CorruptPageError, WalError
from repro.obs.registry import MetricsRegistry, engine_registry
from repro.schema.schema import Column, Schema
from repro.schema.types import PhysicalType, TypeKind
from repro.storage.constants import DEFAULT_PAGE_SIZE, PageType
from repro.storage.page import SlottedPage
from repro.wal.log import GROUP_COMMIT_RECORDS, WalDevice, WalWriter
from repro.wal.record import (
    HEAP_OP_TYPES,
    RecordType,
    ScanResult,
    WalRecord,
    scan_wal,
)


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover` call scanned, truncated, and redid."""

    valid_bytes: int
    torn_tail: bool
    records_scanned: int
    redo_from: int
    max_lsn: int
    #: Every durable LSN — an operation "committed" iff its LSN is here.
    lsns: frozenset[int]
    #: Heap pages materialized from full log history because their
    #: on-disk bytes failed validation during redo.
    page_rebuilds: int
    #: table name -> live rows after recovery.
    tables: dict[str, int] = field(default_factory=dict)


def schema_from_meta(columns: list) -> Schema:
    """Inverse of :func:`repro.wal.log.schema_meta`."""
    return Schema(tuple(
        Column(name, PhysicalType(TypeKind(kind), int(size), type_name))
        for name, kind, size, type_name in columns
    ))


# -- page materialization -----------------------------------------------------


def _page_history_state(
    records: tuple[WalRecord, ...], page_id: int
) -> tuple[dict[int, bytes], int]:
    """Fold the full log history of one page into ``slot -> bytes`` plus
    the directory size (max slot ever used + 1)."""
    live: dict[int, bytes] = {}
    top = 0
    for rec in records:
        if rec.rtype not in HEAP_OP_TYPES or rec.page_id != page_id:
            continue
        top = max(top, rec.slot + 1)
        if rec.rtype is RecordType.DELETE:
            live.pop(rec.slot, None)
        else:
            live[rec.slot] = rec.payload
    return live, top


def rebuild_heap_page(
    records: tuple[WalRecord, ...], page_id: int, page_size: int
) -> bytes:
    """Materialize a heap page's bytes from its complete log history.

    The log is redo-complete for heap pages (every insert/update/delete
    is logged before the page can reach disk), so the fold of all
    records touching ``page_id`` *is* the page's last logged state —
    which is how a torn or bit-flipped heap page is healed at runtime.
    Compaction isn't logged, so the rebuilt layout may differ physically
    (records packed fresh from the footer) while agreeing on every
    ``(slot, bytes)`` pair, which is all RIDs and scans observe.
    """
    live, top = _page_history_state(records, page_id)
    buf = bytearray(page_size)
    page = SlottedPage.format(buf, page_id, PageType.HEAP)
    for slot in sorted(live):
        page.place_at(slot, live[slot])
    page.reserve_tombstones(top)
    return bytes(buf)


# -- redo application ---------------------------------------------------------


def _apply_heap_redo(page: SlottedPage, rec: WalRecord) -> bool:
    """Test-and-redo one heap record against current page state.

    Returns True if the page changed.  Convergence argument: the disk
    holds a *prefix-complete* state of each page (everything up to its
    last flush), and every logged change past ``redo_from`` is replayed
    in log order — so any "stale skip" here is corrected by a later
    record in the same replay.
    """
    count = page.slot_count
    live = rec.slot < count and page.slot_is_live(rec.slot)
    if rec.rtype is RecordType.INSERT:
        if live:
            return False  # already durable (or newer state; later records fix it)
        page.place_at(rec.slot, rec.payload)
        return True
    if rec.rtype is RecordType.UPDATE:
        if live:
            current = page.read(rec.slot)
            if current == rec.payload:
                return False
            if len(current) == len(rec.payload):
                page.update(rec.slot, rec.payload)
                return True
            page.delete(rec.slot)
        page.place_at(rec.slot, rec.payload)
        return True
    if rec.rtype is RecordType.DELETE:
        if not live:
            return False
        page.delete(rec.slot)
        return True
    raise WalError(f"not a heap redo record: {rec.rtype!r}")  # pragma: no cover


def recover(
    wal,
    *,
    disk=None,
    page_size: int = DEFAULT_PAGE_SIZE,
    data_pool_pages: int = 1024,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
    retry_policy=None,
    group_commit_records: int = GROUP_COMMIT_RECORDS,
    journal=None,
    journal_shard: int | None = None,
):
    """Restore a Database from a WAL (+ optionally a survived disk).

    Args:
        wal: the log to recover from — raw ``bytes``, a
            :class:`~repro.wal.log.WalDevice`, or a
            :class:`~repro.wal.log.WalWriter` (whose unflushed buffer is
            *discarded*, exactly as a crash would).  A device/writer's
            torn tail, if any, is truncated in place.
        disk: the survived disk, or ``None`` to replay onto a blank one.
        page_size, data_pool_pages, seed, retry_policy: forwarded to the
            rebuilt :class:`~repro.query.database.Database` (one shared
            pool).
        metrics: registry for the new database and the ``wal.replay.*``
            instruments; defaults like ``Database`` (ambient or fresh).
        group_commit_records: group-commit size for the new writer,
            which continues the survived log device.
        journal: optional :class:`~repro.obs.events.EventJournal`; the
            recovery phases (``recovery.begin`` → ``recovery.redo`` →
            ``recovery.end``) are journaled under ``journal_shard``, and
            the rebuilt engine keeps journaling into it.
        journal_shard: the rebuilt engine's shard id (its
            ``tracer.shard``), which tags its spans and events.

    Returns:
        ``(database, report)`` — the database holds every committed
        (durable-LSN) write and nothing else, with all indexes rebuilt.
    """
    metrics = engine_registry(metrics)
    return _replay(
        *_open_log(wal, metrics), metrics=metrics,
        group_commit_records=group_commit_records, journal=journal,
        journal_shard=journal_shard, disk=disk, page_size=page_size,
        data_pool_pages=data_pool_pages, seed=seed, retry_policy=retry_policy,
    )


def _open_log(
    wal, metrics: MetricsRegistry
) -> tuple[WalDevice, ScanResult, int]:
    """Open a log given as a :class:`WalWriter` (whose unflushed buffer
    dies with the "process"), a :class:`WalDevice` or raw bytes: decode
    it once and truncate a torn tail.  Replay, the rebuilt writer and
    sharded recovery's intents all read the returned scan; the int is
    what the open took, in ns."""
    started = time.perf_counter_ns()
    m_torn = metrics.counter("wal.torn_tail_truncations")
    device = wal.device if isinstance(wal, WalWriter) else wal
    if not isinstance(device, WalDevice):
        device = WalDevice(initial=bytes(device))
    scan = scan_wal(device.data)
    if scan.torn:
        device.truncate_at(scan.valid_bytes)
        m_torn.inc()
    return device, scan, time.perf_counter_ns() - started


def _replay(
    device: WalDevice, scan: ScanResult, open_ns: int, *,
    metrics: MetricsRegistry, group_commit_records: int, journal,
    journal_shard: int | None, disk=None, **engine,
):
    """:func:`recover` past the open: ``engine`` is the rest of the
    rebuilt Database's configuration; the ``wal.replay.ns`` sample adds
    ``open_ns``."""
    from repro.query.database import Database  # late: avoids import cycle

    started = time.perf_counter_ns() - open_ns
    m_applied = metrics.counter("wal.replay.records_applied")
    m_rebuilds = metrics.counter("wal.replay.page_rebuilds")
    m_replay_ns = metrics.histogram("wal.replay.ns")
    # The pool counts a faults.detected when redo trips over a torn
    # page; the rebuild below is its resolution, keeping the
    # detected == recovered + unrecoverable ledger balanced.
    m_recovered = metrics.counter("faults.recovered")

    records = scan.records

    def _emit(kind: str, **payload) -> None:
        if journal is not None:
            journal.emit(kind, shard=journal_shard, **payload)

    _emit(
        "recovery.begin",
        valid_bytes=scan.valid_bytes,
        torn_tail=scan.torn,
        records=len(records),
    )

    # -- catalog definitions -------------------------------------------------
    # CREATE records from the (never truncated) full history, overlaid
    # with the newest checkpoint's catalog snapshot for page lists.
    checkpoint: WalRecord | None = None
    table_defs: dict[str, dict] = {}
    index_defs: dict[str, dict] = {}
    for rec in records:
        if rec.rtype is RecordType.CREATE_TABLE:
            table_defs.setdefault(rec.meta["name"], dict(rec.meta))
        elif rec.rtype is RecordType.CREATE_INDEX:
            index_defs.setdefault(rec.meta["name"], dict(rec.meta))
        elif rec.rtype is RecordType.CHECKPOINT:
            checkpoint = rec
    if checkpoint is not None:
        for meta in checkpoint.meta["tables"]:
            table_defs[meta["name"]] = dict(meta)
        for meta in checkpoint.meta["indexes"]:
            index_defs[meta["name"]] = dict(meta)

    # With a survived disk, changes below the checkpoint's redo_from are
    # provably on disk; a blank disk needs the whole history.
    redo_from = checkpoint.redo_from if disk is not None and checkpoint else 1

    # -- page ownership ------------------------------------------------------
    # name -> ordered page ids: checkpoint baseline + first appearance in
    # the log (pages never migrate between heaps; the disk only grows).
    pages_of: dict[str, list[int]] = {
        name: list(meta.get("page_ids", ())) for name, meta in table_defs.items()
    }
    owned: dict[str, set[int]] = {
        name: set(ids) for name, ids in pages_of.items()
    }
    for rec in records:
        if rec.rtype in HEAP_OP_TYPES and rec.table in pages_of:
            if rec.page_id not in owned[rec.table]:
                owned[rec.table].add(rec.page_id)
                pages_of[rec.table].append(rec.page_id)

    db = Database(
        metrics=metrics,
        wal=WalWriter(
            device=device,
            registry=metrics,
            group_commit_records=group_commit_records,
            scan=scan,
        ),
        disk=disk,
        **engine,
    )
    db.tracer.shard = journal_shard
    page_size = db.disk.page_size

    # -- redo ----------------------------------------------------------------
    pool = db.data_pool
    applied = 0
    page_rebuilds = 0
    for rec in records:
        if rec.rtype not in HEAP_OP_TYPES or rec.lsn < redo_from:
            continue
        while db.disk.num_pages <= rec.page_id:
            db.disk.allocate_page()
        try:
            changed = _redo_one(pool, rec)
        except CorruptPageError:
            # The crash tore or corrupted this heap page's last write.
            # Its full history is in the log: materialize and retry.
            pool.restore_page(
                rec.page_id,
                rebuild_heap_page(records, rec.page_id, page_size),
            )
            page_rebuilds += 1
            m_rebuilds.inc()
            m_recovered.inc()
            changed = _redo_one(pool, rec)
        if changed:
            applied += 1
            m_applied.inc()
    _emit(
        "recovery.redo",
        redo_from=redo_from,
        applied=applied,
        page_rebuilds=page_rebuilds,
    )

    # -- heap page validation ------------------------------------------------
    # Restoring a table walks its heap pages and rebuilding an index
    # scans them all, so a heap page the crash (or at-rest corruption
    # before it) mangled *below* the redo window would fail mid-restore.
    # Validate every known heap page up front and materialize the bad
    # ones from full log history; the restores below then run clean
    # (recovery is expected to run with fault injection disarmed).
    for name in table_defs:
        for pid in pages_of[name]:
            try:
                with pool.page(pid):
                    pass
            except CorruptPageError:
                pool.restore_page(
                    pid, rebuild_heap_page(records, pid, page_size)
                )
                page_rebuilds += 1
                m_rebuilds.inc()
                m_recovered.inc()

    # -- loser-transaction rollback ------------------------------------------
    # Redo-only recovery replayed *everything* durable, including heap
    # ops of transactions whose TXN_COMMIT never reached the device.
    # Undo them here exactly the way a live abort would: compensation
    # records (ordinary heap redo records with the loser's txn id) in
    # reverse log order, closed by TXN_ABORT — so the log stays
    # redo-only and a crash *during this rollback* just leaves a longer
    # in-flight tail for the next recovery to converge on.
    txns_rolled_back = _rollback_in_flight(db, records)
    if txns_rolled_back:
        metrics.counter("wal.replay.txn_rollbacks").inc(txns_rolled_back)

    # -- catalog + index rebuild ---------------------------------------------
    tables: dict[str, int] = {}
    for name, meta in table_defs.items():
        table = db.restore_table(
            name,
            schema_from_meta(meta["schema"]),
            pages_of[name],
            append_only=bool(meta.get("append_only", False)),
        )
        tables[name] = table.num_rows
    for name, meta in index_defs.items():
        db.restore_index(
            meta["table"], name, tuple(meta["key_columns"]),
            tuple(meta["cached_fields"]), float(meta["split_fraction"]),
        )

    m_replay_ns.record(time.perf_counter_ns() - started)
    _emit(
        "recovery.end",
        tables=len(tables),
        txns_rolled_back=txns_rolled_back,
        max_lsn=scan.max_lsn,
    )
    if journal is not None:
        # The rebuilt engine keeps journaling into the same log.
        db.attach_events(journal)
    report = RecoveryReport(
        valid_bytes=scan.valid_bytes,
        torn_tail=scan.torn,
        records_scanned=len(records),
        redo_from=redo_from,
        max_lsn=scan.max_lsn,
        lsns=scan.lsns,
        page_rebuilds=page_rebuilds,
        tables=tables,
    )
    return db, report


def _rollback_in_flight(db, records) -> int:
    """Undo every in-flight transaction's durable heap ops; returns how
    many transactions it rolled back.

    A transaction is in flight when its heap ops appear in the durable
    prefix but neither its TXN_COMMIT nor its TXN_ABORT does — commit
    records are logged after every op, so a torn tail can only strand a
    *suffix* of a transaction, and the committed prefix of the log is
    untouched.  One forward positional fold captures each loser
    record's pre-image; compensation then applies in reverse log order
    (the pre-image of op *k* is the post-image of op *k-1* on that
    slot, so reverse replay restores the original bytes even across
    repeated crash/recover cycles that already half-compensated).
    """
    seen: set[int] = set()
    resolved: set[int] = set()
    for rec in records:
        if rec.txn_id:
            seen.add(rec.txn_id)
        if rec.rtype in (RecordType.TXN_COMMIT, RecordType.TXN_ABORT):
            resolved.add(rec.txn_id)
    losers = seen - resolved
    if not losers:
        return 0
    state: dict[tuple[str, int, int], bytes] = {}
    loser_ops: list[tuple[WalRecord, bytes | None]] = []
    for rec in records:
        if rec.rtype not in HEAP_OP_TYPES:
            continue
        addr = (rec.table, rec.page_id, rec.slot)
        if rec.txn_id in losers:
            loser_ops.append((rec, state.get(addr)))
        if rec.rtype is RecordType.DELETE:
            state.pop(addr, None)
        else:
            state[addr] = rec.payload
    writer = db.wal
    pool = db.data_pool
    for rec, pre in reversed(loser_ops):
        if pre is None and rec.rtype is RecordType.DELETE:  # pragma: no cover
            continue  # a delete of a dead slot
        # Undo an insert by a delete, a delete or an update by its
        # pre-image: an ordinary heap record under the loser's txn id,
        # logged and applied as the one record it is.
        if pre is None:
            rtype = RecordType.DELETE
        elif rec.rtype is RecordType.DELETE:
            rtype = RecordType.INSERT
        else:
            rtype = RecordType.UPDATE
        comp = replace(
            rec, lsn=writer.reserve_lsn(), rtype=rtype, payload=pre or b""
        )
        writer._log(comp)
        _redo_one(pool, comp)
    for txn_id in sorted(losers):
        writer.log_txn_abort(txn_id)
    writer.flush()
    return len(losers)


def _redo_one(pool, rec: WalRecord) -> bool:
    """Apply one heap record through the pool (formatting blank pages).

    The frame is stamped with the record's LSN exactly like a live
    operation would: replayed-but-not-yet-flushed changes must keep
    their ``rec_lsn`` so a post-restart checkpoint cannot claim them
    durable and strand them in a later crash's skipped redo window.
    """
    with pool.page(rec.page_id, dirty=True, lsn=rec.lsn) as page:
        if not page.is_formatted:
            page.reformat(rec.page_id, PageType.HEAP)
        return _apply_heap_redo(page, rec)
