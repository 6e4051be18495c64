"""Self-healing recovery from confirmed page corruption.

The buffer pool detects corruption (checksum or freshness mismatch),
quarantines the page, and raises :class:`~repro.errors.CorruptPageError`.
What happens next depends on who owned the page, and that is this
module's job:

* **B+Tree pages are redundant** — every index entry can be recomputed
  from the heap, so a corrupt node is healed by rebuilding the whole
  index with :meth:`rebuild_from_heap` (bulk load from a sorted heap
  scan).  Cached tuple copies ride along: the rebuilt leaves start with
  empty cache windows and the invalidation epoch is bumped, dropping the
  old cache wholesale.
* **Heap pages are the source of truth** — but with a write-ahead log
  attached (``Database(wal=...)``) their full history is in the log, so
  a corrupt heap page is *redo-recovered*: its last logged state is
  materialized from the WAL (:func:`repro.wal.replay.rebuild_heap_page`)
  and written back over the quarantined bytes.  Without a WAL it remains
  honest data loss and the error propagates.

:class:`RecoveryManager` wraps an operation, heals on corruption, and
retries it, keeping the ``faults.detected == faults.recovered +
faults.unrecoverable`` ledger balanced: the pool counts each detection,
and exactly one resolution is counted here (or in the pool's own
corrective-re-read path) per detection.

Duck-typed against the ``Database`` surface (catalog + tables + indexes,
and the tracer whose journal it emits into) so the module imports
nothing from ``repro.query``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptPageError, RecoveryError
from repro.obs.registry import MetricsRegistry, resolve_registry


@dataclass
class RecoveryStats:
    """One manager's resolutions: plain ints the registry adopts, so a
    shared registry holds these and never the engine the manager heals."""

    #: Heals that succeeded: index rebuilds plus heap pages redone.
    recovered: int = 0
    unrecoverable: int = 0
    index_rebuilds: int = 0
    heap_page_rebuilds: int = 0


class RecoveryManager:
    """Heal-and-retry driver for one database."""

    def __init__(
        self,
        database,
        max_heals: int = 8,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_heals < 1:
            raise RecoveryError("max_heals must be at least 1")
        self._db = database
        self.max_heals = max_heals
        self.stats = RecoveryStats()
        resolve_registry(registry).adopt(self.stats, {
            "recovered": "faults.recovered",
            "unrecoverable": "faults.unrecoverable",
            "index_rebuilds": "recovery.index_rebuilds",
            "heap_page_rebuilds": "recovery.heap_page_rebuilds",
        })

    def _emit(self, kind: str, **payload) -> None:
        """Journal a transition it counts into the journal armed on the
        database's tracer, under its shard id; with none armed the fault
        path pays one is-None test."""
        tracer = self._db.tracer
        if tracer.journal is not None:
            tracer.journal.emit(kind, shard=tracer.shard, **payload)

    def call(self, fn, *args, **kwargs):
        """Run ``fn``, healing and retrying on page corruption.

        Each :class:`~repro.errors.CorruptPageError` triggers one
        :meth:`heal`; the operation is retried until it succeeds, a page
        proves unrecoverable, or ``max_heals`` distinct heals have been
        spent (guarding against a corruption storm).
        """
        heals_spent = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except CorruptPageError as exc:
                self._emit("fault.detected", page=exc.page_id)
                if heals_spent >= self.max_heals:
                    self._unrecoverable(exc.page_id, "heal budget exhausted")
                    raise RecoveryError(
                        f"gave up after {heals_spent} heal(s); last corrupt "
                        f"page was {exc.page_id}"
                    ) from exc
                if not self.heal(exc.page_id):
                    raise
                heals_spent += 1

    def heal(self, page_id: int) -> bool:
        """Try to repair the structure owning ``page_id``.

        Returns True (and counts ``faults.recovered``) if the owner was
        an index (rebuilt from the heap) or a heap file on a database
        with a WAL (page redone from log history); False (counting
        ``faults.unrecoverable``) for WAL-less heap pages and unowned
        pages.
        """
        owner = self._owning_index(page_id)
        if owner is not None:
            name, index = owner
            while True:
                try:
                    index.rebuild_from_heap()
                    break
                except CorruptPageError as exc:
                    # The rebuild scans the whole heap and can trip over
                    # a heap page corrupted at rest, a detection of its
                    # own: redo-recover it and resume, or give up on both
                    # pages at once.
                    self._emit("fault.detected", page=exc.page_id)
                    if self._recover_heap(exc.page_id):
                        continue
                    self._unrecoverable(
                        exc.page_id,
                        "heap page unrecoverable during index rebuild",
                    )
                    self._emit("fault.quarantine", page=exc.page_id)
                    self._unrecoverable(
                        page_id, "index rebuild aborted by a lost heap page"
                    )
                    return False
            wal = getattr(self._db, "wal", None)
            if wal is not None and index.cached_fields:
                wal.log_index_cache_drop(name)
            self.stats.recovered += 1
            self.stats.index_rebuilds += 1
            self._emit(
                "fault.recovered", page=page_id, action="index_rebuild",
                index=name,
            )
            return True
        if self._recover_heap(page_id):
            return True
        self._unrecoverable(page_id, "no WAL or unowned page")
        self._emit("fault.quarantine", page=page_id)
        return False

    # -- internals ------------------------------------------------------------

    def _recover_heap(self, page_id: int) -> bool:
        """:meth:`_heal_heap_page` plus the success-side accounting."""
        if not self._heal_heap_page(page_id):
            return False
        self.stats.recovered += 1
        self.stats.heap_page_rebuilds += 1
        self._emit("fault.recovered", page=page_id, action="heap_redo")
        return True

    def _unrecoverable(self, page_id: int, reason: str) -> None:
        self.stats.unrecoverable += 1
        self._emit("fault.unrecoverable", page=page_id, reason=reason)

    def _heal_heap_page(self, page_id: int) -> bool:
        """Redo-recover a quarantined heap page from the WAL, if possible.

        The log holds the page's full change history (the log is never
        truncated in this simulation), so folding every record touching
        ``page_id`` reproduces its last logged state.  Changes made but
        not yet logged cannot exist: the pool's flush-before-evict rule
        means any state that reached the disk was logged first, and the
        in-memory frame was discarded by quarantine.
        """
        wal = getattr(self._db, "wal", None)
        if wal is None or self._owning_heap(page_id) is None:
            return False
        from repro.wal.record import scan_wal
        from repro.wal.replay import rebuild_heap_page

        records = scan_wal(wal.all_bytes()).records
        data = rebuild_heap_page(records, page_id, self._db.disk.page_size)
        self._db.data_pool.restore_page(page_id, data)
        return True

    def _owning_heap(self, page_id: int):
        """The heap file owning ``page_id``, else None."""
        for table in self._db.catalog.tables():
            if table.heap.owns_page(page_id):
                return table.heap
        return None

    def _owning_index(self, page_id: int):
        """``(name, index)`` of the index whose tree owns ``page_id``,
        else None."""
        for table in self._db.catalog.tables():
            for name in table.index_names:
                index = table.index(name)
                tree = index.tree
                if page_id in tree.leaf_page_ids or page_id in tree.internal_page_ids:
                    return name, index
        return None
