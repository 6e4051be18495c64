"""MVCC transactions over the redo-only WAL.

The engine's index cache already tracks a commit sequence number (CSN)
for invalidation; this module generalises it into **per-tuple
visibility** — classic snapshot isolation:

* :meth:`Session.begin` pins the current CSN as the transaction's
  *snapshot*; every read resolves to the newest committed version with
  ``csn <= begin_csn`` (plus the session's own writes).
* Inserts and updates apply to the heap immediately — stamped with the
  transaction's id in their redo records — but stay invisible to other
  sessions: the manager keeps a committed **version chain** per identity
  key, seeded with the pre-write committed row, and readers of a tracked
  key never touch the dirty heap row.  **Deletes are deferred**: the
  physical delete (and its redo record) happens inside :meth:`commit`,
  immediately before the ``TXN_COMMIT`` record.  An uncommitted delete
  therefore never frees a heap slot — so no later transaction can reuse
  the slot while the deleter might still roll back, which is exactly
  what keeps positional (rid-level) undo and log folds sound.
* Conflicts are **first-writer-wins** on write/write: touching a key
  with a pending write by another live transaction, or a committed
  version newer than the snapshot, rolls the toucher back and raises
  :class:`~repro.errors.TxnConflictError`.
* :meth:`Session.commit` allocates the commit CSN, appends a
  ``TXN_COMMIT`` record (group-committed across sessions — the commit
  is durable iff that frame reaches the device), and publishes the
  version chain.
* :meth:`Session.abort` undoes in reverse op order by issuing
  **compensation records** — ordinary INSERT/UPDATE/DELETE redo records
  carrying the same ``txn_id`` — so recovery stays redo-only: replaying
  the whole log positionally reproduces the net (rolled-back) state,
  and the crash matrix applies unchanged.

Everything is synchronous and deterministic: "concurrency" is N logical
sessions interleaved by :class:`repro.txn.scheduler.SimScheduler` on the
CostModel clock, which is exactly what makes crash-during-concurrent-
commit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    DuplicateKeyError,
    TxnConflictError,
    TxnStateError,
)
from repro.obs.registry import MetricsRegistry, resolve_registry

#: Version-chain key: ``(table_name, encoded_identity_key)``.
VKey = tuple


@dataclass(frozen=True)
class _Version:
    """One committed version of a row (``value=None`` = deleted)."""

    csn: int
    value: dict | None


class TransactionManager:
    """CSN allocator, version store, and conflict detector for one db."""

    def __init__(self, db, registry: MetricsRegistry | None = None) -> None:
        self.database = db
        reg = resolve_registry(registry if registry is not None else db.metrics)
        self._versions: dict[VKey, list[_Version]] = {}
        self._pending: dict[VKey, int] = {}
        self._active: dict[int, Session] = {}
        self._next_session_id = 1
        # Start after the writer's high-water marks (a manager over a
        # recovered database must not reuse ids).
        wal = db.wal
        self._next_txn_id = (wal.max_txn_id if wal is not None else 0) + 1
        #: CSN of the most recent commit (new snapshots read this).
        self.current_csn = wal.max_csn if wal is not None else 0
        self._m_sessions = reg.counter("txn.sessions")
        self._m_begins = reg.counter("txn.begins")
        self._m_commits = reg.counter("txn.commits")
        self._m_aborts = reg.counter("txn.aborts")
        self._m_conflicts = reg.counter("txn.conflicts")
        self._m_undo = reg.counter("txn.undo_records")
        self._m_active = reg.gauge("txn.active")
        self._m_tracked = reg.gauge("txn.tracked_keys")
        self._m_snapshot_age = reg.histogram("txn.snapshot_age")

    def session(self) -> "Session":
        """Open a new logical client session (idle until ``begin()``)."""
        sid = self._next_session_id
        self._next_session_id += 1
        self._m_sessions.inc()
        return Session(self, sid)

    # -- txn lifecycle (called by Session) ------------------------------------

    def _begin(self, session: "Session") -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        self._active[txn_id] = session
        self._m_begins.inc()
        self._m_active.set(float(len(self._active)))
        return txn_id

    def _end(self, txn_id: int, begin_csn: int) -> None:
        self._active.pop(txn_id, None)
        self._m_active.set(float(len(self._active)))
        self._m_snapshot_age.record(self.current_csn - begin_csn)
        self._prune()

    def _allocate_csn(self) -> int:
        return self.current_csn + 1

    def _publish(self, txn_id: int, csn: int, writes: dict[VKey, dict | None]) -> None:
        for vkey, value in writes.items():
            chain = self._versions.setdefault(vkey, [])
            chain.append(_Version(csn, dict(value) if value is not None else None))
            if self._pending.get(vkey) == txn_id:
                del self._pending[vkey]
        self.current_csn = csn
        self._m_commits.inc()
        self._m_tracked.set(float(len(self._versions)))

    def _release(self, txn_id: int, vkeys) -> None:
        """Drop an aborting transaction's pending claims."""
        for vkey in vkeys:
            if self._pending.get(vkey) == txn_id:
                del self._pending[vkey]
        self._m_aborts.inc()

    # -- visibility ----------------------------------------------------------

    def _is_tracked(self, vkey: VKey) -> bool:
        return vkey in self._versions

    def _visible(self, vkey: VKey, begin_csn: int) -> tuple[bool, dict | None]:
        """``(tracked, row)`` — newest committed version at the snapshot.

        Untracked keys return ``(False, None)``: the caller reads the
        heap, which holds only committed data for keys no transaction
        has ever claimed.
        """
        chain = self._versions.get(vkey)
        if chain is None:
            return False, None
        for version in reversed(chain):
            if version.csn <= begin_csn:
                return True, version.value
        # Tracked but born after this snapshot: invisible.
        return True, None

    def _check_conflict(self, txn_id: int, begin_csn: int, vkey: VKey) -> None:
        holder = self._pending.get(vkey)
        if holder is not None and holder != txn_id:
            self._m_conflicts.inc()
            raise TxnConflictError(
                f"txn {txn_id}: key {vkey!r} has a pending write by txn {holder}"
            )
        chain = self._versions.get(vkey)
        if chain and chain[-1].csn > begin_csn:
            self._m_conflicts.inc()
            raise TxnConflictError(
                f"txn {txn_id}: key {vkey!r} committed csn {chain[-1].csn} "
                f"after snapshot {begin_csn}"
            )

    def _claim(self, txn_id: int, vkey: VKey, committed_row: dict | None) -> None:
        """Mark ``vkey`` write-pending and seed its version chain.

        The seed version carries CSN 0 — it is the committed state from
        before any tracking, visible to every snapshot — so readers of
        this key stop consulting the (about to be dirtied) heap row.
        """
        if vkey not in self._versions:
            self._versions[vkey] = [
                _Version(0, dict(committed_row) if committed_row is not None else None)
            ]
            self._m_tracked.set(float(len(self._versions)))
        self._pending[vkey] = txn_id

    def _prune(self) -> None:
        """Garbage-collect version chains no live snapshot can need.

        The floor is the oldest active snapshot (or the current CSN when
        idle): versions strictly older than the newest version at/below
        the floor are unreachable.  A chain collapsed to its newest
        committed version with no pending writer equals the heap row, so
        the whole entry is dropped and reads return to the heap path.
        """
        floor = min(
            (s.begin_csn for s in self._active.values() if s.begin_csn is not None),
            default=self.current_csn,
        )
        for vkey in list(self._versions):
            chain = self._versions[vkey]
            keep_from = 0
            for i, version in enumerate(chain):
                if version.csn <= floor:
                    keep_from = i
            if keep_from:
                del chain[:keep_from]
            if (
                len(chain) == 1
                and vkey not in self._pending
                and chain[0].csn <= floor
            ):
                del self._versions[vkey]
        self._m_tracked.set(float(len(self._versions)))


class Session:
    """One logical client: ``begin() → reads/writes → commit()/abort()``.

    Reads outside a transaction raise; use :meth:`transaction` as a
    context manager for commit-on-success / abort-on-error blocks.  All
    row access goes through the target table's **identity index** (its
    first attached index), whose key uniquely identifies a row.
    """

    def __init__(self, manager: TransactionManager, session_id: int) -> None:
        self._mgr = manager
        self.session_id = session_id
        self.txn_id: int | None = None
        self.begin_csn: int | None = None
        self._began_logged = False
        #: Net effect per vkey (row dict, or None for delete) — published
        #: as the committed versions at commit CSN.
        self._writes: dict[VKey, dict | None] = {}
        #: Deletes deferred to commit: vkey -> (table, key, heap row at
        #: defer time).  Until commit the row stays physically in place.
        self._deferred: dict[VKey, tuple] = {}
        #: Reverse-order undo program: ("insert", table, key) |
        #: ("update", table, key, old_changes).  Deferred deletes need no
        #: undo — aborting simply drops them.
        self._undo: list[tuple] = []

    # -- properties ----------------------------------------------------------

    @property
    def in_txn(self) -> bool:
        return self.txn_id is not None

    # -- lifecycle -----------------------------------------------------------

    def begin(self) -> int:
        """Start a transaction; returns the snapshot (begin) CSN."""
        if self.txn_id is not None:
            raise TxnStateError(f"session {self.session_id}: transaction already open")
        self.txn_id = self._mgr._begin(self)
        self.begin_csn = self._mgr.current_csn
        self._began_logged = False
        self._writes = {}
        self._deferred = {}
        self._undo = []
        return self.begin_csn

    def commit(self, flush: bool = False) -> int:
        """Commit; returns the commit CSN (read-only: the begin CSN).

        The ``TXN_COMMIT`` record rides the group-commit buffer — the
        durability point is its frame reaching the device, batched with
        other sessions' commits.  ``flush=True`` forces it out now
        (synchronous commit).

        Deferred deletes apply here, immediately before the commit
        record, so a transaction's DELETE records occupy a contiguous
        block just ahead of its TXN_COMMIT in the log: a torn tail that
        strands the deletes without the commit record cannot have any
        *later* surviving record either, which keeps the recovery
        rollback's slot-positional compensation sound.
        """
        txn_id = self._require_txn()
        trace = getattr(self._mgr.database, "trace", None)
        if trace is None:
            return self._commit_inner(txn_id, flush)
        # One span tree per logical commit: the deferred deletes and the
        # group-commit WAL flush below nest inside it, tagged with the
        # owning transaction via baggage.
        with trace.trace("txn.commit", txn_id=txn_id, session=self.session_id):
            return self._commit_inner(txn_id, flush)

    def _commit_inner(self, txn_id: int, flush: bool) -> int:
        begin_csn = self.begin_csn
        if not self._writes:
            self._mgr._m_commits.inc()
            self._finish(txn_id, begin_csn)
            return begin_csn
        db = self._mgr.database
        while self._deferred:
            vkey = next(iter(self._deferred))
            table_name, key_value, _pre = self._deferred[vkey]
            table = db.table(table_name)
            # Popped after each apply so a fault-healed retry resumes
            # with the remaining deletes instead of restarting.
            table.delete(table.identity_index_name, key_value, txn_id=txn_id)
            del self._deferred[vkey]
        csn = self._mgr._allocate_csn()
        wal = self._mgr.database.wal
        if wal is not None:
            wal.log_txn_commit(txn_id, csn)
            if flush:
                wal.flush()
        self._mgr._publish(txn_id, csn, self._writes)
        self._finish(txn_id, begin_csn)
        return csn

    def abort(self) -> None:
        """Roll back every write and end the transaction.

        Undo runs in reverse op order through the normal Table write
        paths, so each step appends a compensation record (an ordinary
        redo record with this transaction's id) — the log redoes to the
        rolled-back state.  The closing ``TXN_ABORT`` marks the txn
        resolved for recovery; losing it to a crash is harmless (the
        recovery rollback re-derives and re-appends the compensation).
        """
        txn_id = self._require_txn()
        trace = getattr(self._mgr.database, "trace", None)
        if trace is not None:
            with trace.trace("txn.abort", txn_id=txn_id, session=self.session_id):
                self._rollback(txn_id)
        else:
            self._rollback(txn_id)
        self._finish(txn_id, self.begin_csn)

    def transaction(self):
        """``with session.transaction():`` — commit on success, abort on
        error (a conflict has already aborted; the error just passes)."""
        return _TxnContext(self)

    # -- reads ---------------------------------------------------------------

    def lookup(
        self,
        table_name: str,
        key_value: object,
        project: tuple[str, ...] | None = None,
    ):
        """Snapshot point lookup through the table's identity index."""
        self._require_txn()
        table = self._mgr.database.table(table_name)
        vkey = self._vkey(table, key_value)
        if vkey in self._writes:
            return self._as_result(table, self._writes[vkey], project)
        tracked, row = self._mgr._visible(vkey, self.begin_csn)
        if tracked:
            return self._as_result(table, row, project)
        # Never tracked: the heap row is committed; use the normal read
        # path (index cache, batching, metrics all apply).
        return table.lookup(table.identity_index_name, key_value, project)

    def scan(self, table_name: str) -> list[dict]:
        """Snapshot scan: full rows, heap order then tracked-key order."""
        self._require_txn()
        table = self._mgr.database.table(table_name)
        out: list[dict] = []
        overlaid: list[VKey] = []
        for row in table.scan():
            vkey = self._vkey_of_row(table, row)
            if vkey in self._writes or self._mgr._is_tracked(vkey):
                continue
            out.append(row)
        seen = set()
        for vkey in list(self._mgr._versions) + list(self._writes):
            if vkey[0] != table_name or vkey in seen:
                continue
            seen.add(vkey)
            overlaid.append(vkey)
        for vkey in sorted(overlaid, key=lambda v: v[1]):
            if vkey in self._writes:
                row = self._writes[vkey]
            else:
                _, row = self._mgr._visible(vkey, self.begin_csn)
            if row is not None:
                out.append(dict(row))
        return out

    # -- writes --------------------------------------------------------------

    def insert(self, table_name: str, row: dict) -> None:
        txn_id = self._require_txn()
        table = self._mgr.database.table(table_name)
        vkey = self._vkey_of_row(table, row)
        old, fresh_claim = self._write_base(table, vkey, row=row)
        if old is not None:
            self._unclaim(vkey, fresh_claim)
            raise DuplicateKeyError(
                f"insert into {table_name!r}: key already visible"
            )
        key_value = self._key_of_row(table, row)
        if vkey in self._deferred:
            # The session deleted this key earlier, but the delete is
            # deferred — the heap row is still physically there.  Reuse
            # it: overwrite in place and cancel the pending delete.
            _tn, _kv, pre = self._deferred.pop(vkey)
            key_cols = set(table.index(table.identity_index_name).key_codec.columns)
            changes = {
                c: row[c] for c in table.schema.names if c not in key_cols
            }
            if changes:
                table.update(
                    table.identity_index_name, key_value, changes, txn_id=txn_id
                )
                self._undo.append(
                    ("update", table_name, key_value,
                     {c: pre[c] for c in changes})
                )
        else:
            try:
                table.insert(row, txn_id=txn_id)
            except BaseException:
                self._unclaim(vkey, fresh_claim)
                raise
            self._undo.append(("insert", table_name, key_value))
        self._writes[vkey] = dict(row)

    def update(self, table_name: str, key_value: object, changes: dict) -> bool:
        txn_id = self._require_txn()
        table = self._mgr.database.table(table_name)
        table.check_changes(changes)  # refused before anything is claimed
        vkey = self._vkey(table, key_value)
        old, fresh_claim = self._write_base(table, vkey, key_value=key_value)
        if old is None:
            self._unclaim(vkey, fresh_claim)
            return False
        # No release on failure here: check_changes refused the bad changes
        # above, and a fault in Table.update may come after the UPDATE is
        # logged under this txn, so the claim must keep guarding that write.
        applied = table.update(
            table.identity_index_name, key_value, changes, txn_id=txn_id
        )
        if not applied:  # pragma: no cover - heap/version divergence guard
            return False
        self._undo.append(
            ("update", table_name, key_value, {c: old[c] for c in changes})
        )
        new_row = dict(old)
        new_row.update(changes)
        self._writes[vkey] = new_row
        return True

    def delete(self, table_name: str, key_value: object) -> bool:
        """Snapshot-visible delete; the heap row is only removed (and the
        DELETE record only logged) at commit — see :meth:`commit`."""
        self._require_txn()
        table = self._mgr.database.table(table_name)
        vkey = self._vkey(table, key_value)
        old, fresh_claim = self._write_base(table, vkey, key_value=key_value)
        if old is None:
            self._unclaim(vkey, fresh_claim)
            return False
        self._deferred[vkey] = (table_name, key_value, dict(old))
        self._writes[vkey] = None
        return True

    # -- internals -----------------------------------------------------------

    def _require_txn(self) -> int:
        if self.txn_id is None:
            raise TxnStateError(f"session {self.session_id}: no open transaction")
        return self.txn_id

    def _finish(self, txn_id: int, begin_csn: int) -> None:
        self.txn_id = None
        self.begin_csn = None
        self._writes = {}
        self._deferred = {}
        self._undo = []
        self._mgr._end(txn_id, begin_csn)

    def _write_base(self, table, vkey, row=None, key_value=None):
        """Conflict-check and claim ``vkey``; return ``(base_row, fresh)``.

        ``base_row`` is what the write acts on: the session's own last
        write if it already touched the key, else the latest committed
        row (which the no-conflict check proves is also the snapshot-
        visible one).  First write of the transaction logs TXN_BEGIN.
        """
        txn_id = self.txn_id
        if vkey in self._writes:
            return self._writes[vkey], False
        try:
            self._mgr._check_conflict(txn_id, self.begin_csn, vkey)
        except TxnConflictError:
            self._rollback(txn_id)
            self._finish(txn_id, self.begin_csn)
            raise
        tracked, committed = self._mgr._visible(vkey, self.begin_csn)
        if not tracked:
            key_value = key_value if key_value is not None else self._key_of_row(
                table, row
            )
            result = table.lookup(table.identity_index_name, key_value)
            committed = dict(result.values) if result.found else None
        if not self._began_logged:
            wal = self._mgr.database.wal
            if wal is not None:
                wal.log_txn_begin(txn_id)
            self._began_logged = True
        self._mgr._claim(txn_id, vkey, committed)
        return committed, True

    def _unclaim(self, vkey: VKey, fresh: bool) -> None:
        """Release the claim a write that found nothing, or was refused,
        took itself (``fresh``); a claim an earlier write of this
        transaction took stays.  A fault-healed retry claims again."""
        if fresh:
            self._mgr._pending.pop(vkey, None)

    def _rollback(self, txn_id: int) -> None:
        """Apply the undo program in reverse, popping as it goes (so a
        retried abort after a mid-undo fault resumes, not restarts)."""
        db = self._mgr.database
        # Deferred deletes never touched the heap — dropping them is the
        # whole rollback for those keys.
        self._deferred = {}
        undone = 0
        while self._undo:
            entry = self._undo[-1]
            kind, table_name = entry[0], entry[1]
            table = db.table(table_name)
            if kind == "insert":
                table.delete(table.identity_index_name, entry[2], txn_id=txn_id)
            else:
                table.update(
                    table.identity_index_name, entry[2], entry[3], txn_id=txn_id
                )
            self._undo.pop()
            undone += 1
        self._mgr._m_undo.inc(undone)
        wal = db.wal
        if wal is not None and self._began_logged:
            wal.log_txn_abort(txn_id)
        self._mgr._release(txn_id, list(self._writes))
        self._writes = {}

    def _vkey(self, table, key_value) -> VKey:
        index = table.index(table.identity_index_name)
        return (table.name, index.encode_key(key_value))

    def _key_of_row(self, table, row: dict):
        return table.index(table.identity_index_name).key_codec.key_of_row(row)

    def _vkey_of_row(self, table, row: dict) -> VKey:
        index = table.index(table.identity_index_name)
        return (table.name, index.key_codec.encode_row(row))

    def _as_result(self, table, row: dict | None, project):
        from repro.core.index_cache.cached_index import LookupResult

        if row is None:
            return LookupResult(values=None, found=False, from_cache=False)
        names = project if project is not None else table.schema.names
        return LookupResult(
            values={name: row[name] for name in names},
            found=True,
            from_cache=False,
        )


@dataclass
class _TxnContext:
    session: Session

    def __enter__(self) -> Session:
        self.session.begin()
        return self.session

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.session.commit()
        elif self.session.in_txn:
            self.session.abort()
        return False
