"""Trace replay: apply an :class:`Operation` stream to a live table.

Experiments mostly drive tables with inline loops; the replay utility is
the library-user path — record or synthesise a trace once, replay it
against different physical designs (cached vs plain index, clustered vs
not) and compare the counters.  ``build_mixed_trace`` synthesises the
usual OLTP mix from a skewed key distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import WorkloadError
from repro.query.table import Table
from repro.util.rng import DeterministicRng
from repro.workload.distributions import ZipfianDistribution
from repro.workload.trace import OpKind, Operation


@dataclass
class ReplayResult:
    """What a replay did, by operation kind."""

    lookups: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0

    @property
    def operations(self) -> int:
        return self.lookups + self.inserts + self.updates + self.deletes


def replay(
    table: Table,
    index_name: str,
    operations: Iterable[Operation],
    project: tuple[str, ...] | None = None,
    lookup_batch_size: int = 1,
) -> ReplayResult:
    """Apply a trace to ``table`` through ``index_name``.

    LOOKUP uses ``op.key``; INSERT needs ``op.row``; UPDATE needs
    ``op.key`` and ``op.changes``; DELETE needs ``op.key``.  The first
    error raises.

    ``lookup_batch_size > 1`` turns on the batched read fast path: runs
    of *consecutive* LOOKUP operations are grouped and issued through
    :meth:`~repro.query.table.Table.lookup_many` (up to that many per
    call).  Any write operation flushes the pending batch first, so the
    replay observes exactly the per-op results and ordering of the
    scalar path — only the physical access pattern changes.
    """
    if lookup_batch_size < 1:
        raise WorkloadError("lookup_batch_size must be >= 1")
    result = ReplayResult()
    pending: list[Operation] = []

    def flush() -> None:
        if pending:
            table.lookup_many(index_name, [op.key for op in pending], project)
            pending.clear()

    for op in operations:
        if op.kind is OpKind.LOOKUP:
            result.lookups += 1
            if lookup_batch_size > 1:
                pending.append(op)
                if len(pending) >= lookup_batch_size:
                    flush()
            else:
                table.lookup(index_name, op.key, project)
            continue
        flush()
        if op.kind is OpKind.INSERT:
            if op.row is None:
                raise WorkloadError("INSERT operation without a row")
            table.insert(op.row)
            result.inserts += 1
        elif op.kind is OpKind.UPDATE:
            if op.changes is None:
                raise WorkloadError("UPDATE operation without changes")
            result.updates += 1
            table.update(index_name, op.key, op.changes)
        elif op.kind is OpKind.DELETE:
            result.deletes += 1
            table.delete(index_name, op.key)
    flush()
    return result


def build_mixed_trace(
    n_ops: int,
    existing_keys: list[object],
    make_row,
    make_changes,
    next_key,
    lookup_frac: float = 0.85,
    update_frac: float = 0.10,
    insert_frac: float = 0.05,
    alpha: float = 1.0,
    seed: int = 0,
) -> list[Operation]:
    """Synthesise a lookup/update/insert mix over a zipf-hot key space.

    Args:
        n_ops: trace length.
        existing_keys: keys present before the trace starts.
        make_row: ``key -> row dict`` for inserts.
        make_changes: ``key -> changes dict`` for updates.
        next_key: ``i -> fresh key`` for the i-th insert.
        lookup_frac / update_frac / insert_frac: operation mix (must sum
            to <= 1; the remainder becomes deletes of existing keys).
    """
    if not existing_keys:
        raise WorkloadError("trace needs at least one existing key")
    if lookup_frac + update_frac + insert_frac > 1.0 + 1e-9:
        raise WorkloadError("operation fractions exceed 1.0")
    rng = DeterministicRng(seed)
    zipf = ZipfianDistribution(len(existing_keys), alpha, rng.child(1))
    live = list(existing_keys)
    deleted: set[object] = set()
    ops: list[Operation] = []
    inserts = 0
    for _ in range(n_ops):
        draw = rng.random()
        key = live[zipf.sample() % len(live)]
        if draw < lookup_frac:
            ops.append(Operation(OpKind.LOOKUP, key))
        elif draw < lookup_frac + update_frac:
            if key in deleted:
                ops.append(Operation(OpKind.LOOKUP, key))
            else:
                ops.append(Operation(OpKind.UPDATE, key,
                                     changes=make_changes(key)))
        elif draw < lookup_frac + update_frac + insert_frac:
            key = next_key(inserts)
            inserts += 1
            ops.append(Operation(OpKind.INSERT, key, row=make_row(key)))
            live.append(key)
        else:
            if key in deleted:
                ops.append(Operation(OpKind.LOOKUP, key))
            else:
                ops.append(Operation(OpKind.DELETE, key))
                deleted.add(key)
    return ops
