"""Sharded recovery: per-shard replay plus cross-shard reconciliation.

A crash can land at any byte of any shard's log, including mid-migration
(after the ``SHARD_MIGRATE`` intent and copy-insert are durable on the
destination but before the source's delete is).  Per-shard replay
(:mod:`repro.wal.replay`, from one scan of each log) restores each engine
to its own durable prefix — which, for an in-flight migration, can leave
a key resident on *two* shards, on the *wrong* shard, or split across
shards for different co-partitioned tables.  :func:`recover_sharded`
resolves all of that to exactly one owner per key:

1. **Residency walk** — scan every shard's copy of every table and build
   ``key -> {table: [shards holding it]}``.
2. **Owner election** per key: the durable ``SHARD_MIGRATE`` intent with
   the highest ``seq`` whose destination actually holds the key wins
   (its copy-insert reached the durability point, so the migration rolls
   *forward*); with no applicable intent the single resident shard wins,
   and a no-intent duplicate (cannot happen via migration, but the rule
   must total) falls back to base placement if resident, else the lowest
   resident shard.  ``seq`` is a monotonic counter carried in every
   intent precisely so ping-pong migrations (A→B then B→A) order
   correctly even though the two intents live in *different* logs.
3. **Repair** — delete loser duplicates; relocate rows resident only on
   non-owner shards (both logged normally, then flushed).
4. **Override rebuild** — every key whose owner differs from base
   placement gets a router override, so post-recovery routing agrees
   with physical residency without any lookup-time probing.

The argument for exactly-one-owner is in DESIGN.md §5i; the
crash-matrix test cuts both logs at every frame boundary of a live
migration and asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry, engine_registry
from repro.shard.database import SHARD_POOL_PAGES, ShardedDatabase, key_from_json
from repro.shard.router import ShardRouter, stable_key_hash
from repro.wal.log import GROUP_COMMIT_RECORDS
from repro.wal.record import RecordType
from repro.wal.replay import RecoveryReport, _open_log, _replay


@dataclass(frozen=True)
class ShardRecoveryReport:
    """What :func:`recover_sharded` replayed, shard by shard; what it
    reconciled is counted in the ``shard.recovery.*`` counters."""

    per_shard: tuple[RecoveryReport, ...]


def recover_sharded(
    wals: list,
    *,
    seed: int = 0,
    mode: str = "hash",
    hot_fraction: float = 0.05,
    journal=None,
) -> tuple[ShardedDatabase, ShardRecoveryReport]:
    """Restore a :class:`ShardedDatabase` from one WAL per shard.

    A fleet restarts from its logs alone: every shard replays onto a
    blank disk with a fresh registry, the facade's defaults (pool size,
    page size, group commit) and seed ``seed + i``, like the live
    constructor.

    Args:
        wals: one log per shard — raw bytes, ``WalDevice``, or
            ``WalWriter`` — in shard order.
        seed: the base seed the fleet was built with.
        mode, hot_fraction: router configuration — must match the
            pre-crash router for base placements to line up (the
            override map itself is *not* logged; it is rebuilt from
            residency).
        journal: optional §5j :class:`~repro.obs.events.EventJournal` —
            each shard's replay phases plus the facade-level
            reconciliation journal themselves into it, and the rebuilt
            facade and its shards keep journaling into it.

    Returns:
        ``(sharded_database, report)`` with exactly one owner per key;
        the facade's ``shard.*`` family lands in the ambient registry, or
        a fresh one.
    """
    n = len(wals)
    if n < 1:
        raise ValueError("need at least one shard WAL")
    metrics = engine_registry(None)
    shard_metrics = [MetricsRegistry() for _ in range(n)]

    m_dups = metrics.counter("shard.recovery.duplicates_resolved")
    m_reloc = metrics.counter("shard.recovery.relocations")
    m_overrides = metrics.counter("shard.recovery.overrides_rebuilt")

    # -- 0. open every log once: its one decode yields the durable
    # migration intents here and feeds the shard's replay below.
    opened = [_open_log(wal, shard_metrics[i]) for i, wal in enumerate(wals)]
    intents = [
        dict(rec.meta)
        for _device, scan, _ns in opened
        for rec in scan.records
        if rec.rtype is RecordType.SHARD_MIGRATE
    ]
    max_seq = max((int(m["seq"]) for m in intents), default=0)

    if journal is not None:
        journal.emit("recovery.begin", shards=n, intents=len(intents))

    # -- 1. per-shard replay -------------------------------------------------
    dbs, reports = [], []
    for i, (device, scan, open_ns) in enumerate(opened):
        db, report = _replay(
            device, scan, open_ns, metrics=shard_metrics[i],
            group_commit_records=GROUP_COMMIT_RECORDS, journal=journal,
            journal_shard=i, data_pool_pages=SHARD_POOL_PAGES, seed=seed + i,
        )
        dbs.append(db)
        reports.append(report)

    router = ShardRouter(n, mode=mode, hot_fraction=hot_fraction, registry=metrics)
    sdb = ShardedDatabase.adopt(dbs, shard_metrics, router, metrics=metrics)
    sdb._migration_seq = max_seq + 1

    # -- 2. residency walk ---------------------------------------------------
    # key -> table -> [shards holding a copy]; shards share DDL (the
    # facade fans every CREATE out), so shard 0's catalog names them all.
    residency: dict[object, dict[str, list[int]]] = {}
    for name, key, i in sdb._residency():
        residency.setdefault(key, {}).setdefault(name, []).append(i)

    # Applicable intents per key, newest first.
    intents_by_key: dict[object, list[dict]] = {}
    for meta in sorted(intents, key=lambda m: -int(m["seq"])):
        intents_by_key.setdefault(key_from_json(meta["key"]), []).append(meta)

    # -- 3. owner election + repair ------------------------------------------
    duplicates = relocations = 0
    owners: dict[object, int] = {}
    ordered_keys = sorted(
        residency, key=lambda k: (stable_key_hash(k), repr(k))
    )
    for key in ordered_keys:
        by_table = residency[key]
        candidates = sorted({i for shards in by_table.values() for i in shards})
        owner = None
        for meta in intents_by_key.get(key, ()):
            if int(meta["dst"]) in candidates:
                owner = int(meta["dst"])
                break
        if owner is None:
            if len(candidates) == 1:
                owner = candidates[0]
            elif router.base_shard(key) in candidates:
                owner = router.base_shard(key)
            else:
                owner = candidates[0]
        owners[key] = owner
        for name in sorted(by_table):
            stable = sdb.table(name)
            index = stable.routing_index
            holders = by_table[name]
            if holders == [owner]:
                continue
            if owner in holders:
                # Duplicate: the intent's copy-insert reached durability
                # on the owner; finish the migration by deleting losers.
                for i in holders:
                    if i != owner:
                        sdb.shard(i).table(name).delete(index, key)
                        duplicates += 1
            else:
                # Resident only elsewhere: relocate to the elected owner
                # (copy-then-delete, logged normally on both shards).
                src = holders[0]
                found = sdb.shard(src).table(name).lookup(index, key)
                sdb.shard(owner).table(name).insert(dict(found.values))
                for i in holders:
                    sdb.shard(i).table(name).delete(index, key)
                    if len(holders) > 1:
                        duplicates += 1
                relocations += 1

    # -- 4. override rebuild --------------------------------------------------
    overrides = 0
    for key, owner in owners.items():
        if owner != router.base_shard(key):
            router.set_override(key, owner)
            overrides += 1

    sdb.flush_wals()
    m_dups.inc(duplicates)
    m_reloc.inc(relocations)
    m_overrides.inc(overrides)
    if journal is not None:
        journal.emit(
            "recovery.end",
            shards=n,
            duplicates_resolved=duplicates,
            relocations=relocations,
            overrides_rebuilt=overrides,
            keys_checked=len(owners),
        )
        # The rebuilt facade keeps journaling into the same log; each
        # shard's replay already attached it to that shard.
        sdb.journal = journal
    return sdb, ShardRecoveryReport(per_shard=tuple(reports))
