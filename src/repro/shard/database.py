"""N independent engines behind one facade: scatter-gather + migration.

A :class:`ShardedDatabase` owns ``n_shards`` complete
:class:`~repro.query.database.Database` instances — each with its own
simulated disk, buffer pools, WAL, cost model, optional fault injector,
and a *private* metrics registry surfaced as ``shard.<i>.*`` in the
merged snapshot.  A :class:`~repro.shard.router.ShardRouter` places every
routing key on exactly one shard; reads and writes on the routing index
touch only that shard, while scans, aggregates, and non-routing lookups
scatter to all shards and gather through a merge.

**Simulated parallelism.**  Shards model independent machines, so a
scatter-gather operation's elapsed simulated time is the *maximum* of
the involved shards' cost-model deltas, not their sum — accumulated into
:attr:`ShardedDatabase.sim_now_ns`, which `experiments.shard` reads to
measure scale-out on one real CPU deterministically.

**Online rebalance.**  :meth:`rebalance` applies the router's hot-key
spreading plan one key at a time, each moved failure-atomically by
copy-then-delete riding the shards' own WALs (protocol:
:meth:`ShardedDatabase._migrate_key`); a crash at any byte of either log
recovers to exactly one owner (:mod:`repro.shard.recovery`, DESIGN.md §5i).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter

from repro.btree.tree import SPLIT_FRACTION
from repro.errors import QueryError
from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    engine_registry,
)
from repro.query.database import Database, require_empty_for_index
from repro.query.table import Table
from repro.schema.schema import Schema
from repro.shard.router import ShardRouter
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.wal.log import GROUP_COMMIT_RECORDS

#: Heap-pool frames per shard unless told otherwise; a recovered fleet
#: gets the same.
SHARD_POOL_PAGES = 256
#: A lookup is answered by the shard that found the key.
_found = attrgetter("found")


def json_safe_key(key: object) -> object:
    """Routing key in the form a JSON WAL record can carry (tuples become
    lists; :func:`key_from_json` is the inverse)."""
    if isinstance(key, tuple):
        return list(key)
    return key


def key_from_json(raw: object) -> object:
    """Inverse of :func:`json_safe_key` (lists back to tuples)."""
    if isinstance(raw, list):
        return tuple(raw)
    return raw


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`ShardedDatabase.rebalance` pass did."""

    keys_moved: int


@dataclass
class ShardCheckReport:
    """Per-shard invariant walks plus the cross-shard ownership check."""

    per_shard: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and all(r.ok for r in self.per_shard)


class ShardedTable:
    """One logical table partitioned across every shard by routing key."""

    def __init__(self, sdb: "ShardedDatabase", name: str, schema: Schema):
        self._sdb = sdb
        self.name = name
        self.schema = schema
        #: Shard ``i``'s own :class:`Table` is ``_on[i]``: no catalog walk
        #: per op (the facade builds a new sharded table on every create or
        #: recovery, so the list never outlives the tables).
        self._on: list[Table] = [db.table(name) for db in sdb.shards]
        self._every = range(len(self._on))
        #: Name + key maker of the routing (first/identity) index; set
        #: when the first index is created, or here for a recovered table.
        names = self._on[0].index_names
        self.routing_index = names[0] if names else None
        self.routing_key = self._on[0].index(names[0]).key_codec if names else None

    @property
    def num_rows(self) -> int:
        return sum(table.num_rows for table in self._on)

    def shard_table(self, i: int) -> Table:
        """The shard-local :class:`Table` living on shard ``i``."""
        return self._on[i]

    # -- routing -------------------------------------------------------------

    def _require_routing(self) -> str:
        if self.routing_index is None:
            raise QueryError(
                f"sharded table {self.name!r} has no routing index yet"
            )
        return self.routing_index

    def key_of_row(self, row: dict[str, object]) -> object:
        """Extract the routing key from a full row."""
        self._require_routing()
        return self.routing_key.key_of_row(row)

    def _everywhere(self, fn, *args) -> list:
        """The bracket's calls of ``fn`` on every shard's table, in order."""
        return [(i, fn, (table, *args)) for i, table in enumerate(self._on)]

    def _keyed(self, op: str, index_name: str, key_value, fn, args, answered):
        """The routed owner's result on the routing index; on any other
        (still unique) index the owner is unknown, so every shard in order,
        up to the first whose result ``answered`` accepts."""
        if index_name == self.routing_index:
            shard = self._sdb.router.shard_of(key_value)
            shards, calls = (shard,), ((shard, fn, (self._on[shard], *args)),)
        else:
            shards, calls = self._every, self._everywhere(fn, *args)
        return self._sdb._fan_out(op, shards, calls, answered, table=self.name)[-1]

    # -- writes --------------------------------------------------------------

    def insert(self, row: dict[str, object]):
        shard = self._sdb.router.shard_of(self.key_of_row(row))
        calls = ((shard, Table.insert, (self._on[shard], row)),)
        return self._sdb._fan_out("insert", (shard,), calls, table=self.name)[-1]

    def update(
        self, index_name: str, key_value: object, changes: dict[str, object]
    ) -> bool:
        return self._keyed(
            "update", index_name, key_value, Table.update,
            (index_name, key_value, changes), bool,
        )

    def delete(self, index_name: str, key_value: object) -> bool:
        return self._keyed(
            "delete", index_name, key_value, Table.delete,
            (index_name, key_value), bool,
        )

    # -- reads ---------------------------------------------------------------

    def lookup(
        self,
        index_name: str,
        key_value: object,
        project: tuple[str, ...] | None = None,
    ):
        """The owner's result, or the last shard's miss."""
        return self._keyed(
            "lookup", index_name, key_value, Table.lookup,
            (index_name, key_value, project), _found,
        )

    def lookup_many(
        self,
        index_name: str,
        key_values: list[object],
        project: tuple[str, ...] | None = None,
    ) -> list:
        """Batched point lookups, grouped per shard (positional results).

        Routing-index batches split by placement and reuse each shard's
        PR-3 batched path (shared descents, page-ordered heap fetches);
        results land back in request positions.  Non-routing batches
        degrade to a broadcast per key.
        """
        if index_name != self.routing_index:
            return [self.lookup(index_name, k, project) for k in key_values]
        route = self._sdb.router.shard_of
        by_shard: dict[int, list[int]] = {}
        for pos, key in enumerate(key_values):
            by_shard.setdefault(route(key), []).append(pos)
        shards = sorted(by_shard)
        calls = [(i, Table.lookup_many, (self._on[i], index_name,
                  [key_values[p] for p in by_shard[i]], project)) for i in shards]
        batches = self._sdb._fan_out(
            "lookup_many", shards, calls, table=self.name, batch=len(key_values)
        )
        results: list = [None] * len(key_values)
        for i, got in zip(shards, batches):
            for pos, result in zip(by_shard[i], got):
                results[pos] = result
        return results

    def scan(
        self,
        predicate=None,
        project: tuple[str, ...] | None = None,
        use_columnar: bool = True,
    ):
        """Scatter-gather scan, merged in ascending routing-key order.

        Per-shard heaps have independent physical orders, so the sharded
        scan defines its output order as the routing key's: each shard
        scans (columnar kernels engage per shard when armed), sorts its
        partition, and a k-way merge stitches the streams.  The oracle
        identity: ``sorted(single_engine.scan(...), key=routing_key)``.
        """
        self._require_routing()
        project_out = self.schema.names if project is None else tuple(project)
        fetch = tuple(dict.fromkeys(project_out + self.routing_key.columns))
        sort_key = self.routing_key.key_of_row

        def sorted_scan(table: Table) -> list:
            return sorted(
                table.scan(predicate, fetch, use_columnar=use_columnar),
                key=sort_key,
            )

        streams = self._sdb._fan_out(
            "scan", self._every, self._everywhere(sorted_scan),
            table=self.name,
        )
        merged = heapq.merge(*streams, key=sort_key)
        if fetch == project_out:
            return iter(list(merged))
        return iter(
            [{name: row[name] for name in project_out} for row in merged]
        )

    def aggregate(
        self,
        specs: list[tuple[str, str | None]],
        predicate=None,
        use_columnar: bool = True,
    ) -> dict[str, object]:
        """Scatter-gather aggregate: per-shard partials, exact combine.

        ``count``/``sum`` partials add, ``min``/``max`` fold, and ``avg``
        is recomputed from fanned-out ``sum`` + ``count`` (averaging
        per-shard averages would weight shards, not rows).  Identical to
        the single-engine fold on every predicate shape.
        """
        from repro.columnar.executor import normalize_specs, spec_label

        normalized = normalize_specs(list(specs), self.schema)
        partial: list[tuple[str, str | None]] = []
        for op, column in normalized:
            if op == "avg":
                partial.append(("sum", column))
                partial.append(("count", None))
            else:
                partial.append((op, column))
        partial = list(dict.fromkeys(partial))
        pieces = self._sdb._fan_out(
            "aggregate", self._every,
            self._everywhere(Table.aggregate, partial, predicate, use_columnar),
            table=self.name,
        )
        def total(label: str):
            return sum(p[label] for p in pieces)

        out: dict[str, object] = {}
        for op, column in normalized:
            label = spec_label(op, column)
            if op in ("count", "sum"):
                out[label] = total(label)
            elif op == "avg":
                count = total("count")
                out[label] = total(f"sum({column})") / count if count else None
            else:  # min / max, over the shards that saw a row
                values = (p[label] for p in pieces if p[label] is not None)
                out[label] = (min if op == "min" else max)(values, default=None)
        return out


class ShardedDatabase:
    """Routing facade over ``n_shards`` independent engines."""

    def __init__(
        self,
        n_shards: int = 2,
        *,
        mode: str = "hash",
        hot_fraction: float = 0.05,
        page_size: int = DEFAULT_PAGE_SIZE,
        data_pool_pages: int = SHARD_POOL_PAGES,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        shard_metrics: list[MetricsRegistry] | None = None,
        wal: bool = False,
        wal_group_commit: int = GROUP_COMMIT_RECORDS,
        fault_injectors: list | None = None,
        retry_policy=None,
        recovery: bool = False,
        _adopt: tuple | None = None,
    ) -> None:
        """
        Args:
            n_shards, mode, hot_fraction: router configuration (see
                :class:`ShardRouter`).
            page_size, data_pool_pages, retry_policy: per-shard engine
                configuration — ``data_pool_pages`` is **per shard**
                (shards model machines, each brings its own RAM).
            seed: base seed; shard ``i`` derives ``seed + i``.
            metrics: the *parent* registry (``shard.*`` family); ambient
                or fresh when ``None``, like :class:`Database`.
            shard_metrics: one private registry per shard (surfaced as
                ``shard.<i>.*`` in :meth:`snapshot`); fresh ones are
                built when omitted.
            wal, wal_group_commit: per-shard durability.
            fault_injectors: one armed/armable injector per shard (the
                sharded fault drill's hook).
            recovery: route every delegated engine call through that
                shard's :class:`~repro.faults.recovery.RecoveryManager`
                (heal + retry on corruption), like the fault drill does.
        """
        metrics = engine_registry(metrics)
        #: The parent registry (the ``shard.*`` family lives here).
        self.metrics = metrics
        self._use_recovery = recovery
        #: Simulated elapsed time with shards running in parallel: every
        #: operation advances this by the *slowest involved shard's* delta.
        self.sim_now_ns = 0.0
        self._migration_seq = 1
        self._tables: dict[str, ShardedTable] = {}
        #: §5j collector, journal and fleet rollup: None until enable_tracing /
        #: enable_events / enable_rollup arm them (each hook is one None test).
        self.trace = None
        self.journal = None
        self.rollup = None

        if _adopt is not None:
            dbs, regs, router = _adopt
            self._dbs = list(dbs)
            self._shard_metrics = list(regs)
            self.router = router
        else:
            if n_shards < 1:
                raise QueryError(f"need at least one shard, got {n_shards}")
            if fault_injectors is not None and len(fault_injectors) != n_shards:
                raise QueryError(
                    f"fault_injectors must have one entry per shard "
                    f"({n_shards}), got {len(fault_injectors)}"
                )
            if shard_metrics is not None and len(shard_metrics) != n_shards:
                raise QueryError(
                    f"shard_metrics must have one registry per shard "
                    f"({n_shards}), got {len(shard_metrics)}"
                )
            if shard_metrics is None:
                if isinstance(metrics, NullRegistry):
                    shard_metrics = [NULL_REGISTRY] * n_shards
                else:
                    shard_metrics = [MetricsRegistry() for _ in range(n_shards)]
            self._shard_metrics = list(shard_metrics)
            self.router = ShardRouter(
                n_shards, mode=mode, hot_fraction=hot_fraction, registry=metrics
            )
            self._dbs = [
                Database(
                    page_size=page_size,
                    data_pool_pages=data_pool_pages,
                    seed=seed + i,
                    metrics=self._shard_metrics[i],
                    fault_injector=(
                        fault_injectors[i] if fault_injectors else None
                    ),
                    retry_policy=retry_policy,
                    wal=wal,
                    wal_group_commit=wal_group_commit,
                )
                for i in range(n_shards)
            ]
        # Each engine's shard id lives once, on its tracer: its spans and
        # journaled events read it there, whatever is armed and when.
        for i, db in enumerate(self._dbs):
            db.tracer.shard = i
        self._m_count = metrics.gauge("shard.count")
        self._m_count.set(float(len(self._dbs)))
        self._m_fanout_shards = metrics.histogram("shard.fanout.shards")
        # One count per fan-out: the width histogram's.
        metrics.adopt(self._m_fanout_shards, {"count": "shard.fanout.ops"})
        self._m_rebalances = metrics.counter("shard.rebalance.runs")
        self._m_keys_moved = metrics.counter("shard.rebalance.keys_moved")
        self._m_intents = metrics.counter("shard.migration.intents")
        self._m_migrations = metrics.counter("shard.migration.completed")
        if _adopt is not None:
            self._restore_tables()

    # -- adoption (recovery side door) ---------------------------------------

    @classmethod
    def adopt(
        cls,
        dbs: list[Database],
        shard_metrics: list[MetricsRegistry],
        router: ShardRouter,
        metrics: MetricsRegistry | None = None,
    ) -> "ShardedDatabase":
        """Wrap already-recovered per-shard engines (see
        :func:`repro.shard.recovery.recover_sharded`); sharded tables and
        routing metadata are rebuilt from shard 0's catalog."""
        return cls(metrics=metrics, _adopt=(dbs, shard_metrics, router))

    def _restore_tables(self) -> None:
        for table in self._dbs[0].catalog.tables():
            self._tables[table.name] = ShardedTable(self, table.name, table.schema)

    # -- properties ----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._dbs)

    @property
    def shards(self) -> list[Database]:
        return list(self._dbs)

    def shard(self, i: int) -> Database:
        return self._dbs[i]

    def shard_registry(self, i: int) -> MetricsRegistry:
        return self._shard_metrics[i]

    def table(self, name: str) -> ShardedTable:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"no sharded table {name!r}") from None

    # -- observability (§5j) -------------------------------------------------

    def enable_tracing(self):
        """Arm §5j cross-shard tracing: one span tree per logical op.

        The collector lives on the *parent* registry and times facade
        root spans on :attr:`sim_now_ns`; spans tagged with a shard id
        (the fan-out executors, per-shard table ops, WAL flushes) are
        timed on that shard's own cost-model clock — machines have local
        time, and the Chrome export scopes each shard to its own pid.
        ``auto_root`` is off: direct access to a shard engine outside a
        facade op records nothing rather than flooding the ring with
        one-span trees.  Idempotent; strictly opt-in.
        """
        if self.trace is None:
            from repro.obs.trace import TraceCollector

            self.trace = TraceCollector(
                clock=lambda: self.sim_now_ns,
                registry=self.metrics,
                auto_root=False,
                shard_clocks={
                    i: db.cost_model for i, db in enumerate(self._dbs)
                },
            )
            for db in self._dbs:
                db.attach_tracing(self.trace)
            self.router.hops = []
            if self.journal is not None:
                self.journal.trace_source = self.trace
        return self.trace

    def enable_events(self):
        """Arm the §5j causal event journal across the whole fleet.

        One journal, shared by the facade (migration intent/commit,
        rebalance begin/end) and every shard (checkpoints, fault heal
        transitions, recovery phases), with per-shard monotonic
        ``shard_seq`` on top of the global causal ``seq``.  Idempotent.
        """
        if self.journal is None:
            from repro.obs.events import EventJournal

            self.journal = EventJournal(
                clock=lambda: self.sim_now_ns,
                registry=self.metrics,
                trace_source=self.trace,
            )
            for db in self._dbs:
                db.attach_events(self.journal)
        return self.journal

    def enable_rollup(self):
        """Build (once) and return the §5j :class:`FleetRollup` merging
        every ``shard.<i>.*`` registry into ``fleet.*`` on the parent."""
        if self.rollup is None:
            from repro.obs.rollup import FleetRollup

            self.rollup = FleetRollup(self._shard_metrics, self.metrics)
        return self.rollup

    def snapshot(self) -> dict:
        """Parent snapshot with per-shard registries nested under
        ``shard.<i>`` (so ``shard.0.bufferpool.hit`` is addressable)."""
        root = self.metrics.snapshot()
        shard_node = root.setdefault("shard", {})
        for i, reg in enumerate(self._shard_metrics):
            shard_node[str(i)] = reg.snapshot()
        return root

    def _shard_work(self, i: int) -> dict[str, float]:
        """Registry-derived work totals for shard ``i`` — two calls
        bracketing a fan-out span yield its delta attributes."""
        reg = self._shard_metrics[i]

        def val(name: str) -> float:
            instrument = reg.get(name)
            return instrument.value if instrument is not None else 0.0

        wal = self._dbs[i].wal
        return {
            "pages": val("bufferpool.hit") + val("bufferpool.miss"),
            "pool_hits": val("bufferpool.hit"),
            "wal_bytes": float(wal.logged_bytes) if wal is not None else 0.0,
            "cache_hits": val("index_cache.hit"),
            "fragment_hits": val("columnar.cache.hits"),
        }

    # -- the bracket -----------------------------------------------------------

    def _fan_out(self, op: str, shards, calls, answered=None, **baggage) -> list:
        """The one bracket of every op and key migration: run ``calls``
        (``(shard, fn, args)``) in order up to the first result ``answered``
        accepts, add the slowest of ``shards``' clock deltas to
        :attr:`sim_now_ns` (all of them: a broadcast occupies every machine
        it was sent to) and record the width, also when a call raises.
        Unarmed a call is ``fn(*args)`` and the loops call nothing; armed,
        a root span ``shard.<op>`` carries the router's hops and
        ``baggage``, and each shard call goes through :meth:`_call`.  Shard
        ``None`` is facade-side work (a migration's body)."""
        dbs = self._dbs
        starts = []
        width = 0
        for i in shards:
            starts += (dbs[i].cost_model.now_ns,)
            width += 1
        trace = self.trace
        root = None
        if trace is not None:
            hops, self.router.hops = self.router.hops, []
            if hops and trace.active is not None:
                for hop in hops:
                    trace.record_hop(hop)
            elif hops:
                baggage["hops"] = hops
            root = trace.begin(f"shard.{op}", baggage=baggage)
        armed = trace is not None or self._use_recovery
        results = []
        error = False
        try:
            for i, fn, args in calls:
                if armed and i is not None:
                    result = self._call(i, fn, args)
                else:
                    result = fn(*args)
                results += (result,)
                if answered is not None and answered(result):
                    break
        except BaseException:
            error = True
            raise
        finally:
            elapsed = 0.0
            for i, start in zip(shards, starts):
                delta = dbs[i].cost_model.now_ns - start
                if delta > elapsed:
                    elapsed = delta
            self.sim_now_ns += elapsed
            self._m_fanout_shards.record(width)
            if root is not None:
                trace.annotate(fanout=width)
                trace.end(root, error)
        return results

    def _call(self, i: int, fn, args: tuple):
        """One shard call, healed when recovery is on and, under an active
        trace, inside a ``shard.exec`` span carrying the work it caused on
        shard ``i`` (pages touched, WAL bytes, cache/fragment hits, rows)."""
        if self._use_recovery:
            fn, args = self._dbs[i].recovery.call, (fn, *args)
        trace = self.trace
        if trace is None or trace.active is None:
            return fn(*args)
        before = self._shard_work(i)
        with trace.span("shard.exec", shard=i) as span:
            result = fn(*args)
            span.attrs.update({
                k: v - before[k]
                for k, v in self._shard_work(i).items() if v != before[k]
            })
            if isinstance(result, list):
                span.attrs["rows"] = len(result)
        return result

    # -- DDL (fans out to every shard) ---------------------------------------

    def create_table(
        self, name: str, schema: Schema, append_only: bool = False
    ) -> ShardedTable:
        for db in self._dbs:
            db.create_table(name, schema, append_only=append_only)
        stable = ShardedTable(self, name, schema)
        self._tables[name] = stable
        return stable

    def create_index(
        self,
        table_name: str,
        index_name: str,
        key_columns: tuple[str, ...],
        split_fraction: float = SPLIT_FRACTION,
    ) -> None:
        self._index_ddl(
            table_name, index_name,
            lambda db: db.create_index(
                table_name, index_name, key_columns,
                split_fraction=split_fraction,
            ),
        )

    def create_cached_index(
        self,
        table_name: str,
        index_name: str,
        key_columns: tuple[str, ...],
        cached_fields: tuple[str, ...],
        **kwargs,
    ) -> None:
        self._index_ddl(
            table_name, index_name,
            lambda db: db.create_cached_index(
                table_name, index_name, key_columns, cached_fields, **kwargs
            ),
        )

    def _index_ddl(self, table_name: str, index_name: str, create) -> None:
        """Fan one CREATE INDEX out; the first index created routes.

        Shards share every catalog fact but their rows, so the one refusal
        a shard could raise alone (no back-fill) is raised here for the
        whole table, before any shard attaches or logs anything.
        """
        stable = self.table(table_name)
        require_empty_for_index(stable, index_name)
        for db in self._dbs:
            create(db)
        if stable.routing_index is None:
            stable.routing_index = index_name
            stable.routing_key = stable.shard_table(0).index(index_name).key_codec

    def enable_columnar(self, **kwargs) -> None:
        """Arm the PR-8 columnar mirror on every shard's engine."""
        for db in self._dbs:
            db.enable_columnar(**kwargs)

    def checkpoint(self) -> None:
        for db in self._dbs:
            if db.wal is not None:
                db.checkpoint()

    def flush_wals(self) -> None:
        for db in self._dbs:
            if db.wal is not None:
                db.wal.flush()

    # -- rebalance / migration -----------------------------------------------

    def rebalance(self) -> RebalanceReport:
        """Apply the router's hot-key spreading plan, one failure-atomic
        migration per key (every sharded table moves its row for the key,
        so co-partitioned tables stay aligned); decays the tracker one
        epoch afterwards so stale heat fades."""
        plan = self.router.plan_rebalance()
        if self.journal is not None:
            self.journal.emit("rebalance.begin", planned=len(plan))
        keys_moved, rows_moved = len(plan), 0
        for key, src, dst in plan:
            rows_moved += self._migrate_key(key, src, dst)
            self.router.apply_move(key, dst)
        self.router.advance_epoch()
        self._m_rebalances.inc()
        self._m_keys_moved.inc(keys_moved)
        if self.journal is not None:
            self.journal.emit(
                "rebalance.end", keys_moved=keys_moved, rows_moved=rows_moved
            )
        return RebalanceReport(keys_moved=keys_moved)

    def _migrate_key(self, key: object, src: int, dst: int) -> int:
        """Copy-then-delete one key from ``src`` to ``dst``, riding both
        shards' WALs, in one bracket charged to both shards.

        Protocol (per table holding the key): (1) append a SHARD_MIGRATE
        intent to the *destination* log; (2) insert the copy there; (3)
        flush the destination WAL — the durability point after which the
        destination owns the key; (4) delete the source copy (its record
        rides the source's group commit).  A crash before (3) leaves
        only the source copy durable; after (3), recovery finds the key
        on both shards and the durable intent rolls it forward (delete
        the source copy).  Either way: exactly one owner, zero lost or
        duplicated tuples.
        """
        seq = self._migration_seq
        self._migration_seq += 1
        calls = ((None, self._move_key, (key, src, dst, seq)),)
        moved = self._fan_out("migrate_key", (src, dst), calls, src=src, dst=dst)[0]
        if moved:
            self._m_migrations.inc()
        return moved

    def _move_key(self, key: object, src: int, dst: int, seq: int) -> int:
        """:meth:`_migrate_key`'s body: the protocol for every table."""
        dst_wal = self._dbs[dst].wal
        moved = 0
        for name, stable in self._tables.items():
            index = stable.routing_index
            if index is None:
                continue
            found = self._call(src, Table.lookup, (stable._on[src], index, key))
            if not found.found:
                continue
            intent = {
                "table": name, "key": json_safe_key(key),
                "src": src, "dst": dst, "seq": seq,
            }
            if dst_wal is not None:
                dst_wal.log_shard_migrate(intent)
                self._m_intents.inc()
            if self.journal is not None:
                self.journal.emit("migration.intent", shard=dst, **intent)
            self._call(dst, Table.insert, (stable._on[dst], dict(found.values)))
            if dst_wal is not None:
                dst_wal.flush()
            self._call(src, Table.delete, (stable._on[src], index, key))
            moved += 1
            if self.journal is not None:
                self.journal.emit("migration.commit", shard=dst, **intent)
        return moved

    # -- invariants -----------------------------------------------------------

    def _residency(self):
        """Every ``(table, routing key, shard)`` physically present, table
        by table and shard by shard — read off the heaps, never the
        router (``check`` and ``recover_sharded`` both judge the router
        against it)."""
        for name, stable in self._tables.items():
            if stable.routing_index is None:
                continue
            for i in range(self.n_shards):
                for row in stable.shard_table(i).scan(
                    project=stable.routing_key.columns, use_columnar=False
                ):
                    yield name, stable.key_of_row(row), i

    def check(self) -> ShardCheckReport:
        """Every shard's invariant walk, one catalog fleet-wide (each
        shard's index names, key columns and kinds equal shard 0's, the
        catalog :meth:`adopt` trusts) and exactly-one-owner: no routing
        key may be resident on two shards."""
        report = ShardCheckReport()
        for db in self._dbs:
            report.per_shard.append(db.check())
        for name in self._tables:
            shapes = []
            for db in self._dbs:
                table = db.table(name)
                shapes.append([
                    (n, table.index(n).key_codec.columns,
                     type(table.index(n)).__name__)
                    for n in table.index_names
                ])
            report.problems.extend(
                f"table {name!r}: shard {i} indexes {shape} differ from "
                f"shard 0's {shapes[0]}"
                for i, shape in enumerate(shapes) if shape != shapes[0]
            )
        seen: dict[tuple, int] = {}
        for name, key, i in self._residency():
            first = seen.setdefault((name, key), i)
            if first != i:
                report.problems.append(
                    f"table {name!r}: key {key!r} resident on "
                    f"shards {first} and {i}"
                )
        return report

    def resident_shard(self, table_name: str, key: object) -> int | None:
        """Which shard physically holds ``key`` (None if absent) —
        bypasses the router; used by recovery and tests."""
        stable = self.table(table_name)
        index = stable._require_routing()
        for i in range(self.n_shards):
            if stable.shard_table(i).lookup(index, key).found:
                return i
        return None
