"""The end-to-end fault drill: a Wikipedia workload replayed under fire.

``run_fault_drill`` is one drill core over a :class:`_Target` — one
:class:`~repro.query.database.Database`, or the engines of a
:class:`~repro.shard.ShardedDatabase`, each on its own
:class:`~repro.faults.disk.FaultyDisk` with its own injector, registry
and write-ahead log.  It loads the synthetic Wikipedia revision table
with a §2.1 cached index, arms :func:`default_plan` on every engine,
replays a mixed lookup/update/insert/delete workload through the
:class:`~repro.faults.recovery.RecoveryManager`, then sweeps, digests
and folds one :class:`DrillReport` over all engines.  What a mode adds
is an entry in an op-index schedule or one ``if`` arm, never a second
loop: power cuts and the adaptive controller's windows (single engine);
:class:`_SessionOps` in place of the autocommit op mix (sessions); two
hot-key rebalances under tracing, journal and rollup (sharded).

Pulling the power: a :data:`~repro.faults.plan.FaultKind.CRASH_POINT`
tears whatever page is mid-write, all in-memory state is discarded, and
the database is restarted with :func:`repro.wal.replay.recover`.  The
ground-truth mirror is rebuilt *independently* by folding the durable
log, so the drill verifies both crash-consistency directions: every
durable write survives, and nothing that missed the log resurrects.

Every operation's outcome is verified against the mirror, so the drill's
headline number — ``wrong_results`` — is literal: how many times the
engine returned an answer that differed from ground truth.  With
checksums, retry, self-healing, and WAL replay on, the expected value is
zero no matter how many faults were injected or restarts forced.

This module imports ``repro.query`` and ``repro.workload``; it is kept
out of ``repro.faults.__init__`` to avoid an import cycle — reach it as
``repro.faults.harness`` (or ``python -m repro.faults`` for the CLI).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partialmethod

from repro.errors import SimulatedCrashError, TxnConflictError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.recovery import RecoveryManager
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.query.database import Database
from repro.schema.record import unpack_record_map
from repro.storage.retry import RetryPolicy
from repro.txn.oracle import committed_positional_fold
from repro.util.rng import DeterministicRng
from repro.wal.record import scan_wal
from repro.workload.wikipedia import REVISION_SCHEMA, WikipediaConfig, generate

#: Fields the drill's cached index keeps in leaf free space; lookups
#: project key ∪ cached so cache hits answer without the heap.
CACHED_FIELDS = ("rev_page", "rev_len")
PROJECTION = ("rev_id",) + CACHED_FIELDS
TABLE = "revision"

#: Power cuts per WAL-backed single-engine drill, evenly spaced.
CRASH_RESTARTS = 2
#: Operations between fuzzy checkpoints (WAL-backed drills).
CHECKPOINT_EVERY = 1_000
#: Operations per window an adaptive drill samples and feeds its
#: controller (single engine).
ADAPTIVE_WINDOW_OPS = 10
#: Three corrective re-reads: at a 2% read-flip rate, one re-read would
#: misdiagnose back-to-back flips as at-rest corruption.
DRILL_RETRY = RetryPolicy(corrupt_rereads=3)


@dataclass
class DrillReport:
    """Everything the e2e drill measured, plus pass/fail verdicts."""

    seed: int
    operations: int
    wrong_results: int
    faults_injected: int
    faults_detected: int
    faults_recovered: int
    faults_unrecoverable: int
    retries: int
    index_rebuilds: int
    quarantined_pages: int
    check_ok: bool
    check_problems: list[str] = field(default_factory=list)
    digest: str = ""
    metrics: dict = field(default_factory=dict)
    #: Heap pages materialized from WAL history (runtime heals + replay).
    heap_page_rebuilds: int = 0
    #: Power cuts survived via :func:`repro.wal.replay.recover`.
    crash_restarts: int = 0
    #: Redo records the WAL writer emitted over the whole drill.
    wal_records: int = 0
    #: Concurrent logical sessions interleaved by the drill (0 = the
    #: classic autocommit drill).
    sessions: int = 0
    #: Transaction outcomes across the whole drill (sessions mode).
    txn_commits: int = 0
    txn_aborts: int = 0
    txn_conflicts: int = 0
    #: Shards the drill ran over (0 = the classic single-engine drill).
    shards: int = 0
    #: Hot keys migrated by the sharded drill's mid-flight rebalances.
    keys_migrated: int = 0
    #: §5j causal event journal of the sharded drill (fault, checkpoint,
    #: migration intent/commit, rebalance records as dicts, causal order).
    events: list = field(default_factory=list)
    #: §5j exported cross-shard span trees (sharded drill; newest last).
    traces: list = field(default_factory=list)

    @property
    def ledger_balanced(self) -> bool:
        """The accounting invariant: every detection was resolved."""
        return self.faults_detected == (
            self.faults_recovered + self.faults_unrecoverable
        )

    @property
    def passed(self) -> bool:
        return self.wrong_results == 0 and self.check_ok and self.ledger_balanced

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        sharding = ""
        if self.shards:
            sharding = (
                f"{self.shards} shard(s), {self.keys_migrated} hot key(s) "
                f"migrated, "
            )
        concurrency = ""
        if self.sessions:
            concurrency = (
                f"{self.sessions} session(s): {self.txn_commits} commit(s), "
                f"{self.txn_aborts} abort(s), {self.txn_conflicts} "
                f"conflict(s), "
            )
        return (
            f"fault drill [{verdict}] seed={self.seed}: {self.operations} ops, "
            f"{sharding}"
            f"{concurrency}"
            f"{self.faults_injected} faults injected, "
            f"{self.faults_detected} detected = {self.faults_recovered} "
            f"recovered + {self.faults_unrecoverable} unrecoverable, "
            f"{self.retries} retries, {self.index_rebuilds} index rebuild(s), "
            f"{self.heap_page_rebuilds} heap page(s) redo-recovered, "
            f"{self.crash_restarts} crash restart(s), "
            f"{self.wal_records} WAL record(s), "
            f"{self.quarantined_pages} page(s) quarantined, "
            f"{self.wrong_results} wrong result(s), "
            f"check={'OK' if self.check_ok else 'FAILED'}, "
            f"digest={self.digest[:16]}"
        )


def default_plan(is_index_page, is_heap_page) -> FaultPlan:
    """The drill's standard mix.

    Transient faults and read-path flips hit everything — they heal by
    retry/re-read.  At-rest corruption aimed at index pages heals by
    rebuild-from-heap.  Bit flips and torn writes are aimed at heap pages
    too: their full history is in the write-ahead log, so they heal by
    redo.  Stuck writes stay index-only — a heap page that keeps its old,
    internally valid bytes is only caught by the pool's freshness memory,
    which a restart legitimately loses.
    """
    return FaultPlan.of(
        FaultSpec(FaultKind.TRANSIENT_READ_ERROR, probability=0.02),
        FaultSpec(FaultKind.TRANSIENT_WRITE_ERROR, probability=0.02),
        FaultSpec(FaultKind.READ_BIT_FLIP, probability=0.02),
        FaultSpec(
            FaultKind.WRITE_BIT_FLIP, probability=0.02, page_filter=is_index_page
        ),
        FaultSpec(FaultKind.TORN_WRITE, probability=0.02, page_filter=is_index_page),
        FaultSpec(FaultKind.STUCK_WRITE, probability=0.02, page_filter=is_index_page),
        FaultSpec(
            FaultKind.WRITE_BIT_FLIP, probability=0.01, page_filter=is_heap_page
        ),
        FaultSpec(FaultKind.TORN_WRITE, probability=0.01, page_filter=is_heap_page),
    )


def _mirror_from_wal(records) -> dict[int, dict[str, object]]:
    """Fold durable heap records into ``rev_id -> row`` ground truth.

    Independent of the engine's replay: this is the *definition* of what
    a crash may keep — exactly the operations whose records reached the
    device — against which the restarted database is then verified.
    """
    mirror: dict[int, dict[str, object]] = {}
    for payload in committed_positional_fold(records).values():
        row = unpack_record_map(REVISION_SCHEMA, payload)
        mirror[row["rev_id"]] = row
    return mirror


def check_result(expected, result) -> int:
    """1 if ``result`` differs from the ``expected`` row (None = the key
    must be absent), else 0 — the drill's one per-read comparison."""
    if expected is None:
        return 0 if not result.found else 1
    if not result.found:
        return 1
    want = {name: expected[name] for name in PROJECTION}
    return 0 if result.values == want else 1


def _quarantined(db) -> int:
    return len(db.data_pool.quarantined_pages | db.index_pool.quarantined_pages)


class _Target:
    """The engine(s) under test, behind the few calls the drill makes.

    ``engines`` / ``injectors`` / ``registries`` are parallel lists —
    length 1 for the classic drill, one entry per shard otherwise — so
    arming, the straggler sweep and the report fold are each one loop.
    :meth:`crash_restart` re-binds ``engines[0]``, so everything (page
    filters included) reads the list live, never a saved engine.
    """

    def __init__(self, seed: int, pool_pages: int, shards: int) -> None:
        self._seed = seed
        self._pool_pages = pool_pages
        self.registries = [MetricsRegistry() for _ in range(shards or 1)]
        self.injectors = [
            FaultInjector(seed=seed + i, registry=registry)
            for i, registry in enumerate(self.registries)
        ]
        self.facade = None
        if shards:
            from repro.shard.database import ShardedDatabase  # late: cycle

            self.facade = root = ShardedDatabase(
                shards,
                mode="zipf",
                # Split the drill's RAM budget across the shards (rounded
                # up, floor of 4 frames) — otherwise N shards quietly get
                # N× the classic drill's memory, every partition fits, and
                # no I/O ever reaches the faulty disks, which would turn
                # the drill into a no-op.
                data_pool_pages=max(4, -(-pool_pages // shards)),
                seed=seed,
                metrics=MetricsRegistry(),
                shard_metrics=self.registries,
                fault_injectors=self.injectors,
                retry_policy=DRILL_RETRY,
                wal=True,
                recovery=True,
            )
            # §5j: the sharded drill always runs observed — cross-shard
            # traces, the causal event journal, and fleet rollups all
            # read clocks and registries without advancing them, so the
            # drill's digest and every correctness verdict are unchanged
            # by arming them.
            root.enable_tracing()
            root.enable_events()
            root.enable_rollup()
            self.engines = root.shards
        else:
            root = Database(
                data_pool_pages=pool_pages,
                seed=seed,
                metrics=self.registries[0],
                fault_injector=self.injectors[0],
                retry_policy=DRILL_RETRY,
                wal=True,
            )
            self.engines = [root]
        root.create_table(TABLE, REVISION_SCHEMA)
        root.create_cached_index(TABLE, "rev_pk", ("rev_id",), CACHED_FIELDS)
        self.plans = [
            default_plan(*self._page_filters(i)) for i in range(len(self.engines))
        ]
        self.restarts = 0
        #: Pages quarantined by engines that have since crashed away.
        self.quarantined_before_restarts = 0

    def _page_filters(self, i: int):
        def is_index_page(page_id: int) -> bool:
            # Re-read per call: rebuilds and restarts swap the tree out.
            tree = self.engines[i].table(TABLE).index("rev_pk").tree
            return page_id in tree._leaf_ids or page_id in tree._internal_ids

        def is_heap_page(page_id: int) -> bool:
            return self.engines[i].table(TABLE).heap.owns_page(page_id)

        return is_index_page, is_heap_page

    def _op(self, method: str, *args):
        """One healed table call: the facade heals per delegated shard
        call; the lone engine goes through its own recovery manager."""
        if self.facade is not None:
            return getattr(self.facade.table(TABLE), method)(*args)
        db = self.engines[0]
        return db.recovery.call(getattr(db.table(TABLE), method), *args)

    insert = partialmethod(_op, "insert")  # (row)
    update = partialmethod(_op, "update", "rev_pk")  # (key, changes)
    delete = partialmethod(_op, "delete", "rev_pk")  # (key)
    lookup = partialmethod(_op, "lookup", "rev_pk")  # (key, project)
    lookup_many = partialmethod(_op, "lookup_many", "rev_pk")  # (keys, project)

    def checkpoint(self) -> None:
        (self.facade or self.engines[0]).checkpoint()

    def snapshot(self) -> tuple[dict, list[dict]]:
        """The report's metrics tree, and each engine's subtree of it."""
        snap = (self.facade or self.registries[0]).snapshot()
        if self.facade is None:
            return snap, [snap]
        return snap, [snap["shard"][str(i)] for i in range(len(self.engines))]

    def check(self) -> tuple[bool, list[str]]:
        """``(ok, problems)`` of the invariant walk; the facade's adds the
        cross-shard one-owner walk on top of its ``per_shard`` walks."""
        report = (self.facade or self.engines[0]).check()
        problems = list(report.problems)
        for i, shard_check in enumerate(getattr(report, "per_shard", ())):
            problems += [f"shard {i}: {p}" for p in shard_check.problems]
        return report.ok, problems

    def crash_restart(self) -> None:
        """Pull the lone engine's power mid-write-back, then recover it."""
        from repro.wal.replay import recover  # late: harness ← query ← wal

        db, injector = self.engines[0], self.injectors[0]
        self.quarantined_before_restarts += _quarantined(db)
        injector.arm(FaultPlan.of(FaultSpec(FaultKind.CRASH_POINT, at_nth=1)))
        try:
            db.data_pool.flush_all()
            db.index_pool.flush_all()
        except SimulatedCrashError:
            pass  # the power cut we ordered; RAM is gone either way
        injector.disarm()
        self.engines[0], _report = recover(
            db.wal,
            disk=db.disk,
            data_pool_pages=self._pool_pages,
            seed=self._seed,
            metrics=self.registries[0],
            retry_policy=DRILL_RETRY,
        )
        if db.adaptive is not None:  # fresh engine, fresh controller
            self.engines[0].enable_adaptive(sampler=db.adaptive.sampler)
        self.restarts += 1
        injector.arm(self.plans[0])


class _Workload:
    """The seeded op source and the ground truth its ops are checked
    against, shared by the autocommit mix and :class:`_SessionOps`."""

    def __init__(self, seed: int, rows: list[dict]) -> None:
        self.rng = DeterministicRng(seed)
        #: ``rev_id -> row`` the engine must agree with (in sessions mode:
        #: the committed base the versioned oracle grows from).
        self.mirror: dict[int, dict[str, object]] = {
            row["rev_id"]: dict(row) for row in rows
        }
        #: Every key ever seen, deleted and lost ones included (they stay
        #: probed); new keys only grow upwards, so the last is the largest.
        self.keys = sorted(self.mirror)
        self._template = dict(rows[0])

    def pick_key(self) -> int:
        return self.keys[self.rng.randrange(len(self.keys))]

    def new_row(self) -> dict:
        row = dict(self._template)
        row["rev_id"] = row["rev_text_id"] = self.keys[-1] + 1
        row["rev_len"] = self.rng.randint(100, 200_000)
        self.keys.append(row["rev_id"])
        return row

    def reset_to(self, durable_records) -> None:
        """After a crash, ground truth is whatever the durable log says;
        a key whose insert missed the log must now look up as absent."""
        self.mirror.clear()
        self.mirror.update(_mirror_from_wal(durable_records))
        self.keys[:] = sorted(set(self.keys) | set(self.mirror))


class _SessionOps:
    """The sessions-mode op engine: N interleaved MVCC sessions running
    short 1–4 op transactions (seeded session pick per op, ~10% voluntary
    aborts), every read verified against the session's own snapshot.

    ``_oracle`` is the versioned ground truth: key -> [(csn, row|None)]
    committed versions under the engine's commit CSNs, csn 0 = the
    pre-concurrency base.  ``_claims`` mirrors the engine's write-pending
    table so first-writer-wins conflicts are *predicted*, not just
    tolerated.  ``_state[i]`` is session ``i``'s open transaction or None.
    """

    def __init__(self, target: _Target, workload: _Workload, n: int) -> None:
        self._target = target
        self._w = workload
        self._n = n
        self.reset()

    def reset(self) -> None:
        """Fresh sessions over the committed mirror — at the start, and
        after each crash restart: in-flight transactions died with RAM and
        recovery rolled their durable ops back (the durable fold nets out
        ops + compensations), so no claims are outstanding."""
        db = self._target.engines[0]
        self._sess = [db.session() for _ in range(self._n)]
        self._state: list = [None] * self._n
        self._claims: dict[int, int] = {}
        self._oracle: dict[int, list] = {
            k: [(0, dict(row))] for k, row in self._w.mirror.items()
        }

    def _call(self, fn, *args):
        return self._target.engines[0].recovery.call(fn, *args)

    def _visible(self, key: int, st: dict):
        """The row ``st``'s snapshot must see (own writes overlay the
        newest committed version at or below the begin CSN)."""
        if key in st["writes"]:
            return st["writes"][key]
        value = None
        for csn, row in self._oracle.get(key, ()):
            if csn <= st["begin"]:
                value = row
        return value

    def _expect_conflict(self, key: int, i: int, st: dict) -> bool:
        holder = self._claims.get(key)
        if holder is not None and holder != i:
            return True
        chain = self._oracle.get(key)
        return bool(chain) and chain[-1][0] > st["begin"]

    def _drop_txn(self, i: int) -> None:
        for k in [k for k, owner in self._claims.items() if owner == i]:
            del self._claims[k]
        self._state[i] = None

    def _end_txn(self, i: int, commit: bool) -> None:
        if commit:
            csn = self._call(self._sess[i].commit)
            for k, row in self._state[i]["writes"].items():
                self._oracle.setdefault(k, [(0, None)]).append(
                    (csn, dict(row) if row is not None else None)
                )
        else:
            self._call(self._sess[i].abort)
        self._drop_txn(i)

    def _write(self, i: int, st: dict, key: int, fn, *args):
        """One conflict-prone write: ``(wrong, the row it applied to)``.
        The row is None when it found nothing — or lost first-writer-wins,
        which drops the transaction and which the oracle must predict."""
        predicted = self._expect_conflict(key, i, st)
        try:
            applied = self._call(fn, TABLE, key, *args)
        except TxnConflictError:
            self._drop_txn(i)
            return int(not predicted), None
        visible = self._visible(key, st)
        # ``predicted`` here: the engine missed a conflict the oracle saw.
        wrong = int(predicted) + int(applied != (visible is not None))
        return wrong, (visible if applied else None)

    def step(self) -> int:
        """One step of a seeded-random session; returns wrong results seen."""
        rng = self._w.rng
        i = rng.randrange(self._n)
        sess = self._sess[i]
        st = self._state[i]
        if st is None:
            begin = self._call(sess.begin)
            st = self._state[i] = {
                "begin": begin, "writes": {}, "left": rng.randint(1, 4),
            }
        bad = 0
        draw = rng.random()
        key = self._w.pick_key()
        if draw < 0.50:
            result = self._call(sess.lookup, TABLE, key, PROJECTION)
            bad += check_result(self._visible(key, st), result)
        elif draw < 0.72:
            new_len = rng.randint(100, 200_000)
            bad, old = self._write(i, st, key, sess.update, {"rev_len": new_len})
            if old is not None:
                row = st["writes"][key] = dict(old, rev_len=new_len)
                self._claims[key] = i
                result = self._call(sess.lookup, TABLE, key, PROJECTION)
                bad += check_result(row, result)
        elif draw < 0.88:
            row = self._w.new_row()
            self._call(sess.insert, TABLE, row)
            st["writes"][row["rev_id"]] = row
            self._claims[row["rev_id"]] = i
        else:
            bad, old = self._write(i, st, key, sess.delete)
            if old is not None:
                st["writes"][key] = None
                self._claims[key] = i
        if self._state[i] is None:  # lost first-writer-wins: txn aborted
            return bad
        st["left"] -= 1
        if st["left"] <= 0:
            self._end_txn(i, commit=rng.random() >= 0.10)
        return bad

    def quiesce(self) -> None:
        """Commit every open transaction (commits never re-validate, so
        these cannot conflict), then collapse the versioned oracle onto
        the workload's mirror: with no transactions in flight, its newest
        committed rows are exactly what autocommit lookups must see."""
        for i in range(self._n):
            if self._state[i] is not None:
                self._end_txn(i, commit=True)
        self._w.mirror.clear()
        for k, chain in self._oracle.items():
            row = chain[-1][1]
            if row is not None:
                self._w.mirror[k] = row


def run_fault_drill(
    seed: int = 0,
    n_pages: int = 300,
    revisions_per_page: int = 4,
    n_ops: int = 3_000,
    pool_pages: int = 16,
    adaptive: bool = False,
    sessions: int = 0,
    shards: int = 0,
) -> DrillReport:
    """Replay a mixed Wikipedia-revision workload under injected faults.

    Deterministic end to end: the same arguments produce the same faults,
    the same recoveries, the same restarts, and the same report digest,
    bit for bit.  Every engine runs with a write-ahead log, so heap pages
    take faults too (they heal by redo) and the single engine survives
    power cuts.

    ``adaptive=True`` arms the engine's
    :class:`~repro.obs.adaptive.AdaptiveController` for the whole drill
    and feeds it one :class:`~repro.obs.sampler.TelemetrySampler` window
    every :data:`ADAPTIVE_WINDOW_OPS` operations — including across crash
    restarts, where the fresh database gets a fresh controller over the
    same sampler.  The controller may retune knobs mid-drill while
    faults fly; the drill's correctness verdict must be unaffected, which
    is exactly what this flag exists to prove (sharded drills ignore it).

    ``sessions=N`` (N >= 1) runs the same workload through N interleaved
    MVCC sessions checked against a versioned oracle (:class:`_SessionOps`).
    Crash restarts land mid-transaction by construction: the recovery
    rollback must discard exactly the in-flight sessions' writes, which
    the rebuilt durable mirror then verifies.

    ``shards=N`` (N >= 1) runs the autocommit drill through a
    :class:`~repro.shard.ShardedDatabase` facade, whose per-call recovery
    managers heal exactly like the single engine's.  At one and two thirds
    of the op budget it fires ``rebalance()`` — hot keys migrate between
    shards while faults fly, and every later read is still verified
    against the mirror, so a migration that lost or duplicated a tuple
    surfaces as a wrong result or a failed cross-shard ownership check.
    Mutually exclusive with ``sessions`` (MVCC is per-engine) and with
    crash restarts, whose sharded equivalent — cutting both logs
    mid-migration — is the crash matrix test's job
    (``tests/test_shard_migration_crash.py``).
    """
    if shards and sessions:
        raise ValueError("shards and sessions are mutually exclusive")
    target = _Target(seed, pool_pages, shards)
    data = generate(
        WikipediaConfig(
            n_pages=n_pages, revisions_per_page_mean=revisions_per_page, seed=seed
        )
    )
    for row in data.revision_rows:
        target.insert(row)
    # Armed *after* the bulk load so tuning reacts to the drill's mixed
    # workload, not to the insert storm.
    sampler = None
    if adaptive and not shards:
        # The clock closure re-reads the engine: a crash restart swaps in
        # a fresh database (and cost model); the clock jumping backwards
        # produces one degenerate window — no rates — and recovers.
        sampler = TelemetrySampler(
            target.registries[0],
            clock=lambda: target.engines[0].cost_model.now_ns,
        )
        target.engines[0].enable_adaptive(sampler=sampler)
        sampler.sample()
    for injector, plan in zip(target.injectors, target.plans):
        injector.arm(plan)

    work = _Workload(seed, data.revision_rows)
    rng, mirror = work.rng, work.mirror
    session_ops = _SessionOps(target, work, sessions) if sessions else None
    wrong = 0

    def verify_lookup(key: int) -> int:
        return check_result(mirror.get(key), target.lookup(key, PROJECTION))

    def restart() -> None:
        target.crash_restart()
        work.reset_to(scan_wal(target.engines[0].wal.device.data).records)
        if session_ops is not None:
            session_ops.reset()

    # What each mode adds at fixed op indices: power cuts (single engine)
    # or hot-key rebalances (sharded; never at op 0).
    if shards:
        thirds = (n_ops // 3, 2 * n_ops // 3)
        schedule = {at: target.facade.rebalance for at in thirds if at}
    else:
        cuts = range(1, CRASH_RESTARTS + 1)
        schedule = {round(n_ops * j / (CRASH_RESTARTS + 1)): restart for j in cuts}

    for op_i in range(n_ops):
        if op_i in schedule:
            schedule[op_i]()
        if sampler is not None and op_i and op_i % ADAPTIVE_WINDOW_OPS == 0:
            target.engines[0].adaptive.evaluate(sampler.sample())
        if op_i and op_i % CHECKPOINT_EVERY == 0:
            target.checkpoint()
        if session_ops is not None:
            wrong += session_ops.step()
            continue
        draw = rng.random()
        key = work.pick_key()
        if draw < 0.15:
            # The batched read fast path under fire: a small multi-key
            # probe (duplicates allowed) must agree with the mirror on
            # every position, exactly like the scalar path.
            batch = [key] + [work.pick_key() for _ in range(rng.randint(1, 5))]
            results = target.lookup_many(batch, PROJECTION)
            wrong += sum(
                check_result(mirror.get(k), r) for k, r in zip(batch, results)
            )
        elif draw < 0.70:
            wrong += verify_lookup(key)
        elif draw < 0.85:
            if key in mirror:
                new_len = rng.randint(100, 200_000)
                if target.update(key, {"rev_len": new_len}):
                    mirror[key]["rev_len"] = new_len
                else:
                    wrong += 1
            wrong += verify_lookup(key)
        elif draw < 0.95:
            row = work.new_row()
            target.insert(row)
            mirror[row["rev_id"]] = row
        else:
            if key in mirror:
                if target.delete(key):
                    del mirror[key]
                else:
                    wrong += 1
            wrong += verify_lookup(key)

    for injector in target.injectors:
        injector.disarm()
    if session_ops is not None:
        session_ops.quiesce()

    # Final sweep: every surviving row must read back exactly right, and
    # every deleted key must stay gone.  The digest folds the sweep plus
    # every engine's fault history, in engine order.
    digest = hashlib.sha256()
    for key in sorted(set(work.keys)):
        wrong += verify_lookup(key)
        expected = mirror.get(key)
        digest.update(repr((key, expected and expected["rev_len"])).encode())
    for injector in target.injectors:
        for fault in injector.log:
            digest.update(
                repr((fault.seq, fault.kind.value, fault.page_id, fault.bit,
                      fault.tear_at)).encode()
            )

    # Cached lookups can answer without the heap, so a heap page
    # corrupted at rest may still be undetected; a full scan through a
    # wide-budget healer redo-recovers any stragglers before the
    # invariant walk (which reports, rather than heals, corruption).
    for db, registry in zip(target.engines, target.registries):
        sweeper = RecoveryManager(db, max_heals=256, registry=registry)
        sweeper.call(lambda: sum(1 for _ in db.table(TABLE).scan()))

    if shards:
        # One traced full-fanout aggregate after the guns go quiet: its span
        # tree must cover every shard (the report's acceptance exhibit).
        target.facade.table(TABLE).aggregate([("count", None)])
        target.facade.rollup.refresh()

    check_ok, check_problems = target.check()
    snapshot, per_engine = target.snapshot()
    replayed_pages = 0
    for engine_snapshot in per_engine:
        replay_stats = engine_snapshot.get("wal", {}).get("replay", {})
        # Everything in the report is bit-for-bit reproducible; replay
        # wall time is the one wall-clock instrument, so it stays out.
        replay_stats.pop("ns", None)
        replayed_pages += replay_stats.get("page_rebuilds", 0)

    def total(family: str, name: str) -> int:
        return sum(s.get(family, {}).get(name, 0) for s in per_engine)

    return DrillReport(
        seed=seed,
        operations=n_ops,
        wrong_results=wrong,
        faults_injected=sum(inj.injected for inj in target.injectors),
        faults_detected=total("faults", "detected"),
        faults_recovered=total("faults", "recovered"),
        faults_unrecoverable=total("faults", "unrecoverable"),
        retries=total("faults", "retries"),
        index_rebuilds=total("recovery", "index_rebuilds"),
        quarantined_pages=target.quarantined_before_restarts
        + sum(_quarantined(db) for db in target.engines),
        check_ok=check_ok,
        check_problems=check_problems,
        digest=digest.hexdigest(),
        metrics=snapshot,
        heap_page_rebuilds=total("recovery", "heap_page_rebuilds") + replayed_pages,
        crash_restarts=target.restarts,
        wal_records=total("wal", "records"),
        sessions=sessions,
        txn_commits=total("txn", "commits"),
        txn_aborts=total("txn", "aborts"),
        txn_conflicts=total("txn", "conflicts"),
        shards=shards,
        keys_migrated=snapshot["shard"]["rebalance"]["keys_moved"] if shards else 0,
        events=target.facade.journal.as_dicts() if shards else [],
        traces=target.facade.trace.as_dicts(8) if shards else [],
    )
