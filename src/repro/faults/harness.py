"""The end-to-end fault drill: a Wikipedia workload replayed under fire.

``run_fault_drill`` builds a :class:`~repro.query.database.Database` on a
:class:`~repro.faults.disk.FaultyDisk` with a write-ahead log, loads the
synthetic Wikipedia revision table with a §2.1 cached index, arms a mixed
fault plan (transient read/write errors and read bit flips anywhere;
at-rest corruption — write bit flips, torn writes, stuck writes — aimed
at index pages, plus bit flips and torn writes aimed at *heap* pages,
which the WAL makes redo-recoverable), and replays a mixed
lookup/update/insert/delete workload through the
:class:`~repro.faults.recovery.RecoveryManager`.

On top of the per-I/O faults the drill now pulls the power: at scheduled
points a :data:`~repro.faults.plan.FaultKind.CRASH_POINT` tears whatever
page is mid-write, all in-memory state is discarded, and the database is
restarted with :func:`repro.wal.replay.recover`.  The ground-truth mirror
is rebuilt *independently* by folding the durable log records, so the
drill verifies both crash-consistency directions: every durable write
survives the restart, and nothing that missed the log resurrects.

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

from repro.errors import SimulatedCrashError, TxnConflictError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.recovery import RecoveryManager
from repro.obs.health import DEFAULT_SLO_RULES, HealthChecker
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.query.database import Database
from repro.schema.record import unpack_record_map
from repro.storage.retry import RetryPolicy
from repro.util.rng import DeterministicRng
from repro.wal.record import HEAP_OP_TYPES, RecordType, scan_wal
from repro.workload.wikipedia import REVISION_SCHEMA, WikipediaConfig, generate

#: Fields the drill's cached index keeps in leaf free space; lookups
#: project key ∪ cached so cache hits answer without the heap.
CACHED_FIELDS = ("rev_page", "rev_len")
PROJECTION = ("rev_id",) + CACHED_FIELDS


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
    #: Telemetry samples taken across the drill (0 = sampling off).
    telemetry_points: int = 0
    #: SLO verdicts over the drill's sampled telemetry — *recorded*, not
    #: enforced: a drill that quarantines pages mid-flight legitimately
    #: breaches the quarantine ceiling and still passes on correctness.
    health_ok: bool = True
    health: dict = field(default_factory=dict)
    #: Knob adjustments applied by the adaptive controller across the
    #: whole drill, every restart included (0 = controller off).
    tuning_actions: int = 0
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


def default_plan(is_index_page, is_heap_page=None) -> FaultPlan:
    """The drill's standard mix.

    Transient faults and read-path flips hit everything — they heal by
    retry/re-read.  At-rest corruption aimed at index pages heals by
    rebuild-from-heap.  When ``is_heap_page`` is given (a WAL is
    attached), bit flips and torn writes are aimed at heap pages too:
    their full history is in the log, so they heal by redo.  Stuck
    writes stay index-only — a heap page that keeps its old, internally
    valid bytes is only caught by the pool's freshness memory, which a
    restart legitimately loses.
    """
    specs = [
        FaultSpec(FaultKind.TRANSIENT_READ_ERROR, probability=0.02),
        FaultSpec(FaultKind.TRANSIENT_WRITE_ERROR, probability=0.02),
        FaultSpec(FaultKind.READ_BIT_FLIP, probability=0.02),
        FaultSpec(
            FaultKind.WRITE_BIT_FLIP, probability=0.02, page_filter=is_index_page
        ),
        FaultSpec(FaultKind.TORN_WRITE, probability=0.02, page_filter=is_index_page),
        FaultSpec(FaultKind.STUCK_WRITE, probability=0.02, page_filter=is_index_page),
    ]
    if is_heap_page is not None:
        specs += [
            FaultSpec(
                FaultKind.WRITE_BIT_FLIP, probability=0.01, page_filter=is_heap_page
            ),
            FaultSpec(
                FaultKind.TORN_WRITE, probability=0.01, page_filter=is_heap_page
            ),
        ]
    return FaultPlan.of(*specs)


def _mirror_from_wal(records) -> dict[int, dict[str, object]]:
    """Fold durable heap records into ``rev_id -> row`` ground truth.

    Independent of the engine's replay: this is the *definition* of what
    a crash may keep — exactly the operations whose records reached the
    device — against which the restarted database is then verified.
    """
    by_rid: dict[tuple[int, int], bytes] = {}
    for rec in records:
        if rec.rtype not in HEAP_OP_TYPES:
            continue
        rid = (rec.page_id, rec.slot)
        if rec.rtype is RecordType.DELETE:
            by_rid.pop(rid, None)
        else:
            by_rid[rid] = rec.payload
    mirror: dict[int, dict[str, object]] = {}
    for payload in by_rid.values():
        row = unpack_record_map(REVISION_SCHEMA, payload)
        mirror[row["rev_id"]] = row
    return mirror


def run_fault_drill(
    seed: int = 0,
    n_pages: int = 300,
    revisions_per_page: int = 4,
    n_ops: int = 3_000,
    pool_pages: int = 16,
    plan: FaultPlan | None = None,
    wal: bool = True,
    crash_restarts: int = 2,
    checkpoint_every: int = 1_000,
    telemetry_samples: int = 16,
    adaptive: bool = False,
    sessions: int = 0,
    shards: int = 0,
) -> DrillReport:
    """Replay a mixed Wikipedia-revision workload under injected faults.

    Deterministic end to end: the same arguments produce the same faults,
    the same recoveries, the same restarts, and the same report digest,
    bit for bit.  ``wal=False`` reverts to the PR-2 drill (no durability,
    no heap-targeted faults, no restarts).

    ``telemetry_samples > 0`` additionally runs a
    :class:`~repro.obs.sampler.TelemetrySampler` on an operation cadence
    across the drill and evaluates the default SLO rules at the end; the
    verdicts land in the report as data (``health_ok``, ``health``) but
    never affect ``passed`` — the drill judges correctness, the health
    checker judges service levels, and a drill is *supposed* to hurt.

    ``adaptive=True`` arms the engine's
    :class:`~repro.obs.adaptive.AdaptiveController` for the whole drill —
    including across crash restarts, where the fresh database gets a
    fresh controller.  The controller may retune knobs mid-drill while
    faults fly; the drill's correctness verdict must be unaffected, which
    is exactly what this flag exists to prove.

    ``sessions=N`` (N >= 1) runs the same workload through N interleaved
    MVCC sessions (short 1–4 op transactions, seeded session pick per
    op, ~10% voluntary aborts).  Ground truth becomes a *versioned*
    mirror — committed versions stamped with the engine's commit CSNs —
    so every read is verified against the session's own snapshot, and
    the conflict oracle independently predicts each first-writer-wins
    abort.  Crash restarts land mid-transaction by construction: the
    recovery rollback must discard exactly the in-flight sessions'
    writes, which the rebuilt durable mirror then verifies.
    ``shards=N`` (N >= 1) runs the autocommit drill over a
    :class:`~repro.shard.ShardedDatabase` instead — N engines, each with
    its own faulty disk, injector (seeded ``seed + i``), WAL, and metrics
    namespace — with two hot-key rebalances fired *mid-drill*, so
    cross-shard migrations commit while faults fly.  Mutually exclusive
    with ``sessions`` (MVCC is per-engine) and with crash restarts, whose
    sharded equivalent — cutting both logs mid-migration — is the crash
    matrix test's job (``tests/test_shard_migration_crash.py``).
    """
    if shards:
        if sessions:
            raise ValueError("shards and sessions are mutually exclusive")
        return _run_sharded_drill(
            seed=seed,
            n_pages=n_pages,
            revisions_per_page=revisions_per_page,
            n_ops=n_ops,
            pool_pages=pool_pages,
            wal=wal,
            checkpoint_every=checkpoint_every,
            shards=shards,
        )
    from repro.wal.replay import recover  # late: harness ← query ← wal

    metrics = MetricsRegistry()
    injector = FaultInjector(seed=seed, registry=metrics)
    db = Database(
        data_pool_pages=pool_pages,
        seed=seed,
        metrics=metrics,
        fault_injector=injector,
        # Three corrective re-reads: at a 2% read-flip rate, one re-read
        # would misdiagnose back-to-back flips as at-rest corruption.
        retry_policy=RetryPolicy(corrupt_rereads=3),
        wal=bool(wal),
    )
    table = db.create_table("revision", REVISION_SCHEMA)
    index = db.create_cached_index(
        "revision", "rev_pk", ("rev_id",), CACHED_FIELDS
    )

    data = generate(
        WikipediaConfig(
            n_pages=n_pages, revisions_per_page_mean=revisions_per_page, seed=seed
        )
    )
    mirror: dict[int, dict[str, object]] = {}
    for row in data.revision_rows:
        table.insert(row)
        mirror[row["rev_id"]] = dict(row)

    # Armed *after* the bulk load so tuning reacts to the drill's mixed
    # workload, not to the insert storm.  Each restart builds a fresh
    # database and therefore a fresh controller; keep them all so the
    # report can total the actions taken across the drill's lifetimes.
    controllers = []
    if adaptive:
        controllers.append(db.enable_adaptive())

    def is_index_page(page_id: int) -> bool:
        tree = index.tree  # re-read: rebuilds/restarts swap the tree out
        return page_id in tree._leaf_ids or page_id in tree._internal_ids

    def is_heap_page(page_id: int) -> bool:
        return table.heap.owns_page(page_id)  # re-read: restarts swap it

    if plan is not None:
        drill_plan = plan
    else:
        drill_plan = default_plan(
            is_index_page, is_heap_page if wal else None
        )
    injector.arm(drill_plan)

    rng = DeterministicRng(seed)
    keys = sorted(mirror)
    wrong = 0
    restarts_done = 0
    quarantined_total = 0
    next_rev_id = max(keys) + 1
    template = dict(data.revision_rows[0])

    # -- concurrent-session infrastructure (sessions mode only) ----------------
    # ``oracle`` is the versioned ground truth: key -> [(csn, row|None)]
    # committed versions, csn 0 = the pre-concurrency base.  ``claims``
    # mirrors the engine's write-pending table so conflicts are
    # *predicted*, not just tolerated.
    sess: list = []
    sess_state: list = [None] * sessions
    oracle: dict[int, list] = {}
    claims: dict[int, int] = {}
    if sessions:
        sess = [db.session() for _ in range(sessions)]
        oracle = {k: [(0, dict(row))] for k, row in mirror.items()}

    def check_result(key: int, result) -> int:
        expected = mirror.get(key)
        if expected is None:
            return 0 if not result.found else 1
        if not result.found:
            return 1
        want = {name: expected[name] for name in PROJECTION}
        return 0 if result.values == want else 1

    def verify_lookup(key: int) -> int:
        result = db.recovery.call(table.lookup, "rev_pk", key, PROJECTION)
        return check_result(key, result)

    def verify_lookup_many(batch: list[int]) -> int:
        results = db.recovery.call(
            table.lookup_many, "rev_pk", batch, PROJECTION
        )
        return sum(check_result(k, r) for k, r in zip(batch, results))

    def restart() -> None:
        """Pull the power mid-write-back, then recover from disk + WAL."""
        nonlocal db, table, index, next_rev_id, restarts_done, quarantined_total
        quarantined_total += len(
            db.data_pool.quarantined_pages | db.index_pool.quarantined_pages
        )
        injector.arm(FaultPlan.of(FaultSpec(FaultKind.CRASH_POINT, at_nth=1)))
        try:
            db.data_pool.flush_all()
            db.index_pool.flush_all()
        except SimulatedCrashError:
            pass  # the power cut we ordered; RAM is gone either way
        injector.disarm()
        db, _report = recover(
            db.wal,
            disk=db.disk,
            data_pool_pages=pool_pages,
            seed=seed,
            metrics=metrics,
            retry_policy=RetryPolicy(corrupt_rereads=3),
        )
        table = db.table("revision")
        index = table.index("rev_pk")
        if adaptive:
            controllers.append(db.enable_adaptive())
        # Ground truth = the durable log, folded independently of the
        # engine's own replay.  Keys ever seen stay probed: a key whose
        # insert missed the log must now look up as absent.
        durable = _mirror_from_wal(scan_wal(db.wal.device.data).records)
        mirror.clear()
        mirror.update(durable)
        keys[:] = sorted(set(keys) | set(mirror))
        if keys:
            next_rev_id = max(next_rev_id, keys[-1] + 1)
        if sessions:
            # In-flight transactions died with RAM; recovery rolled
            # their durable ops back (the durable fold above nets out
            # ops + compensations), so the fresh oracle restarts from
            # the committed state with no claims outstanding.
            sess[:] = [db.session() for _ in range(sessions)]
            for j in range(sessions):
                sess_state[j] = None
            claims.clear()
            oracle.clear()
            oracle.update({k: [(0, dict(row))] for k, row in mirror.items()})
        restarts_done += 1
        injector.arm(drill_plan)

    crash_ops = frozenset(
        round(n_ops * (j + 1) / (crash_restarts + 1))
        for j in range(crash_restarts if wal else 0)
    )

    sampler = checker = None
    sample_every = 0
    if telemetry_samples > 0:
        # The clock closure re-reads ``db``: a crash restart swaps in a
        # fresh database (and cost model); the clock jumping backwards
        # produces one degenerate window — no rates — and recovers.
        sampler = TelemetrySampler(
            metrics,
            clock=lambda: db.cost_model.now_ns,
            capacity=max(telemetry_samples + 1, 16),
        )
        checker = HealthChecker(sampler, DEFAULT_SLO_RULES)
        sampler.sample()
        sample_every = max(1, n_ops // telemetry_samples)

    # -- session-mode op engine ------------------------------------------------

    def oracle_visible(key: int, st: dict):
        """The row ``st``'s snapshot must see (own writes overlay the
        newest committed version at or below the begin CSN)."""
        if key in st["writes"]:
            return st["writes"][key]
        chain = oracle.get(key)
        if chain is None:
            return None
        value = None
        for csn, row in chain:
            if csn <= st["begin"]:
                value = row
        return value

    def expect_conflict(key: int, i: int, st: dict) -> bool:
        holder = claims.get(key)
        if holder is not None and holder != i:
            return True
        chain = oracle.get(key)
        return bool(chain) and chain[-1][0] > st["begin"]

    def drop_txn(i: int) -> None:
        for k in [k for k, owner in claims.items() if owner == i]:
            del claims[k]
        sess_state[i] = None

    def end_txn(i: int, commit: bool) -> None:
        st = sess_state[i]
        if commit:
            csn = db.recovery.call(sess[i].commit)
            for k, row in st["writes"].items():
                oracle.setdefault(k, [(0, None)]).append(
                    (csn, dict(row) if row is not None else None)
                )
        else:
            db.recovery.call(sess[i].abort)
        drop_txn(i)

    def check_session_result(result, expected) -> int:
        if expected is None:
            return 0 if not result.found else 1
        if not result.found:
            return 1
        want = {name: expected[name] for name in PROJECTION}
        return 0 if result.values == want else 1

    def session_op() -> int:
        """One interleaved step of a randomly chosen session; returns
        the number of wrong results observed."""
        nonlocal next_rev_id
        i = rng.randrange(sessions)
        st = sess_state[i]
        if st is None:
            begin = db.recovery.call(sess[i].begin)
            st = sess_state[i] = {
                "begin": begin, "writes": {}, "left": rng.randint(1, 4),
            }
        bad = 0
        draw = rng.random()
        key = keys[rng.randrange(len(keys))]
        if draw < 0.50:
            result = db.recovery.call(sess[i].lookup, "revision", key, PROJECTION)
            bad += check_session_result(result, oracle_visible(key, st))
        elif draw < 0.72:
            predicted = expect_conflict(key, i, st)
            new_len = rng.randint(100, 200_000)
            try:
                applied = db.recovery.call(
                    sess[i].update, "revision", key, {"rev_len": new_len}
                )
            except TxnConflictError:
                if not predicted:
                    bad += 1
                drop_txn(i)
                return bad
            if predicted:
                bad += 1  # the engine missed a conflict the oracle saw
            visible = oracle_visible(key, st)
            if applied != (visible is not None):
                bad += 1
            if applied:
                row = dict(visible)
                row["rev_len"] = new_len
                st["writes"][key] = row
                claims[key] = i
                result = db.recovery.call(
                    sess[i].lookup, "revision", key, PROJECTION
                )
                bad += check_session_result(result, row)
        elif draw < 0.88:
            row = dict(template)
            row["rev_id"] = next_rev_id
            row["rev_text_id"] = next_rev_id
            row["rev_len"] = rng.randint(100, 200_000)
            db.recovery.call(sess[i].insert, "revision", row)
            st["writes"][next_rev_id] = row
            claims[next_rev_id] = i
            keys.append(next_rev_id)
            next_rev_id += 1
        else:
            predicted = expect_conflict(key, i, st)
            try:
                applied = db.recovery.call(sess[i].delete, "revision", key)
            except TxnConflictError:
                if not predicted:
                    bad += 1
                drop_txn(i)
                return bad
            if predicted:
                bad += 1
            visible = oracle_visible(key, st)
            if applied != (visible is not None):
                bad += 1
            if applied:
                st["writes"][key] = None
                claims[key] = i
        st["left"] -= 1
        if st["left"] <= 0:
            end_txn(i, commit=rng.random() >= 0.10)
        return bad

    for op_i in range(n_ops):
        if op_i in crash_ops:
            restart()
        if sampler is not None and op_i and op_i % sample_every == 0:
            sampler.sample()
        if wal and checkpoint_every and op_i and op_i % checkpoint_every == 0:
            db.checkpoint()
        if sessions:
            wrong += session_op()
            continue
        draw = rng.random()
        key = keys[rng.randrange(len(keys))]
        if draw < 0.15:
            # The batched read fast path under fire: a small multi-key
            # probe (duplicates allowed) must agree with the mirror on
            # every position, exactly like the scalar path.
            batch = [key] + [
                keys[rng.randrange(len(keys))]
                for _ in range(rng.randint(1, 5))
            ]
            wrong += verify_lookup_many(batch)
        elif draw < 0.70:
            wrong += verify_lookup(key)
        elif draw < 0.85:
            if key in mirror:
                new_len = rng.randint(100, 200_000)
                applied = db.recovery.call(
                    table.update, "rev_pk", key, {"rev_len": new_len}
                )
                if applied:
                    mirror[key]["rev_len"] = new_len
                else:
                    wrong += 1
                wrong += verify_lookup(key)
            else:
                wrong += verify_lookup(key)
        elif draw < 0.95:
            row = dict(template)
            row["rev_id"] = next_rev_id
            row["rev_text_id"] = next_rev_id
            row["rev_len"] = rng.randint(100, 200_000)
            db.recovery.call(table.insert, row)
            mirror[next_rev_id] = row
            keys.append(next_rev_id)
            next_rev_id += 1
        else:
            if key in mirror:
                applied = db.recovery.call(table.delete, "rev_pk", key)
                if applied:
                    del mirror[key]
                else:
                    wrong += 1
            wrong += verify_lookup(key)

    injector.disarm()

    if sessions:
        # Quiesce: commit every open transaction (commits never
        # re-validate, so these cannot conflict), then collapse the
        # versioned oracle to its newest committed rows — with no
        # transactions in flight, that is exactly what autocommit
        # lookups must see in the sweep below.
        for i in range(sessions):
            if sess_state[i] is not None:
                end_txn(i, commit=True)
        mirror.clear()
        for k, chain in oracle.items():
            row = chain[-1][1]
            if row is not None:
                mirror[k] = row

    # Final sweep: every surviving row must read back exactly right, and
    # every deleted key must stay gone.
    digest = hashlib.sha256()
    for key in sorted(set(keys)):
        wrong += verify_lookup(key)
        expected = mirror.get(key)
        digest.update(repr((key, expected and expected["rev_len"])).encode())
    for fault in injector.log:
        digest.update(
            repr((fault.seq, fault.kind.value, fault.page_id, fault.bit,
                  fault.tear_at)).encode()
        )

    if wal:
        # Cached lookups can answer without the heap, so a heap page
        # corrupted at rest may still be undetected; a full scan through
        # a wide-budget healer redo-recovers any stragglers before the
        # invariant walk (which reports, rather than heals, corruption).
        sweeper = RecoveryManager(db, max_heals=256, registry=metrics)
        sweeper.call(lambda: sum(1 for _ in table.scan()))

    health_report = None
    if sampler is not None:
        sampler.sample()
        health_report = checker.evaluate()

    check = db.check()
    snapshot = metrics.snapshot()
    txn_stats = snapshot.get("txn", {})
    faults = snapshot.get("faults", {})
    recovery = snapshot.get("recovery", {})
    wal_stats = snapshot.get("wal", {})
    replay_stats = wal_stats.get("replay", {})
    # Everything in the report is bit-for-bit reproducible; replay wall
    # time is the one wall-clock instrument, so it stays out.
    replay_stats.pop("ns", None)
    return DrillReport(
        seed=seed,
        operations=n_ops,
        wrong_results=wrong,
        faults_injected=injector.injected,
        faults_detected=faults.get("detected", 0),
        faults_recovered=faults.get("recovered", 0),
        faults_unrecoverable=faults.get("unrecoverable", 0),
        retries=faults.get("retries", 0),
        index_rebuilds=recovery.get("index_rebuilds", 0),
        quarantined_pages=quarantined_total + len(
            db.data_pool.quarantined_pages | db.index_pool.quarantined_pages
        ),
        check_ok=check.ok,
        check_problems=list(check.problems),
        digest=digest.hexdigest(),
        metrics=snapshot,
        heap_page_rebuilds=recovery.get("heap_page_rebuilds", 0)
        + replay_stats.get("page_rebuilds", 0),
        crash_restarts=restarts_done,
        wal_records=wal_stats.get("records", 0),
        telemetry_points=sampler.samples_taken if sampler is not None else 0,
        health_ok=health_report.ok if health_report is not None else True,
        health=health_report.as_dict() if health_report is not None else {},
        tuning_actions=sum(c.actions_taken for c in controllers),
        sessions=sessions,
        txn_commits=txn_stats.get("commits", 0),
        txn_aborts=txn_stats.get("aborts", 0),
        txn_conflicts=txn_stats.get("conflicts", 0),
    )


def _run_sharded_drill(
    *,
    seed: int,
    n_pages: int,
    revisions_per_page: int,
    n_ops: int,
    pool_pages: int,
    wal: bool,
    checkpoint_every: int,
    shards: int,
) -> DrillReport:
    """The autocommit drill over a :class:`~repro.shard.ShardedDatabase`.

    Each shard gets its own injector (seeded ``seed + i``) armed with the
    standard mix aimed at *that shard's* index and heap pages; every
    operation routes through the facade, whose per-call recovery managers
    heal exactly like the classic drill's.  At one third and two thirds
    of the op budget the drill fires :meth:`rebalance` — hot keys migrate
    between shards while faults fly, and every subsequent read is still
    verified against the mirror, so a migration that lost or duplicated a
    tuple would surface as a wrong result or a failed cross-shard
    ownership check.  Telemetry sampling and crash restarts stay off
    (restart coverage for sharding is the crash-matrix test); the digest
    folds the final sweep plus all shards' injector logs in shard order.
    """
    from repro.shard.database import ShardedDatabase  # late: avoids cycle

    metrics = MetricsRegistry()
    shard_regs = [MetricsRegistry() for _ in range(shards)]
    injectors = [
        FaultInjector(seed=seed + i, registry=shard_regs[i])
        for i in range(shards)
    ]
    # Split the drill's RAM budget across the shards (rounded up, floor
    # of 4 frames) — otherwise N shards quietly get N× the classic
    # drill's memory, every partition fits, and no I/O ever reaches the
    # faulty disks, which would turn the drill into a no-op.
    per_shard_pool = max(4, -(-pool_pages // shards))
    sdb = ShardedDatabase(
        shards,
        mode="zipf",
        data_pool_pages=per_shard_pool,
        seed=seed,
        metrics=metrics,
        shard_metrics=shard_regs,
        fault_injectors=injectors,
        retry_policy=RetryPolicy(corrupt_rereads=3),
        wal=bool(wal),
        recovery=True,
    )
    # §5j: the sharded drill always runs observed — cross-shard traces,
    # the causal event journal, and fleet rollups all read clocks and
    # registries without advancing them, so the drill's digest and every
    # correctness verdict are unchanged by arming them.
    trace = sdb.enable_tracing()
    journal = sdb.enable_events()
    rollup = sdb.enable_rollup()
    table = sdb.create_table("revision", REVISION_SCHEMA)
    sdb.create_cached_index("revision", "rev_pk", ("rev_id",), CACHED_FIELDS)

    data = generate(
        WikipediaConfig(
            n_pages=n_pages, revisions_per_page_mean=revisions_per_page,
            seed=seed,
        )
    )
    mirror: dict[int, dict[str, object]] = {}
    for row in data.revision_rows:
        table.insert(row)
        mirror[row["rev_id"]] = dict(row)

    def make_filters(i: int):
        local = sdb.shard(i).table("revision")

        def is_index_page(page_id: int) -> bool:
            tree = local.index("rev_pk").tree  # re-read: rebuilds swap it
            return page_id in tree._leaf_ids or page_id in tree._internal_ids

        def is_heap_page(page_id: int) -> bool:
            return local.heap.owns_page(page_id)

        return is_index_page, is_heap_page

    for i, injector in enumerate(injectors):
        is_index_page, is_heap_page = make_filters(i)
        injector.arm(
            default_plan(is_index_page, is_heap_page if wal else None)
        )

    rng = DeterministicRng(seed)
    keys = sorted(mirror)
    wrong = 0
    next_rev_id = max(keys) + 1
    template = dict(data.revision_rows[0])
    keys_migrated = 0
    rebalance_ops = frozenset((n_ops // 3, 2 * n_ops // 3))

    def check_result(key: int, result) -> int:
        expected = mirror.get(key)
        if expected is None:
            return 0 if not result.found else 1
        if not result.found:
            return 1
        want = {name: expected[name] for name in PROJECTION}
        return 0 if result.values == want else 1

    def verify_lookup(key: int) -> int:
        return check_result(key, table.lookup("rev_pk", key, PROJECTION))

    for op_i in range(n_ops):
        if op_i and op_i in rebalance_ops:
            keys_migrated += sdb.rebalance().keys_moved
        if wal and checkpoint_every and op_i and op_i % checkpoint_every == 0:
            sdb.checkpoint()
        draw = rng.random()
        key = keys[rng.randrange(len(keys))]
        if draw < 0.15:
            batch = [key] + [
                keys[rng.randrange(len(keys))]
                for _ in range(rng.randint(1, 5))
            ]
            results = table.lookup_many("rev_pk", batch, PROJECTION)
            wrong += sum(check_result(k, r) for k, r in zip(batch, results))
        elif draw < 0.70:
            wrong += verify_lookup(key)
        elif draw < 0.85:
            if key in mirror:
                new_len = rng.randint(100, 200_000)
                applied = table.update("rev_pk", key, {"rev_len": new_len})
                if applied:
                    mirror[key]["rev_len"] = new_len
                else:
                    wrong += 1
                wrong += verify_lookup(key)
            else:
                wrong += verify_lookup(key)
        elif draw < 0.95:
            row = dict(template)
            row["rev_id"] = next_rev_id
            row["rev_text_id"] = next_rev_id
            row["rev_len"] = rng.randint(100, 200_000)
            table.insert(row)
            mirror[next_rev_id] = row
            keys.append(next_rev_id)
            next_rev_id += 1
        else:
            if key in mirror:
                applied = table.delete("rev_pk", key)
                if applied:
                    del mirror[key]
                else:
                    wrong += 1
            wrong += verify_lookup(key)

    for injector in injectors:
        injector.disarm()

    # Final sweep + digest: every surviving row reads back exactly right,
    # every deleted key stays gone, and the fault history of *every*
    # shard is folded in shard order.
    digest = hashlib.sha256()
    for key in sorted(set(keys)):
        wrong += verify_lookup(key)
        expected = mirror.get(key)
        digest.update(repr((key, expected and expected["rev_len"])).encode())
    for injector in injectors:
        for fault in injector.log:
            digest.update(
                repr((fault.seq, fault.kind.value, fault.page_id, fault.bit,
                      fault.tear_at)).encode()
            )

    if wal:
        # Same straggler sweep as the classic drill, once per shard.
        for i in range(shards):
            local = sdb.shard(i).table("revision")
            sweeper = RecoveryManager(
                sdb.shard(i), max_heals=256, registry=shard_regs[i]
            )
            sweeper.journal = journal
            sweeper.journal_shard = i
            sweeper.call(lambda t=local: sum(1 for _ in t.scan()))

    # One traced full-fanout aggregate after the guns go quiet: its span
    # tree must cover every shard (the report's acceptance exhibit).
    table.aggregate([("count", None)])
    rollup.refresh()

    check = sdb.check()
    problems = list(check.problems)
    for i, shard_check in enumerate(check.per_shard):
        problems += [f"shard {i}: {p}" for p in shard_check.problems]
    snapshot = sdb.snapshot()
    faults_detected = faults_recovered = faults_unrecoverable = 0
    retries = index_rebuilds = heap_rebuilds = wal_records = 0
    quarantined = 0
    for i in range(shards):
        shard_snap = snapshot["shard"][str(i)]
        shard_snap.get("wal", {}).get("replay", {}).pop("ns", None)
        faults = shard_snap.get("faults", {})
        faults_detected += faults.get("detected", 0)
        faults_recovered += faults.get("recovered", 0)
        faults_unrecoverable += faults.get("unrecoverable", 0)
        retries += faults.get("retries", 0)
        recovery_stats = shard_snap.get("recovery", {})
        index_rebuilds += recovery_stats.get("index_rebuilds", 0)
        heap_rebuilds += recovery_stats.get("heap_page_rebuilds", 0)
        wal_records += shard_snap.get("wal", {}).get("records", 0)
        db = sdb.shard(i)
        quarantined += len(
            db.data_pool.quarantined_pages | db.index_pool.quarantined_pages
        )
    return DrillReport(
        seed=seed,
        operations=n_ops,
        wrong_results=wrong,
        faults_injected=sum(inj.injected for inj in injectors),
        faults_detected=faults_detected,
        faults_recovered=faults_recovered,
        faults_unrecoverable=faults_unrecoverable,
        retries=retries,
        index_rebuilds=index_rebuilds,
        quarantined_pages=quarantined,
        check_ok=check.ok,
        check_problems=problems,
        digest=digest.hexdigest(),
        metrics=snapshot,
        heap_page_rebuilds=heap_rebuilds,
        crash_restarts=0,
        wal_records=wal_records,
        shards=shards,
        keys_migrated=keys_migrated,
        events=journal.as_dicts(),
        traces=trace.as_dicts(8),
    )
