"""The five workloads: build, warm up, plan calls with expected answers.

A workload plans one *cycle* of calls at a time, before any of them runs:
``(class id, bound method, args, answer kind, expected answer)``.  Class
counts per cycle are exact (a shuffled multiset, not per-call coin
flips), so every cycle carries the same work and the median cycle rate
is a fair throughput figure.  ``--seed`` feeds the generators only; the
engine sees generated inputs.
"""

from __future__ import annotations

import copy
import statistics

from repro.errors import SimulatedCrashError
from repro.experiments.columnar import AGG_SPECS, SCHEMA as HOT_SCHEMA
from repro.query.database import Database
from repro.query.predicates import And, ColumnEq, ColumnRange
from repro.shard.database import ShardedDatabase
from repro.util.rng import DeterministicRng
from repro.wal.log import WalDevice
from repro.wal.record import scan_wal
from repro.wal.replay import recover
from repro.workload.distributions import ZipfianDistribution
from repro.workload.wikipedia import (
    PAGE_ID_BASE,
    PAGE_SCHEMA,
    REVISION_SCHEMA,
    WikipediaConfig,
    generate,
)

from bench import host
from bench.oracle import (
    AGG, ANY, CONFLICT, EQUAL, ROW, ROWS, SCAN, ShapeStats, check_recovered,
)

#: Call classes, for per-class latency percentiles.
CLASSES = (
    "lookup_plain", "lookup_cached", "lookup_many", "insert", "update",
    "delete", "scan_row", "aggregate_row", "col_cold", "col_cached",
    "txn_stmt", "txn_commit", "checkpoint", "rebalance",
)
C = {name: i for i, name in enumerate(CLASSES)}

#: The four fields the paper's popular query class projects (§2.1.4).
PAGE_PROJECT = ("page_id", "page_latest", "page_touched", "page_len")

#: §3.1: 99.9% of revision reads hit the latest revision of their page.
HOT_READ_FRACTION = 0.999

#: The dataset, and which of its items are popular, *are* the workload:
#: both are fixed.  ``--seed`` draws the request stream over them, so two
#: seeds differ by sampling only and exact metrics stay comparable.
DATA_SEED = 0


class Popularity:
    """Zipf over ``items`` with a fixed, scattered hot-to-cold ranking
    (hot items spread over the id space, as §3.1 finds them) and seeded
    draws."""

    def __init__(self, items: list, alpha: float, rng: DeterministicRng):
        self.ranked = list(items)
        DeterministicRng(DATA_SEED).child(len(items)).shuffle(self.ranked)
        self.zipf = ZipfianDistribution(len(items), alpha, rng, scatter=False)

    def sample(self):
        return self.ranked[self.zipf.sample_rank()]

    def shares(self):
        """``(item, probability)`` from hottest to coldest."""
        return [
            (item, self.zipf.access_probability(rank))
            for rank, item in enumerate(self.ranked)
        ]


def exact_mix(rng: DeterministicRng, n: int, weights: dict) -> list:
    """``n`` labels in seeded random order, each label's count exactly
    proportional to its weight (remainder to the heaviest labels)."""
    total = sum(weights.values())
    counts = {label: int(n * w / total) for label, w in weights.items()}
    short = n - sum(counts.values())
    for label in sorted(weights, key=weights.get, reverse=True)[:short]:
        counts[label] += 1
    labels = [label for label, c in counts.items() for _ in range(c)]
    rng.shuffle(labels)
    return labels


def scan_list(table, *args) -> list:
    """A scan is not done until it is consumed: drain inside the clock."""
    return list(table.scan(*args))


class Workload:
    """Common shape; subclasses fill in ``setup`` and ``plan_cycle``."""

    name = ""
    cycle_ops = 0      # planned calls per cycle at scale 1
    exact_cycles = 0   # cycles in the exact (fixed op count) window

    def __init__(self, seed: int, scale: float) -> None:
        self.scale = scale
        self.rng = DeterministicRng(seed).child(0xBE7C)
        self.cycle_len = self.scaled(self.cycle_ops, 45)
        # exact facts only the planner knows (see ``facts``)
        self.examined = 0
        self.returned = 0
        self.writes = 0

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, int(n * self.scale))

    # -- what the runner reads ------------------------------------------------

    def engines(self) -> list[Database]:
        return [self.db]

    def parent_registry(self):
        """Registry holding facade-level counters (sharded only)."""
        return None

    def sim_now_ns(self) -> float:
        return self.db.cost_model.now_ns

    def tables(self) -> list:
        return [
            self.db.table(name) for name in self.db.catalog.table_names
        ]

    def facts(self) -> dict:
        return {"examined": self.examined, "returned": self.returned,
                "writes": self.writes}

    def exact_facts(self) -> dict:
        """Facts that cost the engine work to read; asked for once, at the
        end of the exact window, and only when tracing."""
        return {}

    def finish(self, checker, trace: bool) -> dict:
        """Post-run verification; returns extra raw numbers."""
        return {}

    # -- planning helpers -----------------------------------------------------

    def _note_rows(self, examined: int, returned: int) -> None:
        self.examined += examined
        self.returned += returned


# -- point lookups: fits / thrashes -------------------------------------------


class PointLookups(Workload):
    """Wikipedia page + revision point lookups, 60% plain / 40% cached."""

    cycle_ops = 5_000
    exact_cycles = 8
    MIX = {"revision": 60, "page": 40}

    def __init__(self, seed: int, scale: float, pool_pages: int) -> None:
        super().__init__(seed, scale)
        self.pool_pages = pool_pages

    def setup(self) -> None:
        self.data = data = generate(WikipediaConfig(
            n_pages=self.scaled(3_000, 40), revisions_per_page_mean=4,
            seed=DATA_SEED,
        ))
        self.db = db = Database(data_pool_pages=self.pool_pages)
        page = db.create_table("page", PAGE_SCHEMA)
        db.create_cached_index(
            "page", "name_title", ("page_namespace", "page_title"),
            PAGE_PROJECT,
        )
        db.create_index("page", "page_pk", ("page_id",))
        revision = db.create_table("revision", REVISION_SCHEMA)
        db.create_index("revision", "rev_pk", ("rev_id",))
        for row in data.page_rows:
            page.insert(row)
        for row in data.revision_rows:
            revision.insert(row)
        # The library's *_lookup_trace helpers re-scatter the Zipf ranks
        # on every call, which would move the hot set each cycle; these
        # follow the same distributions over one ranking per run.
        self.model = RevisionModel(
            data, self.rng.child(1), list(range(data.config.n_pages))
        )
        self.pages = Popularity(
            data.page_rows, data.config.read_alpha, self.rng.child(2)
        )
        for _, fn, args, _, _ in self._plan(self.scaled(10_000, 90)):
            fn(*args)

    def plan_cycle(self) -> list:
        return self._plan(self.cycle_len)

    def _plan(self, n: int) -> list:
        revision = self.db.table("revision")
        page = self.db.table("page")
        ops = []
        for label in exact_mix(self.rng, n, self.MIX):
            if label == "revision":
                key = self.model.read_key()
                ops.append((C["lookup_plain"], revision.lookup,
                            ("rev_pk", key), ROW, self.model.rows[key]))
            else:
                row = self.pages.sample()
                ops.append((C["lookup_cached"], page.lookup,
                            ("name_title",
                             (row["page_namespace"], row["page_title"]),
                             PAGE_PROJECT),
                            ROW, {c: row[c] for c in PAGE_PROJECT}))
        self._note_rows(n, n)
        return ops


class PointFit(PointLookups):
    name = "point_fit"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale, pool_pages=1024)


class PointThrash(PointLookups):
    name = "point_thrash"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale, pool_pages=max(4, int(64 * scale)))


# -- the revision edit stream (shared by oltp_wal and shard_fleet) -------------


class RevisionModel:
    """Dict model of the revision table as an ongoing edit stream."""

    def __init__(self, data, rng: DeterministicRng, pages: list[int]) -> None:
        self.rng = rng
        self.rows = {r["rev_id"]: r for r in data.revision_rows}
        self.latest = dict(data.latest_rev_by_page)
        self.pages = Popularity(pages, data.config.read_alpha, rng.child(1))
        mine = set(pages)
        hot = set(self.latest.values())
        #: non-latest revisions of ``pages``: history reads, delete victims
        self.old = [
            rid for rid, row in self.rows.items()
            if row["rev_page"] - PAGE_ID_BASE in mine and rid not in hot
        ]
        last = data.revision_rows[-1]
        self.next_rev_id = last["rev_id"] + 1
        self.next_timestamp = last["rev_timestamp"] + 60
        self.sum_id = sum(self.rows)
        self.sum_len = sum(r["rev_len"] for r in self.rows.values())

    def hot_key(self) -> int:
        return self.latest[self.pages.sample()]

    def read_key(self) -> int:
        if self.old and self.rng.random() >= HOT_READ_FRACTION:
            return self.rng.choice(self.old)
        return self.hot_key()

    def changes(self) -> dict:
        return {"rev_len": self.rng.randint(100, 200_000),
                "rev_minor_edit": self.rng.randrange(2)}

    def apply_update(self, key: int, changes: dict) -> dict:
        old = self.rows[key]
        row = {**old, **changes}
        self.sum_len += row["rev_len"] - old["rev_len"]
        self.rows[key] = row
        return row

    def plan_insert(self) -> dict:
        page = self.pages.sample()
        rev_id = self.next_rev_id
        self.next_rev_id += 1
        self.next_timestamp += 60
        row = {
            "rev_id": rev_id,
            "rev_page": PAGE_ID_BASE + page,
            "rev_text_id": rev_id,
            "rev_user": self.rng.randrange(12_000_000),
            "rev_timestamp": self.next_timestamp,
            "rev_minor_edit": self.rng.randrange(2),
            "rev_len": self.rng.randint(100, 200_000),
            "rev_comment": f"/* sec {self.rng.randrange(40)} */ edit r{rev_id}",
        }
        self.old.append(self.latest[page])
        self.latest[page] = rev_id
        self.rows[rev_id] = row
        self.sum_id += rev_id
        self.sum_len += row["rev_len"]
        return row

    def plan_delete(self) -> int | None:
        """Swap-remove a random history revision; None when none is left."""
        if not self.old:
            return None
        i = self.rng.randrange(len(self.old))
        self.old[i], self.old[-1] = self.old[-1], self.old[i]
        key = self.old.pop()
        row = self.rows.pop(key)
        self.sum_id -= key
        self.sum_len -= row["rev_len"]
        return key


# -- oltp_wal ------------------------------------------------------------------


class _SessionPlan:
    """Where one session stands in its begin/3x update/lookup/commit script."""

    def __init__(self, session) -> None:
        self.session = session
        self.step = 0
        self.begin_csn = 0
        self.writes: dict[int, dict] = {}


class OltpWal(Workload):
    """Autocommit edits + 4 interleaved MVCC sessions over one WAL."""

    name = "oltp_wal"
    cycle_ops = 5_000
    exact_cycles = 6
    MIX = {"update": 35, "insert": 15, "delete": 3, "lookup": 27, "session": 20}
    N_SESSIONS = 4
    GROUP_COMMIT = 8

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.pool_pages = max(16, int(256 * scale))
        self.session_stmts = 0
        self.conflicts = 0

    def setup(self) -> None:
        data = generate(WikipediaConfig(
            n_pages=self.scaled(3_000, 40), revisions_per_page_mean=4,
            seed=DATA_SEED,
        ))
        self.db = db = Database(
            wal=True, wal_group_commit=self.GROUP_COMMIT,
            data_pool_pages=self.pool_pages,
        )
        self.table = table = db.create_table("revision", REVISION_SCHEMA)
        db.create_index("revision", "rev_pk", ("rev_id",))
        for row in data.revision_rows:
            table.insert(row)
        # Autocommit statements bypass the version store, so they and the
        # sessions work disjoint page sets: every 4th page is the sessions'.
        n_pages = data.config.n_pages
        self.auto = RevisionModel(
            data, self.rng.child(1), [p for p in range(n_pages) if p % 4]
        )
        self.txn = RevisionModel(
            data, self.rng.child(2), [p for p in range(n_pages) if p % 4 == 0]
        )
        self.txn.rows = self.auto.rows  # one committed view
        self.sessions = [
            _SessionPlan(db.session()) for _ in range(self.N_SESSIONS)
        ]
        # the oracle's copy of first-writer-wins state
        self.csn = 0
        self.pending: dict[int, _SessionPlan] = {}
        self.last_commit: dict[int, int] = {}
        self.last_effect = None

    def facts(self) -> dict:
        return {**super().facts(), "session_stmts": self.session_stmts,
                "conflicts": self.conflicts}

    def plan_cycle(self) -> list:
        ops = [
            getattr(self, "_plan_" + label)()
            for label in exact_mix(self.rng, self.cycle_len, self.MIX)
        ]
        ops.append((C["checkpoint"], self.db.checkpoint, (), ANY, None))
        return ops

    # autocommit statements

    def _plan_update(self) -> tuple:
        key = self.auto.hot_key()
        changes = self.auto.changes()
        self.last_effect = (key, self.auto.apply_update(key, changes))
        self.writes += 1
        return (C["update"], self.table.update, ("rev_pk", key, changes),
                EQUAL, True)

    def _plan_insert(self) -> tuple:
        row = self.auto.plan_insert()
        self.last_effect = (row["rev_id"], row)
        self.writes += 1
        return (C["insert"], self.table.insert, (row,), ANY, None)

    def _plan_delete(self) -> tuple:
        key = self.auto.plan_delete()
        if key is None:
            return self._plan_update()
        self.last_effect = (key, None)
        self.writes += 1
        return (C["delete"], self.table.delete, ("rev_pk", key), EQUAL, True)

    def _plan_lookup(self) -> tuple:
        key = self.auto.read_key()
        self._note_rows(1, 1)
        return (C["lookup_plain"], self.table.lookup, ("rev_pk", key), ROW,
                self.auto.rows[key])

    # session statements: the planner replays first-writer-wins itself, so
    # a conflict is an *expected* answer, counted and retried, not a failure

    def _plan_session(self) -> tuple:
        plan = self.sessions[self.rng.randrange(self.N_SESSIONS)]
        session = plan.session
        self.session_stmts += 1
        if plan.step == 0:
            plan.step = 1
            plan.begin_csn = self.csn
            return (C["txn_stmt"], session.begin, (), EQUAL, self.csn)
        if plan.step <= 3:
            key = self.txn.hot_key()
            changes = self.txn.changes()
            holder = self.pending.get(key)
            if key not in plan.writes and (
                (holder is not None and holder is not plan)
                or self.last_commit.get(key, 0) > plan.begin_csn
            ):
                self.conflicts += 1
                self._release(plan)
                expected = CONFLICT
            else:
                base = plan.writes.get(key) or self.txn.rows[key]
                plan.writes[key] = {**base, **changes}
                self.pending[key] = plan
                plan.step += 1
                self.writes += 1
                expected = True
            return (C["txn_stmt"], session.update,
                    ("revision", key, changes), EQUAL, expected)
        if plan.step == 4:
            plan.step = 5
            key = self.rng.choice(sorted(plan.writes))
            self._note_rows(1, 1)
            return (C["txn_stmt"], session.lookup, ("revision", key), ROW,
                    plan.writes[key])
        self.csn += 1
        for key, row in plan.writes.items():
            self.txn.rows[key] = row
            self.last_commit[key] = self.csn
        self._release(plan)
        return (C["txn_commit"], session.commit, (), EQUAL, self.csn)

    def _release(self, plan: _SessionPlan) -> None:
        for key in plan.writes:
            if self.pending.get(key) is plan:
                del self.pending[key]
        plan.writes = {}
        plan.step = 0

    # durability: flush, power-cut the log at a seeded byte, recover

    def finish(self, checker, trace: bool) -> dict:
        """Every statement acknowledged at or below the flushed LSN, and
        every committed transaction, must be readable after recovery from
        the durable bytes alone; open transactions must be rolled back."""
        wal = self.db.wal
        wal.flush()
        base = dict(self.auto.rows)
        wal.device.crash_after(wal.device.size + self.rng.randint(64, 4096))
        tail = []
        try:
            for label in exact_mix(
                self.rng, 4096, {"update": 35, "insert": 15, "delete": 3}
            ):
                _, fn, args, _, _ = getattr(self, "_plan_" + label)()
                fn(*args)
                tail.append((wal.next_lsn - 1, self.last_effect))
        except SimulatedCrashError:
            pass
        else:
            raise RuntimeError("the armed power cut never fired")
        log_image = wal.device.data
        times = []
        scanned = 0
        for repeat in range(5 if trace else 1):
            disk = copy.deepcopy(self.db.disk)
            device = WalDevice(initial=log_image)
            (recovered, report), took = host.timed(
                recover, device, disk=disk, data_pool_pages=self.pool_pages,
                group_commit_records=self.GROUP_COMMIT,
            )
            times.append(took)
            if repeat:
                continue
            scanned = report.records_scanned
            expected = base
            for lsn, (key, row) in tail:
                if lsn not in report.lsns:
                    continue
                if row is None:
                    expected.pop(key, None)
                else:
                    expected[key] = row
            check_recovered(
                checker, expected, recovered.table("revision"),
                scan_wal(device.data).records, "rev_id",
            )
        return {"recover_s": statistics.median(times) / 1e9,
                "replay_records": scanned}


# -- analytic_columnar -----------------------------------------------------------

#: The 8 predicate shapes of ``experiments.columnar``, each with the
#: oracle's own plain-Python reading of it.
SHAPES = (
    (ColumnRange("n", 0, 120), lambda r: 0 <= r["n"] < 120),
    (ColumnRange("n", 250, 499), lambda r: 250 <= r["n"] < 499),
    (ColumnEq("cat", "c2"), lambda r: r["cat"] == "c2"),
    (And((ColumnRange("n", 100, 400), ColumnEq("flag", False))),
     lambda r: 100 <= r["n"] < 400 and not r["flag"]),
    (ColumnEq("flag", True), lambda r: r["flag"]),
    (ColumnRange("d", -50, 50), lambda r: -50 <= r["d"] < 50),
    (And((ColumnEq("cat", "c1"), ColumnRange("d", 0, 200))),
     lambda r: r["cat"] == "c1" and 0 <= r["d"] < 200),
    (ColumnRange("n", 60, 70), lambda r: 60 <= r["n"] < 70),
)


class AnalyticColumnar(Workload):
    """Zipf-repeated scans/aggregates on the mirror, one write per 8."""

    name = "analytic_columnar"
    cycle_ops = 450
    exact_cycles = 4
    BLOCK = 9  # 8 queries then 1 write

    def setup(self) -> None:
        n_rows = self.scaled(12_000, 300)
        self.db = db = Database(wal=False)
        self.table = table = db.create_table("hot", HOT_SCHEMA)
        db.create_index("hot", "pk", ("id",))
        rng = DeterministicRng(DATA_SEED)
        self.rows = {i: self._row(i, rng, n=(i * 13) % 500)
                     for i in range(n_rows)}
        for row in self.rows.values():
            table.insert(row)
        self.next_id = n_rows
        self.live = list(self.rows)
        self.manager = db.enable_columnar()
        self.shapes = [ShapeStats(matches) for _, matches in SHAPES]
        for row in self.rows.values():
            for stats in self.shapes:
                stats.add(row)
        for predicate, _ in SHAPES:
            if scan_list(table, predicate) != scan_list(
                table, predicate, None, False
            ) or table.aggregate(AGG_SPECS, predicate) != table.aggregate(
                AGG_SPECS, predicate, False
            ):
                raise RuntimeError(f"columnar != row executor on {predicate}")
        # shape popularity is Zipf(1.2) in the order listed, dealt exactly
        zipf = ZipfianDistribution(len(SHAPES), 1.2, self.rng, scatter=False)
        self.shape_weights = {
            shape: zipf.access_probability(shape)
            for shape in range(len(SHAPES))
        }
        self.scan_next = True
        self.fresh: set = set()  # (verb, shape) answered since the last write

    @staticmethod
    def _row(i: int, rng: DeterministicRng, n: int) -> dict:
        return {"id": i, "cat": f"c{i % 6}", "n": n,
                "d": rng.randint(-200, 200), "flag": i % 4 == 0}

    def plan_cycle(self) -> list:
        n_writes = self.cycle_len // self.BLOCK
        shapes = iter(exact_mix(
            self.rng, self.cycle_len - n_writes, self.shape_weights
        ))
        ops = []
        for i in range(self.cycle_len):
            if i % self.BLOCK == self.BLOCK - 1 and i < n_writes * self.BLOCK:
                ops.append(self._plan_write())
            else:
                ops.append(self._plan_query(next(shapes)))
        return ops

    def _plan_query(self, shape: int) -> tuple:
        predicate = SHAPES[shape][0]
        stats = self.shapes[shape]
        scan = self.scan_next
        self.scan_next = not scan
        cls = C["col_cached" if (scan, shape) in self.fresh else "col_cold"]
        self.fresh.add((scan, shape))
        self._note_rows(len(self.live), stats.count if scan else 1)
        if scan:
            return (cls, scan_list, (self.table, predicate, ("id", "n")),
                    SCAN, stats.scan_answer())
        return (cls, self.table.aggregate, (AGG_SPECS, predicate), AGG,
                stats.aggregate_answer())

    def _plan_write(self) -> tuple:
        """80% update, 10% insert, 10% delete — drawn per write, not dealt
        exactly, so the live row count (and with it space_amp and the
        simulated clock) follows the seed."""
        self.fresh.clear()
        self.writes += 1
        draw = self.rng.random()
        if draw < 0.8:
            key = self.rng.choice(self.live)
            changes = {"n": self.rng.randrange(500),
                       "d": self.rng.randint(-200, 200)}
            self._replace(key, {**self.rows[key], **changes})
            return (C["update"], self.table.update, ("pk", key, changes),
                    EQUAL, True)
        if draw < 0.9:
            key = self.next_id
            self.next_id += 1
            row = self._row(key, self.rng, n=self.rng.randrange(500))
            self._replace(key, row)
            self.live.append(key)
            return (C["insert"], self.table.insert, (row,), ANY, None)
        i = self.rng.randrange(len(self.live))
        self.live[i], self.live[-1] = self.live[-1], self.live[i]
        key = self.live.pop()
        self._replace(key, None)
        return (C["delete"], self.table.delete, ("pk", key), EQUAL, True)

    def _replace(self, key: int, row: dict | None) -> None:
        old = self.rows.pop(key, None)
        for stats in self.shapes:
            if old is not None:
                stats.add(old, -1)
            if row is not None:
                stats.add(row)
        if row is not None:
            self.rows[key] = row

    def exact_facts(self) -> dict:
        encoded, _raw = self.manager.refresh_encoding_stats()
        return {"encoded_bytes_per_row": encoded / len(self.live)}


# -- shard_fleet ----------------------------------------------------------------


class ShardFleet(Workload):
    """4 WAL-backed shards: routed point calls, scatter-gather, rebalance."""

    name = "shard_fleet"
    cycle_ops = 2_500
    exact_cycles = 4
    N_SHARDS = 4
    BATCH = 8
    MIX = {"lookup": 50, "lookup_many": 20, "update": 18, "insert": 12}
    SCAN_PROJECT = ("rev_id", "rev_len")
    AGG = [("count", None), ("sum", "rev_len"), ("max", "rev_id")]
    REBALANCE_EVERY = 4  # cycles; the first lands inside the exact window

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.cycle_index = 0
        self.straggler_ratios: list[float] = []

    def setup(self) -> None:
        data = generate(WikipediaConfig(
            n_pages=self.scaled(3_000, 40), revisions_per_page_mean=4,
            seed=DATA_SEED,
        ))
        self.sdb = sdb = ShardedDatabase(
            self.N_SHARDS, mode="zipf", wal=True,
            data_pool_pages=max(8, int(64 * self.scale)),
        )
        self.table = table = sdb.create_table("revision", REVISION_SCHEMA)
        sdb.create_index("revision", "rev_pk", ("rev_id",))
        for row in data.revision_rows:
            table.insert(row)
        self.model = RevisionModel(
            data, self.rng.child(1), list(range(data.config.n_pages))
        )
        for _ in range(self.scaled(4_000, 60)):
            table.lookup("rev_pk", self.model.read_key())
        sdb.rebalance()

    def engines(self) -> list[Database]:
        return self.sdb.shards

    def parent_registry(self):
        return self.sdb.metrics

    def sim_now_ns(self) -> float:
        return self.sdb.sim_now_ns

    def tables(self) -> list:
        return [db.table("revision") for db in self.sdb.shards]

    def plan_cycle(self) -> list:
        n = self.cycle_len
        mix = exact_mix(self.rng, n - 2, self.MIX)
        ops = []
        for i, label in enumerate(mix):
            # the two heavy calls sit a quarter and three quarters in
            if i == n // 4:
                ops.append(self._plan_scan())
            if i == 3 * n // 4:
                ops.append(self._plan_aggregate())
            if i == n // 2 and (
                self.cycle_index % self.REBALANCE_EVERY == 1
            ):
                ops.append((C["rebalance"], self.sdb.rebalance, (), ANY, None))
            ops.append(getattr(self, "_plan_" + label)())
        self.cycle_index += 1
        return ops

    def _plan_lookup(self) -> tuple:
        key = self.model.read_key()
        self._note_rows(1, 1)
        return (C["lookup_plain"], self.table.lookup, ("rev_pk", key), ROW,
                self.model.rows[key])

    def _plan_lookup_many(self) -> tuple:
        keys = [self.model.read_key() for _ in range(self.BATCH)]
        self._note_rows(self.BATCH, self.BATCH)
        return (C["lookup_many"], self.table.lookup_many, ("rev_pk", keys),
                ROWS, [self.model.rows[k] for k in keys])

    def _plan_update(self) -> tuple:
        key = self.model.hot_key()
        changes = self.model.changes()
        self.model.apply_update(key, changes)
        self.writes += 1
        return (C["update"], self.table.update, ("rev_pk", key, changes),
                EQUAL, True)

    def _plan_insert(self) -> tuple:
        self.writes += 1
        return (C["insert"], self.table.insert, (self.model.plan_insert(),),
                ANY, None)

    def _plan_scan(self) -> tuple:
        model = self.model
        self._note_rows(len(model.rows), len(model.rows))
        return (C["scan_row"], self._scatter,
                (scan_list, self.table, None, self.SCAN_PROJECT), SCAN,
                (self.SCAN_PROJECT,
                 (len(model.rows), model.sum_id, model.sum_len)))

    def _plan_aggregate(self) -> tuple:
        model = self.model
        self._note_rows(len(model.rows), 1)
        return (C["aggregate_row"], self._scatter,
                (self.table.aggregate, self.AGG), AGG,
                {"count": len(model.rows), "sum(rev_len)": model.sum_len,
                 "max(rev_id)": model.next_rev_id - 1})

    def _scatter(self, fn, *args):
        """Run one scatter-gather call, noting how unevenly the shards'
        simulated clocks advanced (the slowest shard sets the time)."""
        clocks = [db.cost_model for db in self.sdb.shards]
        before = [c.now_ns for c in clocks]
        answer = fn(*args)
        deltas = [c.now_ns - b for c, b in zip(clocks, before)]
        mean = sum(deltas) / len(deltas)
        if mean:
            self.straggler_ratios.append(max(deltas) / mean)
        return answer

    def exact_facts(self) -> dict:
        """Share of hot-key reads each shard would serve right now (pure
        router metadata), and the mean straggler ratio so far."""
        shares = [0.0] * self.N_SHARDS
        for page, probability in self.model.pages.shares():
            key = self.model.latest[page]
            shares[self.sdb.router.placement(key)] += probability
        return {"max_hot_share": max(shares),
                "straggler_ratio": statistics.fmean(self.straggler_ratios)}


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (PointFit, PointThrash, OltpWal, AnalyticColumnar, ShardFleet)
}
