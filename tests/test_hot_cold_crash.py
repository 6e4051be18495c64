"""A hot/cold pair in the crash-point matrix.

A seeded workload of inserts, demotes and promotes runs once through a
:class:`HotColdPartitionedTable` over two tables of a WAL-armed
database.  Its log is cut at every frame boundary and each prefix is
recovered onto a blank disk.  Wherever the prefix holds both tables and
their indexes, a layout rebuilt over the recovered tables must resolve
every surviving key to its row — a cut between a move's insert and its
delete leaves the row on both sides, where the hot-first lookup reads
it — each table must equal the fold of its durable records, and the
invariant walker must pass.
"""

from __future__ import annotations

import pytest

from repro.core.hot_cold.partitioner import HotColdPartitionedTable
from repro.faults.checker import check_database
from repro.query.database import Database
from repro.schema.record import unpack_record_map
from repro.schema.schema import Schema
from repro.schema.types import UINT32, char
from repro.util.rng import DeterministicRng
from repro.wal.record import (
    HEAP_OP_TYPES,
    RecordType,
    frame_boundaries,
    scan_wal,
)
from repro.wal.replay import recover

SCHEMA = Schema.of(("id", UINT32), ("pad", char(8)))
PAGE_SIZE = 512
POOL_PAGES = 8
SEED = 20261018
SIDES = ("hot", "cold")


def row(i: int) -> dict[str, object]:
    return {"id": i, "pad": f"p{i:05d}"}


def layout_over(db: Database) -> HotColdPartitionedTable:
    return HotColdPartitionedTable(db.table("hot"), db.table("cold"))


def build_workload_log() -> tuple[bytes, dict[str, int]]:
    """Run the workload; return the flushed log and the moves by source."""
    db = Database(
        seed=SEED, wal=True, wal_group_commit=4,
        page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES,
    )
    for side in SIDES:
        db.create_table(side, SCHEMA, append_only=True)
        db.create_index(side, f"{side}_pk", ("id",))
    layout = layout_over(db)
    rng = DeterministicRng(SEED)
    hot: list[int] = []
    cold: list[int] = []
    for i in range(40):
        placed = hot if rng.random() < 0.5 else cold
        layout.insert(row(i), hot=placed is hot)
        placed.append(i)
        if i % 2:  # a move after every second insert, either way
            if hot and (not cold or rng.random() < 0.5):
                key = hot.pop(rng.randrange(len(hot)))
                assert layout.demote(key)
                cold.append(key)
            else:
                key = cold.pop(rng.randrange(len(cold)))
                assert layout.promote(key)
                hot.append(key)
    db.wal.flush()
    return db.wal.device.data, {"hot": layout.demotions, "cold": layout.promotions}


def durable_rows(log_bytes: bytes) -> dict[str, dict[int, dict[str, object]]]:
    """Fold the durable heap records into ``table -> id -> row``."""
    by_rid: dict[tuple[str, int, int], bytes] = {}
    for rec in scan_wal(log_bytes).records:
        if rec.rtype not in HEAP_OP_TYPES:
            continue
        rid = (rec.table, rec.page_id, rec.slot)
        if rec.rtype is RecordType.DELETE:
            by_rid.pop(rid, None)
        else:
            by_rid[rid] = rec.payload
    rows: dict[str, dict[int, dict[str, object]]] = {s: {} for s in SIDES}
    for (table, _, _), payload in by_rid.items():
        got = unpack_record_map(SCHEMA, payload)
        rows[table][got["id"]] = got
    return rows


@pytest.fixture(scope="module")
def workload():
    return build_workload_log()


def test_one_marker_per_move(workload):
    log, moves = workload
    labels = [
        r.table for r in scan_wal(log).records
        if r.rtype is RecordType.HOT_COLD_MOVE
    ]
    assert sum(moves.values()) == len(labels) == 20
    assert {side: labels.count(side) for side in SIDES} == moves


def test_every_cut_resolves_every_surviving_key(workload):
    log, _ = workload
    boundaries = frame_boundaries(log)
    assert len(boundaries) == 4 + 40 + 3 * 20  # DDL, inserts, moves
    recoverable = straddling = 0
    for cut in boundaries:
        prefix = log[:cut]
        db, report = recover(
            prefix, page_size=PAGE_SIZE, data_pool_pages=POOL_PAGES, seed=SEED,
        )
        assert not report.torn_tail
        tables = set(db.catalog.table_names)
        if tables != set(SIDES) or not all(
            db.table(side).index_names for side in SIDES
        ):
            continue  # cut inside the DDL: there is no pair to rebuild yet
        recoverable += 1
        expected = durable_rows(prefix)
        for side in SIDES:
            got = {r["id"]: r for r in db.table(side).scan()}
            assert got == expected[side], (cut, side)
        layout = layout_over(db)
        for key, want in {**expected["cold"], **expected["hot"]}.items():
            assert layout.lookup(key) == want, (cut, key)
        straddling += bool(expected["hot"].keys() & expected["cold"].keys())
        check = check_database(db)
        assert check.ok, (cut, check.problems)
    assert recoverable == len(boundaries) - 3  # all but the first 3 DDL cuts
    assert straddling > 0  # some cut lands between a move's two halves
