"""Trace replay against a live table."""

import pytest

from repro.errors import WorkloadError
from repro.query.database import Database
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char
from repro.workload.replay import ReplayResult, build_mixed_trace, replay
from repro.workload.trace import OpKind, Operation

SCHEMA = Schema.of(("id", UINT64), ("name", char(8)), ("score", UINT32))


class Answers:
    """A table seen through a replay: every answer it gave, in order."""

    def __init__(self, table):
        self._table = table
        self.found: list[bool] = []
        self.updated: list[bool] = []
        self.deleted: list[bool] = []

    def __getattr__(self, name):
        return getattr(self._table, name)

    def lookup(self, *args):
        result = self._table.lookup(*args)
        self.found.append(result.found)
        return result

    def lookup_many(self, *args):
        results = self._table.lookup_many(*args)
        self.found += [r.found for r in results]
        return results

    def update(self, *args):
        self.updated.append(self._table.update(*args))
        return self.updated[-1]

    def delete(self, *args):
        self.deleted.append(self._table.delete(*args))
        return self.deleted[-1]


def build_table(n=50):
    db = Database(data_pool_pages=4096)
    table = db.create_table("t", SCHEMA)
    db.create_index("t", "pk", ("id",))
    for i in range(n):
        table.insert({"id": i, "name": f"n{i}", "score": i})
    return table


def test_replay_each_kind():
    table = build_table()
    ops = [
        Operation(OpKind.LOOKUP, 1),
        Operation(OpKind.LOOKUP, 9999),
        Operation(OpKind.INSERT, 100,
                  row={"id": 100, "name": "new", "score": 0}),
        Operation(OpKind.UPDATE, 2, changes={"score": 777}),
        Operation(OpKind.UPDATE, 9999, changes={"score": 1}),
        Operation(OpKind.DELETE, 3),
        Operation(OpKind.DELETE, 3),
    ]
    answers = Answers(table)
    result = replay(answers, "pk", ops)
    assert result.lookups == 2
    assert sum(answers.found) == 1
    assert result.inserts == 1
    assert result.updates == 2
    assert sum(answers.updated) == 1
    assert result.deletes == 2
    assert sum(answers.deleted) == 1
    assert result.operations == len(ops)
    assert table.lookup("pk", 2).values["score"] == 777
    assert table.lookup("pk", 100).found
    assert not table.lookup("pk", 3).found


def test_replay_error_modes():
    table = build_table()
    bad = [Operation(OpKind.INSERT, 1, row=None)]
    with pytest.raises(WorkloadError):
        replay(table, "pk", bad)


def test_build_mixed_trace_shape():
    keys = list(range(100))
    ops = build_mixed_trace(
        n_ops=500,
        existing_keys=keys,
        make_row=lambda k: {"id": k, "name": "x", "score": 0},
        make_changes=lambda k: {"score": 1},
        next_key=lambda i: 1000 + i,
        seed=3,
    )
    assert len(ops) == 500
    kinds = {k: sum(1 for op in ops if op.kind is k) for k in OpKind}
    assert kinds[OpKind.LOOKUP] > kinds[OpKind.UPDATE] > 0
    assert kinds[OpKind.INSERT] > 0


def test_build_mixed_trace_replays_cleanly():
    """A synthesised trace must be consistent: no double deletes, updates
    only to live keys, fresh insert keys."""
    table = build_table(100)
    ops = build_mixed_trace(
        n_ops=800,
        existing_keys=list(range(100)),
        make_row=lambda k: {"id": k, "name": "x", "score": 0},
        make_changes=lambda k: {"score": 5},
        next_key=lambda i: 10_000 + i,
        lookup_frac=0.7, update_frac=0.15, insert_frac=0.1,
        seed=4,
    )
    answers = Answers(table)
    result = replay(answers, "pk", ops)  # the first error raises
    assert sum(answers.updated) == result.updates
    assert sum(answers.deleted) == result.deletes


def test_build_mixed_trace_validation():
    with pytest.raises(WorkloadError):
        build_mixed_trace(10, [], lambda k: {}, lambda k: {}, lambda i: i)
    with pytest.raises(WorkloadError):
        build_mixed_trace(
            10, [1], lambda k: {}, lambda k: {}, lambda i: i,
            lookup_frac=0.9, update_frac=0.2,
        )


def test_replay_lookup_batching_matches_scalar():
    """lookup_batch_size groups consecutive LOOKUPs through lookup_many
    without changing any observable result."""
    def run(batch_size):
        table = build_table()
        ops = build_mixed_trace(
            600, list(range(50)),
            make_row=lambda k: {"id": k, "name": "new", "score": 0},
            make_changes=lambda k: {"score": 9},
            next_key=lambda i: 1000 + i,
            seed=4,
        )
        answers = Answers(table)
        result = replay(answers, "pk", ops, lookup_batch_size=batch_size)
        state = sorted(tuple(sorted(r.items())) for r in table.scan())
        return result, answers, state

    scalar_result, scalar, scalar_state = run(1)
    batched_result, batched, batched_state = run(16)
    assert batched_result.lookups == scalar_result.lookups
    assert sum(batched.found) == sum(scalar.found)
    assert sum(batched.updated) == sum(scalar.updated)
    assert sum(batched.deleted) == sum(scalar.deleted)
    assert batched_state == scalar_state


def test_replay_lookup_batch_size_validation():
    table = build_table()
    with pytest.raises(WorkloadError):
        replay(table, "pk", [], lookup_batch_size=0)
