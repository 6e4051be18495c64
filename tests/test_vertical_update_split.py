"""recommend_update_split: §3.2's write-density motivation."""

import pytest

from repro.core.hot_cold.vertical import recommend_update_split
from repro.schema.schema import Schema
from repro.schema.types import UINT32, UINT64, char

SCHEMA = Schema.of(
    ("id", UINT64),
    ("counter", UINT32),      # updated constantly
    ("last_seen", UINT32),    # updated constantly
    ("bio", char(120)),       # write-once
)


def test_splits_by_update_rate():
    plan = recommend_update_split(
        SCHEMA, ("id",),
        {"counter": 0.5, "last_seen": 0.3, "bio": 0.001},
    )
    assert set(plan.hot_columns) == {"counter", "last_seen"}
    assert set(plan.cold_columns) == {"bio"}


def test_write_bytes_shrink():
    plan = recommend_update_split(
        SCHEMA, ("id",), {"counter": 0.5, "bio": 0.0},
    )
    # an update now touches id + counter (12 B) instead of the whole row
    assert plan.bytes_per_query_split == 12.0
    assert plan.bytes_per_query_unsplit == SCHEMA.record_size
    assert plan.merge_fraction == 0.0
    assert plan.bytes_per_query_split < 0.2 * plan.bytes_per_query_unsplit  # > 80 % saved


def test_threshold_controls_membership():
    rates = {"counter": 0.05, "last_seen": 0.2, "bio": 0.0}
    loose = recommend_update_split(SCHEMA, ("id",), rates, hot_threshold=0.01)
    tight = recommend_update_split(SCHEMA, ("id",), rates, hot_threshold=0.1)
    assert "counter" in loose.hot_columns
    assert "counter" not in tight.hot_columns
    assert "last_seen" in tight.hot_columns


def test_unknown_rates_default_cold():
    plan = recommend_update_split(SCHEMA, ("id",), {})
    assert plan.hot_columns == ()
    assert set(plan.cold_columns) == {"counter", "last_seen", "bio"}
