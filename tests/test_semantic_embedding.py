"""Partition-embedded IDs (§4.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.semantic_ids.embedding import EmbeddedId, plan_reassignment
from repro.errors import ReproError


def test_encode_decode_round_trip():
    scheme = EmbeddedId(partition_bits=8)
    eid = scheme.encode(3, 12345)
    assert scheme.partition_of(eid) == 3
    assert scheme.local_of(eid) == 12345
    assert scheme.decode(eid) == (3, 12345)


@given(
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_property(bits, partition, local):
    scheme = EmbeddedId(partition_bits=bits)
    partition %= scheme.max_partition + 1
    local %= scheme.max_local + 1
    assert scheme.decode(scheme.encode(partition, local)) == (partition, local)


def test_bounds_enforced():
    scheme = EmbeddedId(partition_bits=4)
    with pytest.raises(ReproError):
        scheme.encode(16, 0)
    with pytest.raises(ReproError):
        scheme.encode(-1, 0)
    with pytest.raises(ReproError):
        scheme.encode(0, scheme.max_local + 1)
    with pytest.raises(ReproError):
        scheme.partition_of(1 << 64)


def test_partition_bits_validation():
    with pytest.raises(ReproError):
        EmbeddedId(partition_bits=0)
    with pytest.raises(ReproError):
        EmbeddedId(partition_bits=33)


def test_plan_assigns_target_partitions():
    scheme = EmbeddedId(partition_bits=8)
    placement = {1: 0, 2: 1, 3: 0, 4: 2}
    plan = plan_reassignment(scheme, placement)
    for old, target in placement.items():
        assert scheme.partition_of(plan.new_id(old)) == target
    new_ids = [plan.new_id(o) for o in placement]
    assert len(set(new_ids)) == len(new_ids)  # uniqueness preserved


def test_plan_leaves_correctly_placed_ids_alone():
    scheme = EmbeddedId(partition_bits=8)
    already = scheme.encode(2, 5)
    placement = {already: 2, 7: 2}
    plan = plan_reassignment(scheme, placement)
    assert plan.new_id(already) == already
    assert sum(old != new for old, new in plan.mapping.items()) == 1
    # the fresh id must not collide with the kept one
    assert plan.new_id(7) != already
    assert scheme.partition_of(plan.new_id(7)) == 2


def test_plan_respects_next_local_counters():
    scheme = EmbeddedId(partition_bits=8)
    # use an id currently in partition 3 so it genuinely moves to 0
    old = scheme.encode(3, 7)
    plan = plan_reassignment(scheme, {old: 0}, next_local={0: 100})
    assert scheme.local_of(plan.new_id(old)) == 100
    assert scheme.partition_of(plan.new_id(old)) == 0


def test_unmapped_id_passes_through():
    scheme = EmbeddedId(partition_bits=8)
    plan = plan_reassignment(scheme, {})
    assert plan.new_id(42) == 42
    assert sum(old != new for old, new in plan.mapping.items()) == 0
