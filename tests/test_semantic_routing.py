"""Router comparison (§4.2, ablation A4)."""

import pytest

from repro.core.semantic_ids.embedding import EmbeddedId, plan_reassignment
from repro.core.semantic_ids.routing import (
    EmbeddedIdRouter,
    LookupTableRouter,
    compare_routers,
)
from repro.errors import ReproError


def test_lookup_table_router():
    router = LookupTableRouter()
    router.place(1, 3)
    assert router.route(1) == 3
    assert router.routes == 1
    assert router.entries == 1
    assert router.state_bytes > 0
    with pytest.raises(ReproError):
        router.route(2)


def test_embedded_router_stateless():
    scheme = EmbeddedId(partition_bits=8)
    router = EmbeddedIdRouter(scheme)
    eid = scheme.encode(5, 77)
    assert router.route(eid) == 5
    assert router.state_bytes == 0


def test_routing_table_grows_linearly():
    router = LookupTableRouter()
    for i in range(1000):
        router.place(i, i % 4)
    assert router.state_bytes == 1000 * 15


def test_compare_routers_agreement():
    scheme = EmbeddedId(partition_bits=8)
    placement = {i: i % 5 for i in range(500)}
    plan = plan_reassignment(scheme, placement)
    embedded = {plan.new_id(i): p for i, p in placement.items()}
    comparison = compare_routers(embedded, scheme, list(embedded)[:200])
    assert comparison.agree
    assert comparison.tuples == 500
    assert comparison.partitions == 5
    assert comparison.embedded_bytes == 0
    assert comparison.lookup_table_bytes > 0  # an unbounded state reduction


def test_compare_routers_detects_disagreement():
    scheme = EmbeddedId(partition_bits=8)
    # placement that does NOT match the embedded bits
    bad = {scheme.encode(1, 0): 2}
    comparison = compare_routers(bad, scheme, list(bad))
    assert not comparison.agree
