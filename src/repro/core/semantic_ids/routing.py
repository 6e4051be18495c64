"""Routing in distributed partitioned databases (§4.2, ablation A4).

Per-tuple placement (the paper cites Schism) needs a routing table mapping
tuple ids to locations — "such tables can easily become a resource and
performance bottleneck".  Embedding the location in the id makes routing
stateless.  This module implements both routers and the comparison the
paper's argument rests on: routing-state bytes and per-route work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.semantic_ids.embedding import EmbeddedId
from repro.errors import ReproError

#: Honest per-entry overhead of a hash-map routing table: 8-byte key,
#: 2-byte partition, and a load-factor/pointer overhead typical of open
#: hash tables (×1.5).
_LOOKUP_ENTRY_BYTES = 15


class LookupTableRouter:
    """Routes via an explicit tuple-id → partition table."""

    def __init__(self) -> None:
        self._table: dict[int, int] = {}
        self.routes = 0

    def place(self, tuple_id: int, partition: int) -> None:
        self._table[tuple_id] = partition

    def route(self, tuple_id: int) -> int:
        self.routes += 1
        try:
            return self._table[tuple_id]
        except KeyError:
            raise ReproError(f"no placement for tuple id {tuple_id}") from None

    @property
    def entries(self) -> int:
        return len(self._table)

    @property
    def state_bytes(self) -> int:
        """Routing-state footprint — the scalability bottleneck."""
        return self.entries * _LOOKUP_ENTRY_BYTES


class EmbeddedIdRouter:
    """Routes by decoding the partition bits out of the id: zero state."""

    def __init__(self, scheme: EmbeddedId) -> None:
        self._scheme = scheme
        self.routes = 0

    def route(self, tuple_id: int) -> int:
        self.routes += 1
        return self._scheme.partition_of(tuple_id)

    @property
    def state_bytes(self) -> int:
        return 0


@dataclass(frozen=True)
class RoutingComparison:
    """The A4 ablation's output row."""

    tuples: int
    partitions: int
    lookup_table_bytes: int
    embedded_bytes: int
    agree: bool

def compare_routers(
    placement: dict[int, int],
    scheme: EmbeddedId,
    probe_ids: list[int],
) -> RoutingComparison:
    """Route ``probe_ids`` through both routers and compare.

    ``placement`` maps *embedded* ids to partitions — i.e. ids that have
    already been reassigned by :func:`~repro.core.semantic_ids.embedding.
    plan_reassignment`, so both routers can answer every probe.  The
    routers must agree on every probe; disagreement means the placement
    and the embedding fell out of sync.
    """
    table_router = LookupTableRouter()
    for tuple_id, partition in placement.items():
        table_router.place(tuple_id, partition)
    embedded_router = EmbeddedIdRouter(scheme)
    agree = all(
        table_router.route(t) == embedded_router.route(t) for t in probe_ids
    )
    partitions = len(set(placement.values())) if placement else 0
    return RoutingComparison(
        tuples=len(placement),
        partitions=partitions,
        lookup_table_bytes=table_router.state_bytes,
        embedded_bytes=embedded_router.state_bytes,
        agree=agree,
    )
