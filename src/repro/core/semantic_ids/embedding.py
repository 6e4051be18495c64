"""Embedding placement information in ID values (§4.2).

"We propose embedding partition information directly in the ID field as a
mechanism to implement the policy described in Section 3.1. If the data is
clustered on the ID field, then simply updating the ID value is enough to
physically move the tuple."

An :class:`EmbeddedId` packs a partition number into the high bits of a
64-bit id and a partition-local sequence in the low bits.  Because tables
clustered on the id keep id-adjacent tuples physically adjacent, giving
all hot tuples ids in the "hot" partition's range *is* the clustering.
:func:`plan_reassignment` produces the old→new id mapping that realises a
placement decision, which callers apply as transactional delete+insert
pairs (the paper's fallback when data is not clustered on the id).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DuplicateKeyError, ReproError


@dataclass(frozen=True)
class EmbeddedId:
    """64-bit id = partition (high ``partition_bits``) | local sequence."""

    partition_bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.partition_bits <= 32:
            raise ReproError("partition_bits must be in [1, 32]")

    @property
    def local_bits(self) -> int:
        return 64 - self.partition_bits

    @property
    def max_partition(self) -> int:
        return (1 << self.partition_bits) - 1

    @property
    def max_local(self) -> int:
        return (1 << self.local_bits) - 1

    def encode(self, partition: int, local: int) -> int:
        """Pack ``(partition, local)`` into one id."""
        if not 0 <= partition <= self.max_partition:
            raise ReproError(
                f"partition {partition} needs more than {self.partition_bits} bits"
            )
        if not 0 <= local <= self.max_local:
            raise ReproError(
                f"local id {local} needs more than {self.local_bits} bits"
            )
        return (partition << self.local_bits) | local

    def partition_of(self, embedded_id: int) -> int:
        """Extract the partition — the entire routing step (§4.2)."""
        if not 0 <= embedded_id < 1 << 64:
            raise ReproError(f"id {embedded_id} is not a u64")
        return embedded_id >> self.local_bits

    def local_of(self, embedded_id: int) -> int:
        return embedded_id & self.max_local

    def decode(self, embedded_id: int) -> tuple[int, int]:
        return self.partition_of(embedded_id), self.local_of(embedded_id)


@dataclass(frozen=True)
class IdReassignmentPlan:
    """Old-id → new-id mapping realising a placement decision."""

    mapping: dict[int, int]

    def new_id(self, old_id: int) -> int:
        return self.mapping.get(old_id, old_id)


def move_by_id_update(
    table,
    index_name: str,
    old_id: int,
    new_id: int,
) -> bool:
    """Physically move a tuple by rewriting its (semantic) id — §4.2.

    "If the data is clustered on the ID field, then simply updating the ID
    value is enough to physically move the tuple.  Otherwise, the hot
    tuples can be shuffled to the end of the table by transactionally
    deleting and inserting the tuples."

    Our heaps are not id-clustered, so this is the transactional
    delete+insert realisation over a :class:`repro.query.table.Table`: the
    row is re-inserted under ``new_id``, landing wherever current
    placement policy puts it (the tail, for an append-only heap — i.e.
    the §3.1 hot region).  Returns False when ``old_id`` does not exist.

    Raises if ``new_id`` already exists (ids must stay unique).
    """
    result = table.lookup(index_name, old_id)
    if not result.found or result.values is None:
        return False
    index = table.index(index_name)
    (id_column,) = index.key_codec.columns
    # Check the target id first so the delete+insert pair cannot fail
    # half-way ("transactionally deleting and inserting").
    if table.lookup(index_name, new_id).found:
        raise DuplicateKeyError(f"id {new_id} already exists")
    row = dict(result.values)
    table.delete(index_name, old_id)
    row[id_column] = new_id
    table.insert(row)
    return True


def plan_reassignment(
    scheme: EmbeddedId,
    placement: dict[int, int],
    next_local: dict[int, int] | None = None,
) -> IdReassignmentPlan:
    """Assign every tuple an id embedding its target partition.

    Args:
        scheme: the bit layout.
        placement: old id → target partition (the output of a partitioner
            such as Schism, or of the §3.1 hot/cold policy).
        next_local: optional starting local-sequence counter per partition
            (continues an existing numbering); defaults to 0 everywhere.

    Ids already embedding the right partition are left untouched, so
    re-running the planner after incremental placement changes only moves
    the tuples that changed partition.
    """
    counters: dict[int, int] = dict(next_local or {})
    mapping: dict[int, int] = {}
    # Pre-scan: ids that already encode their target keep their local part
    # and bump the partition's counter past it, avoiding collisions.
    for old_id, partition in placement.items():
        if scheme.partition_of(old_id) == partition:
            local = scheme.local_of(old_id)
            counters[partition] = max(counters.get(partition, 0), local + 1)
    for old_id, partition in sorted(placement.items()):
        if scheme.partition_of(old_id) == partition:
            mapping[old_id] = old_id
            continue
        local = counters.get(partition, 0)
        counters[partition] = local + 1
        mapping[old_id] = scheme.encode(partition, local)
    return IdReassignmentPlan(mapping=mapping)
