"""ID elision (§4.2 "reduction").

"Fields can be reduced if proxies exist whose values exhibit the same
properties that the application expects.  For example, ID fields
representing uniqueness can be eliminated and the tuple's physical address
can be used as a proxy."  (Column stores already do this with tuple
offsets — the paper cites C-Store.)

Two pieces:

* :class:`RidProxyTable` — a table whose AUTO_INCREMENT id column is gone:
  the RID returned at insert time *is* the identifier.  No id bytes are
  stored, and no id index exists (the RID dereferences directly), which is
  strictly cheaper than even a perfectly-encoded id column.
* :func:`find_droppable_columns` — the FD rule: "if there is a functional
  dependency X → Y and the semantic properties of Y can be directly
  inferred from X, then Y can be dropped."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchemaError
from repro.schema.record import pack_record_map, unpack_fields
from repro.schema.schema import Schema
from repro.storage.heap import HeapFile, Rid


@dataclass(frozen=True)
class FunctionalDependency:
    """X → Y with the semantic properties Y provides to the application."""

    determinants: tuple[str, ...]
    dependent: str
    #: which properties of the dependent the application relies on:
    #: subset of {"uniqueness", "order", "value"}
    used_properties: frozenset[str]


def find_droppable_columns(
    schema: Schema, dependencies: list[FunctionalDependency]
) -> list[str]:
    """Columns droppable because an FD supplies their used properties.

    A dependent is droppable when the application never uses its literal
    *value* — only ``uniqueness`` and/or ``order``, both of which the
    determinant (or the physical address) provides.
    """
    droppable = []
    for fd in dependencies:
        if not schema.has_column(fd.dependent):
            raise SchemaError(f"unknown dependent column {fd.dependent!r}")
        for d in fd.determinants:
            if not schema.has_column(d):
                raise SchemaError(f"unknown determinant column {d!r}")
        if "value" not in fd.used_properties:
            droppable.append(fd.dependent)
    return droppable


def id_elision_savings(schema: Schema, id_column: str, rows: int) -> int:
    """Bytes saved by dropping ``id_column`` across ``rows`` tuples.

    Heap bytes only; the (often larger) saving of dropping the id's
    B+Tree index is reported separately by the experiments.
    """
    return schema.column(id_column).size * rows


class RidProxyTable:
    """A table addressed by physical RIDs instead of a stored id column."""

    def __init__(self, schema: Schema, id_column: str, heap: HeapFile) -> None:
        """
        Args:
            schema: the *application* schema, including the id column the
                application believes exists.
            id_column: the AUTO_INCREMENT-style column to elide.
            heap: backing storage for the reduced records.
        """
        if not schema.has_column(id_column):
            raise SchemaError(f"unknown id column {id_column!r}")
        self._app_schema = schema
        self._id_column = id_column
        #: The physical schema: the application schema minus the id.
        self.stored_schema = schema.drop([id_column])
        self._heap = heap

    def insert(self, row: dict[str, object]) -> Rid:
        """Insert a row; the returned RID plays the role of the id.

        Any id value the caller supplied is discarded — its only semantic
        property (uniqueness) is provided by the address.
        """
        stored = {
            name: row[name] for name in self.stored_schema.names
        }
        return self._heap.insert(pack_record_map(self.stored_schema, stored))

    def get(
        self, rid: Rid, project: tuple[str, ...] | None = None
    ) -> dict[str, object]:
        """Fetch by proxy id; the id column materialises from the RID."""
        project = project if project is not None else self._app_schema.names
        record = self._heap.fetch(rid)
        wanted = [n for n in project if n != self._id_column]
        values = unpack_fields(self.stored_schema, record, wanted)
        if self._id_column in project:
            # Synthesise the id the application expects from the address.
            values[self._id_column] = int.from_bytes(rid.to_bytes(), "little")
        return {name: values[name] for name in project}

    def delete(self, rid: Rid) -> None:
        self._heap.delete(rid)
