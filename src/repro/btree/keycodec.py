"""Order-preserving fixed-length key encodings.

The paper's index-cache layout assumes fixed-length index keys (§2.1.1);
these codecs map column values onto fixed-width byte strings whose
*lexicographic* order equals the logical order, so the B+Tree can compare
keys with plain ``bytes`` comparison.

Encodings:

* unsigned ints — big-endian.
* signed ints — big-endian with the sign bit flipped (two's-complement
  order becomes unsigned order).
* strings — UTF-8, NUL-padded to a fixed width.  Padding preserves order
  for strings that fit; wider strings are rejected, not truncated, because
  silent truncation would corrupt equality semantics.
* composites — concatenation of the component encodings (most significant
  first), e.g. Wikipedia's ``(namespace, title)`` name_title key.

A codec built by :func:`codec_for_columns` also knows its columns' names,
which makes it the one place a *row* becomes a key: row → key value
(:attr:`KeyCodec.key_of_row`), row → key bytes (:meth:`KeyCodec.encode_row`)
and key bytes → ``{column: value}`` (:meth:`KeyCodec.decode_columns`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import itemgetter
from typing import Callable, Sequence

from repro.errors import SchemaError, TypeMismatchError
from repro.schema.schema import Column
from repro.schema.types import TypeKind


class KeyCodec(ABC):
    """Encodes one value (or value tuple) to fixed-width ordered bytes."""

    #: Names of the key's columns, and row -> key value as callers spell
    #: it (the scalar for one column, a tuple for several:
    #: ``operator.itemgetter``'s own rule).  Set by
    #: :func:`codec_for_columns`; a codec built bare has neither.
    columns: tuple[str, ...] = ()
    key_of_row: Callable[[dict[str, object]], object]
    #: Encoded width in bytes.
    size: int

    @abstractmethod
    def encode(self, value: object) -> bytes:
        """Encode ``value`` to exactly :attr:`size` bytes."""

    @abstractmethod
    def decode(self, data: bytes) -> object:
        """Invert :meth:`encode`."""

    def encode_key(self, value: object) -> bytes:
        """Encode a key as index callers spell it: a single-column key is
        the scalar or a 1-tuple of it (:class:`CompositeKey` takes the
        tuple of its parts)."""
        if isinstance(value, (tuple, list)):
            try:
                (value,) = value
            except ValueError:
                raise TypeMismatchError(
                    f"key expects 1 part, got {len(value)}"
                ) from None
        return self.encode(value)

    def encode_row(self, row: dict[str, object]) -> bytes:
        """Key bytes of a full row (or any mapping holding the key columns)."""
        return self.encode(self.key_of_row(row))

    def decode_columns(self, data: bytes) -> dict[str, object]:
        """Invert :meth:`encode_row`: ``{key column: value}``."""
        return {self.columns[0]: self.decode(data)}


class UIntKey(KeyCodec):
    """Unsigned integer key (big-endian)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise SchemaError("key size must be positive")
        self.size = size

    def encode(self, value: object) -> bytes:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"uint key expects int, got {value!r}")
        if value < 0:
            raise TypeMismatchError(f"uint key cannot encode {value}")
        return value.to_bytes(self.size, "big")

    def decode(self, data: bytes) -> int:
        return int.from_bytes(data, "big")


class IntKey(KeyCodec):
    """Signed integer key (big-endian, sign bit flipped)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise SchemaError("key size must be positive")
        self.size = size
        self._bias = 1 << (8 * size - 1)

    def encode(self, value: object) -> bytes:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"int key expects int, got {value!r}")
        return (value + self._bias).to_bytes(self.size, "big")

    def decode(self, data: bytes) -> int:
        return int.from_bytes(data, "big") - self._bias


class StringKey(KeyCodec):
    """Fixed-width NUL-padded string key."""

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise SchemaError("key width must be positive")
        self.size = width

    def encode(self, value: object) -> bytes:
        if not isinstance(value, str):
            raise TypeMismatchError(f"string key expects str, got {value!r}")
        raw = value.encode("utf-8")
        if len(raw) > self.size:
            raise TypeMismatchError(
                f"string of {len(raw)} bytes exceeds key width {self.size}"
            )
        return raw.ljust(self.size, b"\x00")

    def decode(self, data: bytes) -> str:
        return data.rstrip(b"\x00").decode("utf-8")


class CompositeKey(KeyCodec):
    """Concatenation of component codecs, most significant first."""

    def __init__(self, components: Sequence[KeyCodec]) -> None:
        if not components:
            raise SchemaError("composite key needs at least one component")
        self.components = tuple(components)
        self.size = sum(c.size for c in components)

    def encode(self, value: object) -> bytes:
        if not isinstance(value, (tuple, list)):
            raise TypeMismatchError(
                f"composite key expects {len(self.components)} parts, "
                f"got 1 ({value!r})"
            )
        if len(value) != len(self.components):
            raise TypeMismatchError(
                f"composite key expects {len(self.components)} parts, "
                f"got {len(value)}"
            )
        return b"".join(
            codec.encode(part) for codec, part in zip(self.components, value)
        )

    #: A composite key value is always the tuple of its parts.
    encode_key = encode

    def decode(self, data: bytes) -> tuple[object, ...]:
        parts = []
        offset = 0
        for codec in self.components:
            parts.append(codec.decode(data[offset : offset + codec.size]))
            offset += codec.size
        return tuple(parts)

    def decode_columns(self, data: bytes) -> dict[str, object]:
        return dict(zip(self.columns, self.decode(data)))


def codec_for_column(column: Column) -> KeyCodec:
    """The natural key codec for one column's stored type."""
    kind = column.ctype.kind
    size = column.ctype.size
    if kind in (TypeKind.UINT, TypeKind.TIMESTAMP, TypeKind.DATE,
                TypeKind.YEAR, TypeKind.BOOL):
        return UIntKey(size)
    if kind is TypeKind.INT:
        return IntKey(size)
    if kind is TypeKind.CHAR or kind is TypeKind.TIMESTAMP_STRING:
        return StringKey(size)
    if kind is TypeKind.VARCHAR:
        # Index on the payload width; the 2-byte length prefix is a storage
        # artifact, not part of the logical value.
        return StringKey(size - 2)
    raise SchemaError(f"no key codec for column type {column.ctype.name}")


def codec_for_columns(columns: Sequence[Column]) -> KeyCodec:
    """Codec for a (possibly composite) key over the given columns, bound
    to their names."""
    codecs = [codec_for_column(c) for c in columns]
    codec = codecs[0] if len(codecs) == 1 else CompositeKey(codecs)
    codec.columns = tuple(c.name for c in columns)
    codec.key_of_row = itemgetter(*codec.columns)
    return codec
