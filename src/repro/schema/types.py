"""Physical column types.

The paper's §4 argues that declared SQL types should be treated as *hints*:
the engine is free to pick a narrower physical representation when the data
allows it.  To express both sides of that argument we need an explicit
vocabulary of physical types with known byte widths — declared schemas and
inferred (optimized) schemas are both built from these.

All types here are fixed width.  The paper's index-cache design (§2.1.1)
assumes fixed-length index keys and tuples, and fixed-width records also
make the per-column waste arithmetic of §4.1 exact.  ``VARCHAR(n)`` is
modelled the way row stores with fixed slots model it: ``n`` payload bytes
plus a 2-byte length prefix, which is itself a source of measurable waste
when the actual strings are short.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

from repro.errors import TypeMismatchError


class TypeKind(Enum):
    """Logical family a physical type belongs to."""

    BOOL = "bool"
    INT = "int"
    UINT = "uint"
    FLOAT = "float"
    CHAR = "char"
    VARCHAR = "varchar"
    TIMESTAMP = "timestamp"
    TIMESTAMP_STRING = "timestamp_string"
    DATE = "date"
    YEAR = "year"


@dataclass(frozen=True)
class PhysicalType:
    """A fixed-width physical column type.

    Attributes:
        kind: logical family (int, char, ...).
        size: total bytes the value occupies in a packed record.
        name: display name, e.g. ``INT32`` or ``CHAR(14)``.
    """

    kind: TypeKind
    size: int
    name: str

    def __str__(self) -> str:
        return self.name

    # -- value domain ------------------------------------------------------

    def validate(self, value: object) -> None:
        """Raise :class:`TypeMismatchError` unless ``value`` fits this type."""
        kind = self.kind
        if kind is TypeKind.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(f"{self.name} expects bool, got {value!r}")
        elif kind in (TypeKind.INT, TypeKind.UINT, TypeKind.TIMESTAMP,
                      TypeKind.DATE, TypeKind.YEAR):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(f"{self.name} expects int, got {value!r}")
            lo, hi = self.int_range()
            if not lo <= value <= hi:
                raise TypeMismatchError(
                    f"{value} out of range [{lo}, {hi}] for {self.name}"
                )
        elif kind is TypeKind.FLOAT:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeMismatchError(f"{self.name} expects float, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise TypeMismatchError(
                    f"int of {value.bit_length()} bits out of range for {self.name}"
                ) from None
        elif kind in (TypeKind.CHAR, TypeKind.VARCHAR, TypeKind.TIMESTAMP_STRING):
            if not isinstance(value, str):
                raise TypeMismatchError(f"{self.name} expects str, got {value!r}")
            try:
                raw = value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise TypeMismatchError(
                    f"{self.name} expects UTF-8 text: {exc.reason} at {exc.start}"
                ) from None
            limit = self.size - 2 if kind is TypeKind.VARCHAR else self.size
            if len(raw) > limit:
                raise TypeMismatchError(
                    f"string of {len(value)} chars exceeds {self.name}"
                )
        else:  # pragma: no cover - exhaustive over TypeKind
            raise TypeMismatchError(f"unhandled kind {kind}")

    def int_range(self) -> tuple[int, int]:
        """Inclusive value range for integer-family types."""
        if self.kind is TypeKind.UINT:
            return 0, (1 << (8 * self.size)) - 1
        if self.kind in (TypeKind.INT,):
            half = 1 << (8 * self.size - 1)
            return -half, half - 1
        if self.kind in (TypeKind.TIMESTAMP, TypeKind.DATE, TypeKind.YEAR):
            # Stored unsigned: seconds/days since epoch, or a year number.
            return 0, (1 << (8 * self.size)) - 1
        raise TypeMismatchError(f"{self.name} has no integer range")

    # -- serde -------------------------------------------------------------

    def wire(self) -> _Wire:
        """``(struct format code, pre-step, post-step)`` — the one
        definition of this type's encoding: the code packs what the
        pre-step makes of a validated value and the post-step finishes
        what it unpacks.  :meth:`pack` / :meth:`unpack` apply it to one
        value, :attr:`Schema.codec` to a whole record in one ``Struct``."""
        return _WIRE[self.kind](self.size)

    def pack(self, value: object) -> bytes:
        """Serialize ``value`` into exactly :attr:`size` bytes."""
        self.validate(value)
        code, pre, _ = self.wire()
        return struct.pack("<" + code, value if pre is None else pre(value))

    def unpack(self, data: bytes) -> object:
        """Deserialize exactly :attr:`size` bytes back into a Python value."""
        if len(data) != self.size:
            raise TypeMismatchError(
                f"{self.name} needs {self.size} bytes, got {len(data)}"
            )
        code, _, post = self.wire()
        (value,) = struct.unpack("<" + code, data)
        return value if post is None else post(value)


_Wire = tuple[str, "Callable | None", "Callable | None"]  # code, pre, post
_U16 = struct.Struct("<H")
_NATIVE_INT = {1: "b", 2: "h", 4: "i", 8: "q"}  # signed; upper-case = unsigned


def _int_wire(size: int, signed: bool) -> _Wire:
    code = _NATIVE_INT.get(size)
    if code is not None:
        return (code if signed else code.upper()), None, None
    # Odd widths (a 3-byte id) have no struct code: carry the bytes.
    return (
        f"{size}s",
        lambda value: value.to_bytes(size, "little", signed=signed),
        lambda raw: int.from_bytes(raw, "little", signed=signed),
    )


def _unpad(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8")


def _varchar_in(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _varchar_out(raw: bytes) -> str:
    return raw[2 : 2 + _U16.unpack_from(raw)[0]].decode("utf-8")


def _text(size: int) -> _Wire:
    return f"{size}s", str.encode, _unpad  # ``Ns`` NUL-pads on pack


_unsigned = partial(_int_wire, signed=False)  # see ``int_range``

#: ``kind -> size -> (code, pre, post)``; see :meth:`PhysicalType.wire`.
_WIRE: dict[TypeKind, Callable[[int], _Wire]] = {
    TypeKind.BOOL: lambda size: ("?", None, None),
    TypeKind.INT: partial(_int_wire, signed=True),
    TypeKind.UINT: _unsigned,
    TypeKind.TIMESTAMP: _unsigned,
    TypeKind.DATE: _unsigned,
    TypeKind.YEAR: _unsigned,
    TypeKind.FLOAT: lambda size: ("d", float, None),
    TypeKind.CHAR: _text,
    TypeKind.TIMESTAMP_STRING: _text,
    TypeKind.VARCHAR: lambda size: (f"{size}s", _varchar_in, _varchar_out),
}


BOOL = PhysicalType(TypeKind.BOOL, 1, "BOOL")
INT8 = PhysicalType(TypeKind.INT, 1, "INT8")
INT16 = PhysicalType(TypeKind.INT, 2, "INT16")
INT32 = PhysicalType(TypeKind.INT, 4, "INT32")
INT64 = PhysicalType(TypeKind.INT, 8, "INT64")
UINT8 = PhysicalType(TypeKind.UINT, 1, "UINT8")
UINT16 = PhysicalType(TypeKind.UINT, 2, "UINT16")
UINT32 = PhysicalType(TypeKind.UINT, 4, "UINT32")
UINT64 = PhysicalType(TypeKind.UINT, 8, "UINT64")
FLOAT64 = PhysicalType(TypeKind.FLOAT, 8, "FLOAT64")

#: 4-byte unix timestamp — the paper's target encoding for Wikipedia's
#: 14-byte ``rev_timestamp`` strings (§4.1).
TIMESTAMP32 = PhysicalType(TypeKind.TIMESTAMP, 4, "TIMESTAMP32")

#: MySQL/MediaWiki style ``YYYYMMDDHHMMSS`` string — the wasteful original.
TIMESTAMP_STR14 = PhysicalType(TypeKind.TIMESTAMP_STRING, 14, "TIMESTAMP_STR14")

#: Days since epoch.
DATE32 = PhysicalType(TypeKind.DATE, 4, "DATE32")

#: Bare year — the "application only asks for years" granularity of §4.
YEAR16 = PhysicalType(TypeKind.YEAR, 2, "YEAR16")


def char(n: int) -> PhysicalType:
    """Fixed ``CHAR(n)``: n bytes, NUL padded."""
    if n <= 0:
        raise TypeMismatchError("CHAR width must be positive")
    return PhysicalType(TypeKind.CHAR, n, f"CHAR({n})")


def varchar(n: int) -> PhysicalType:
    """``VARCHAR(n)`` in a fixed slot: 2-byte length prefix + n bytes."""
    if n <= 0:
        raise TypeMismatchError("VARCHAR width must be positive")
    return PhysicalType(TypeKind.VARCHAR, n + 2, f"VARCHAR({n})")


#: Integer types ordered narrow-to-wide, used by the §4 type inference.
SIGNED_INT_LADDER = (INT8, INT16, INT32, INT64)
UNSIGNED_INT_LADDER = (UINT8, UINT16, UINT32, UINT64)
