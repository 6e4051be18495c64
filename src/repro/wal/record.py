"""WAL record types and the CRC-framed on-log encoding.

The log is a flat byte stream of self-delimiting frames::

    frame   = [u32 payload_len][u32 crc32(payload)][payload]
    payload = [u64 lsn][u8 record_type][body]

Everything downstream leans on two properties of this framing:

* **Torn tails are detectable.**  A crash can cut the stream at any
  byte; :func:`scan_wal` walks frames from the front and stops at the
  first one whose length field runs past the end or whose CRC does not
  match — the classic redo-log rule that a record is durable iff its
  whole frame is.  Bit flips inside a frame are caught the same way
  (CRC32 detects every single-bit error), so a damaged *middle* frame
  also truncates the replayable prefix instead of applying garbage.
* **LSN gaps are legal.**  Writers reserve an LSN *before* applying an
  operation (so the page can be stamped) and append the record after;
  an operation that fails mid-way leaves a reserved-but-never-logged
  LSN behind.  Replay orders by position, not by LSN arithmetic.

Record bodies are type-specific; heap ops carry the physical
``(page_id, slot)`` so redo is slot-exact, DDL and checkpoint records
carry JSON catalog metadata.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum

from repro.errors import WalError

#: Frame header width: u32 payload length + u32 CRC32.
FRAME_HEADER_SIZE = 8
#: Payload prefix width: u64 LSN + u8 record type.
PAYLOAD_PREFIX_SIZE = 9
#: Sanity cap on a single payload (a record is one tuple or one JSON
#: catalog snapshot, never anywhere near this).
MAX_PAYLOAD = 1 << 24

_PREFIX = struct.Struct("<QB")  # payload prefix: lsn, record type
_PAIR = struct.Struct("<II")  # frame header; a (page_id, slot) address
_ADDR_TXN = struct.Struct("<III")  # a heap op's address and txn id


class RecordType(IntEnum):
    """Redo record taxonomy (see DESIGN.md §5d)."""

    #: A tuple landed at ``(page_id, slot)`` with the given bytes.
    INSERT = 1
    #: The tuple at ``(page_id, slot)`` was overwritten in place.
    UPDATE = 2
    #: The tuple at ``(page_id, slot)`` was tombstoned.
    DELETE = 3
    #: A table was created (body: name, schema, placement mode).
    CREATE_TABLE = 4
    #: An index was created (body: name, table, keys, kind, geometry).
    CREATE_INDEX = 5
    #: Fuzzy checkpoint: catalog snapshot + the LSN redo may start from.
    CHECKPOINT = 6
    #: A hot/cold clustering move relocated a tuple (informational; the
    #: copy and delete are themselves logged as INSERT + DELETE).
    HOT_COLD_MOVE = 7
    #: An index cache was dropped wholesale (e.g. by a heal); replay
    #: rebuilds indexes from the heap anyway, so this is an audit mark.
    INDEX_CACHE_DROP = 8
    #: A transaction issued its first write (body: ``{"txn": id}``).
    TXN_BEGIN = 9
    #: A transaction committed (body: ``{"txn": id, "csn": csn}``).  The
    #: commit point: a txn is durable iff this frame is in the durable
    #: prefix — group commit batches commit records across sessions.
    TXN_COMMIT = 10
    #: A transaction finished rolling back (body: ``{"txn": id}``).  Its
    #: compensation records — ordinary heap ops stamped with the same
    #: ``txn_id`` — all precede this frame in log order.
    TXN_ABORT = 11
    #: A cross-shard migration intent (body: ``{"table", "key", "src",
    #: "dst", "seq"}``), appended to the **destination** shard's log
    #: immediately before the copy-insert.  Single-engine replay ignores
    #: it; :func:`repro.shard.recovery.recover_sharded` uses it to
    #: resolve a key found resident on two shards after a crash
    #: mid-migration to exactly one owner (DESIGN.md §5i).
    SHARD_MIGRATE = 12


#: ``RecordType`` by its type byte, ``None`` for a byte no type owns: the
#: scan reads a frame's type with one index, not an enum call.
_TYPE_OF_BYTE = tuple(
    next((t for t in RecordType if t == byte), None) for byte in range(256)
)
#: Record types that redo mutates heap pages for.
HEAP_OP_TYPES = frozenset({RecordType.INSERT, RecordType.UPDATE, RecordType.DELETE})
#: Transaction bracket records (JSON bodies carrying ``{"txn": id}``).
TXN_TYPES = frozenset(
    {RecordType.TXN_BEGIN, RecordType.TXN_COMMIT, RecordType.TXN_ABORT}
)
#: Record types whose body is a JSON document (``meta`` is populated).
_JSON_TYPES = frozenset(
    {RecordType.CREATE_TABLE, RecordType.CREATE_INDEX, RecordType.CHECKPOINT,
     RecordType.SHARD_MIGRATE}
) | TXN_TYPES


@dataclass(frozen=True)
class WalRecord:
    """One decoded redo record.

    Which fields are meaningful depends on ``rtype``:

    * heap ops (INSERT/UPDATE/DELETE): ``table``, ``page_id``, ``slot``,
      the owning ``txn_id`` (0 = autocommit, outside any transaction),
      and for insert/update the tuple ``payload``;
    * HOT_COLD_MOVE: ``table`` (the name of the move's source table), source
      ``(page_id, slot)`` and destination ``(aux_page, aux_slot)``;
    * INDEX_CACHE_DROP: ``table`` holds the index name;
    * JSON types (CREATE_TABLE/CREATE_INDEX/CHECKPOINT and the TXN
      brackets): ``meta``; txn brackets also mirror ``meta["txn"]``
      into ``txn_id``.
    """

    lsn: int
    rtype: RecordType
    table: str = ""
    page_id: int = 0
    slot: int = 0
    payload: bytes = b""
    meta: dict | None = field(default=None, hash=False)
    aux_page: int = 0
    aux_slot: int = 0
    txn_id: int = 0

    @property
    def redo_from(self) -> int:
        """Checkpoint records only: the LSN redo may start from."""
        if self.rtype is not RecordType.CHECKPOINT or self.meta is None:
            raise WalError("redo_from is only defined on CHECKPOINT records")
        return int(self.meta["redo_from"])

    @property
    def csn(self) -> int:
        """TXN_COMMIT records only: the commit sequence number."""
        if self.rtype is not RecordType.TXN_COMMIT or self.meta is None:
            raise WalError("csn is only defined on TXN_COMMIT records")
        return int(self.meta["csn"])


def _encode_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WalError(f"name too long for WAL record: {len(raw)} bytes")
    return len(raw).to_bytes(2, "little") + raw


def _encode_body(record: WalRecord) -> bytes:
    rtype = record.rtype
    if rtype in _JSON_TYPES:
        if record.meta is None:
            raise WalError(f"{rtype.name} record requires meta")
        if rtype in TXN_TYPES and "txn" not in record.meta:
            raise WalError(f"{rtype.name} record requires meta['txn']")
        return json.dumps(record.meta, sort_keys=True).encode("utf-8")
    head = _encode_name(record.table)
    if rtype in HEAP_OP_TYPES:
        if record.txn_id < 0 or record.txn_id > 0xFFFFFFFF:
            raise WalError(f"txn_id {record.txn_id} outside u32 range")
        addr = _ADDR_TXN.pack(record.page_id, record.slot, record.txn_id)
    else:
        addr = _PAIR.pack(record.page_id, record.slot)
    if rtype in (RecordType.INSERT, RecordType.UPDATE):
        if not record.payload:
            raise WalError(f"{rtype.name} record requires tuple payload")
        return head + addr + record.payload
    if rtype is RecordType.DELETE:
        return head + addr
    if rtype is RecordType.HOT_COLD_MOVE:
        return head + addr + _PAIR.pack(record.aux_page, record.aux_slot)
    if rtype is RecordType.INDEX_CACHE_DROP:
        return head
    raise WalError(f"unencodable record type {rtype!r}")  # pragma: no cover


def encode_frame(record: WalRecord) -> bytes:
    """Encode one record as a complete, CRC-stamped frame."""
    if record.lsn < 1:
        raise WalError(f"LSNs are 1-based, got {record.lsn}")
    payload = _PREFIX.pack(record.lsn, record.rtype) + _encode_body(record)
    if len(payload) > MAX_PAYLOAD:
        raise WalError(f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD")
    return _PAIR.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_body(lsn: int, rtype: RecordType, body: bytes) -> WalRecord:
    if rtype in _JSON_TYPES:
        meta = json.loads(body.decode("utf-8"))
        if not isinstance(meta, dict):
            raise WalError("JSON record body must be an object")
        txn_id = 0
        if rtype in TXN_TYPES:
            if "txn" not in meta:
                raise WalError(f"{rtype.name} record body lacks 'txn'")
            txn_id = int(meta["txn"])
        return WalRecord(lsn=lsn, rtype=rtype, meta=meta, txn_id=txn_id)
    if len(body) < 2:
        raise WalError("record body too short for name prefix")
    name_len = int.from_bytes(body[:2], "little")
    if len(body) < 2 + name_len:
        raise WalError("record body shorter than its name field")
    table = body[2 : 2 + name_len].decode("utf-8")
    rest = body[2 + name_len :]
    if rtype is RecordType.INDEX_CACHE_DROP:
        return WalRecord(lsn=lsn, rtype=rtype, table=table)
    if len(rest) < 8:
        raise WalError("record body shorter than its page address")
    page_id = int.from_bytes(rest[:4], "little")
    slot = int.from_bytes(rest[4:8], "little")
    rest = rest[8:]
    txn_id = 0
    if rtype in HEAP_OP_TYPES:
        if len(rest) < 4:
            raise WalError(f"{rtype.name} record body lacks its txn id")
        txn_id = int.from_bytes(rest[:4], "little")
        rest = rest[4:]
    if rtype in (RecordType.INSERT, RecordType.UPDATE):
        if not rest:
            raise WalError(f"{rtype.name} record has no tuple payload")
        return WalRecord(
            lsn=lsn, rtype=rtype, table=table, page_id=page_id, slot=slot,
            payload=bytes(rest), txn_id=txn_id,
        )
    if rtype is RecordType.DELETE:
        if rest:
            raise WalError("DELETE record has trailing bytes")
        return WalRecord(
            lsn=lsn, rtype=rtype, table=table, page_id=page_id, slot=slot,
            txn_id=txn_id,
        )
    if rtype is RecordType.HOT_COLD_MOVE:
        if len(rest) != 8:
            raise WalError("HOT_COLD_MOVE record needs a destination address")
        return WalRecord(
            lsn=lsn, rtype=rtype, table=table, page_id=page_id, slot=slot,
            aux_page=int.from_bytes(rest[:4], "little"),
            aux_slot=int.from_bytes(rest[4:8], "little"),
        )
    raise WalError(f"undecodable record type {rtype!r}")  # pragma: no cover


@dataclass(frozen=True)
class ScanResult:
    """Outcome of walking a log byte stream from the front.

    ``valid_bytes`` is the length of the replayable prefix: every frame
    wholly inside it decoded and passed its CRC.  ``torn`` is True when
    trailing bytes past that prefix exist (a cut-off or damaged frame) —
    the torn-tail case the writer truncates away on restart.
    """

    records: tuple[WalRecord, ...]
    valid_bytes: int
    torn: bool

    @property
    def max_lsn(self) -> int:
        """Highest durable LSN (0 on an empty log)."""
        return max((r.lsn for r in self.records), default=0)

    @property
    def lsns(self) -> frozenset[int]:
        """The set of durable LSNs — an op "committed" iff its LSN is here."""
        return frozenset(r.lsn for r in self.records)


def scan_wal(data: bytes) -> ScanResult:
    """Decode the valid frame prefix of ``data``; never raises on damage.

    Stops — treating the remainder as a torn tail — at the first frame
    that is incomplete, fails its CRC, or does not decode as a known
    record type.  Garbage is never returned as a record.
    """
    records: list[WalRecord] = []
    pos = 0
    n = len(data)
    while pos + FRAME_HEADER_SIZE <= n:
        payload_len = int.from_bytes(data[pos : pos + 4], "little")
        if payload_len < PAYLOAD_PREFIX_SIZE or payload_len > MAX_PAYLOAD:
            break
        end = pos + FRAME_HEADER_SIZE + payload_len
        if end > n:
            break
        crc = int.from_bytes(data[pos + 4 : pos + 8], "little")
        payload = data[pos + FRAME_HEADER_SIZE : end]
        if zlib.crc32(payload) != crc:
            break
        lsn = int.from_bytes(payload[:8], "little")
        rtype = _TYPE_OF_BYTE[payload[8]]
        if rtype is None:
            break
        try:
            record = _decode_body(lsn, rtype, payload[9:])
        except (ValueError, WalError, UnicodeDecodeError,
                json.JSONDecodeError):
            break
        if lsn < 1:
            break
        records.append(record)
        pos = end
    return ScanResult(
        records=tuple(records), valid_bytes=pos, torn=pos != n
    )


def frame_boundaries(data: bytes) -> list[int]:
    """Byte offsets of every frame end in the valid prefix of ``data``.

    ``frame_boundaries(log)[i]`` is the stream length after which exactly
    ``i + 1`` records are durable — the crash-point grid the matrix test
    walks.
    """
    valid = scan_wal(data).valid_bytes
    boundaries: list[int] = []
    pos = 0
    while pos < valid:
        payload_len = int.from_bytes(data[pos : pos + 4], "little")
        pos += FRAME_HEADER_SIZE + payload_len
        boundaries.append(pos)
    return boundaries
