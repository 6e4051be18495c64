"""Codecs: every claimed saving must round-trip through real bytes."""

import pytest
from hypothesis import given, strategies as st

from repro.core.encoding.codecs import (
    BitPackedIntCodec,
    BooleanBitmapCodec,
    DeltaVarintCodec,
    DictionaryCodec,
    Timestamp14Codec,
)
from repro.errors import SchemaError, TypeMismatchError


def test_bitpacked_for_range():
    codec = BitPackedIntCodec.for_range(100, 115)
    assert codec.bit_width == 4
    values = [100, 107, 115, 103]
    assert codec.decode(codec.encode(values), len(values)) == values


def test_bitpacked_rejects_below_offset():
    codec = BitPackedIntCodec.for_range(10, 20)
    with pytest.raises(TypeMismatchError):
        codec.encode([9])


def test_bitpacked_invalid_range():
    with pytest.raises(SchemaError):
        BitPackedIntCodec.for_range(5, 4)


@given(st.lists(st.integers(min_value=-50, max_value=200), max_size=100))
def test_bitpacked_round_trip_property(values):
    if not values:
        return
    codec = BitPackedIntCodec.for_range(min(values), max(values))
    assert codec.decode(codec.encode(values), len(values)) == values


def test_dictionary_build_and_round_trip():
    values = ["ok", "fail", "ok", "ok", "retry"]
    codec = DictionaryCodec.build(values)
    assert len(codec._values) == 3
    assert codec.decode(codec.encode(values), len(values)) == values


def test_dictionary_unknown_value():
    codec = DictionaryCodec(["a", "b"])
    with pytest.raises(TypeMismatchError):
        codec.encode(["c"])


def test_dictionary_validation():
    with pytest.raises(SchemaError):
        DictionaryCodec([])
    with pytest.raises(SchemaError):
        DictionaryCodec(["a", "a"])


def test_dictionary_single_entry():
    codec = DictionaryCodec(["only"])
    assert codec.bit_width == 1
    assert codec.decode(codec.encode(["only", "only"]), 2) == ["only", "only"]


def test_dictionary_empty_stream():
    codec = DictionaryCodec(["a"])
    assert codec.encode([]) == b""
    assert codec.decode(b"", 0) == []


def test_timestamp14_known_value():
    codec = Timestamp14Codec()
    assert codec.encode_one("19700101000000") == 0
    assert codec.decode_one(0) == "19700101000000"
    epoch = codec.encode_one("20100101000000")
    assert epoch == 1262304000


def test_timestamp14_round_trip_stream():
    codec = Timestamp14Codec()
    values = ["20100101000000", "20111231235959", "19991231235959"]
    data = codec.encode(values)
    assert len(data) == 3 * 4  # 14 bytes -> 4 bytes each, the paper's saving
    assert codec.decode(data, 3) == values


def test_timestamp14_rejects_garbage():
    codec = Timestamp14Codec()
    with pytest.raises(TypeMismatchError):
        codec.encode_one("not-a-timestamp")
    with pytest.raises(TypeMismatchError):
        codec.encode_one("2010")
    with pytest.raises(SchemaError):
        codec.decode(b"\x00" * 3, 1)


@given(st.lists(st.booleans(), max_size=200))
def test_boolean_bitmap_round_trip(values):
    codec = BooleanBitmapCodec()
    assert codec.decode(codec.encode(values), len(values)) == values


def test_boolean_bitmap_density():
    codec = BooleanBitmapCodec()
    assert len(codec.encode([True] * 16)) == 2  # 1 bit per bool


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=100))
def test_delta_varint_round_trip(values):
    values = sorted(values)
    codec = DeltaVarintCodec()
    assert codec.decode(codec.encode(values), len(values)) == values


def test_delta_varint_dense_ids_compress():
    """Auto-increment ids at ~1 byte per value (§4.2's quantitative
    backdrop)."""
    codec = DeltaVarintCodec()
    ids = list(range(340_000_000, 340_001_000))
    data = codec.encode(ids)
    assert len(data) < 1000 + 8  # first value + ~1 byte per delta


def test_delta_varint_rejects_decreasing():
    with pytest.raises(TypeMismatchError):
        DeltaVarintCodec().encode([5, 3])
