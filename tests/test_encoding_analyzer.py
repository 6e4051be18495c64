"""Column profiling (§4.1)."""

import pytest

from repro.core.encoding.analyzer import profile_column
from repro.errors import SchemaError
from repro.schema.types import INT64, TIMESTAMP_STR14, UINT32, char, varchar


def test_int_range_and_distinct():
    p = profile_column("x", INT64, [5, -3, 10, 5])
    assert p.min_int == -3
    assert p.max_int == 10
    assert p.distinct_count == 3
    assert not p.bool_like
    assert p.max_int - p.min_int == 13


def test_bool_like_detection():
    assert profile_column("f", INT64, [0, 1, 1, 0]).bool_like
    assert not profile_column("f", INT64, [0, 1, 2]).bool_like


def test_constant_detection():
    p = profile_column("c", UINT32, [7] * 100)
    assert p.is_constant
    assert p.distinct_count == 1


def test_timestamp14_string_detection():
    good = ["20100101000000", "20111231235959"]
    p = profile_column("ts", TIMESTAMP_STR14, good)
    assert p.all_timestamp14_strings
    p2 = profile_column("ts", char(14), good + ["not-a-ts"])
    assert not p2.all_timestamp14_strings


def test_numeric_string_detection():
    p = profile_column("n", varchar(10), ["123", "-45", "0"])
    assert p.all_numeric_strings
    assert p.numeric_min == -45
    assert p.numeric_max == 123
    p2 = profile_column("n", varchar(10), ["123", "abc"])
    assert not p2.all_numeric_strings


def test_max_strlen():
    p = profile_column("s", char(20), ["a", "abcde", ""])
    assert p.max_strlen == 5


def test_distinct_cap_saturates():
    values = list(range(100))
    p = profile_column("x", INT64, values, distinct_cap=10)
    assert p.distinct_count == 10
    assert p.distinct_capped
    assert not p.is_constant


def test_empty_column_rejected():
    with pytest.raises(SchemaError):
        profile_column("x", INT64, [])


def test_int_facts_absent_for_strings():
    p = profile_column("s", char(4), ["ab"])
    assert p.min_int is None
    assert p.max_int is None
    assert not p.bool_like
    assert None in (p.min_int, p.max_int)  # no range span
