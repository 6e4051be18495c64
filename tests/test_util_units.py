"""Byte/time formatting helpers."""

from repro.util.units import (
    GiB,
    KiB,
    MiB,
    fmt_bytes,
)


def test_byte_constants():
    assert KiB == 1024
    assert MiB == 1024 * KiB
    assert GiB == 1024 * MiB


def test_fmt_bytes_scales():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(1536) == "1.5 KiB"
    assert fmt_bytes(2 * MiB) == "2.0 MiB"
    assert fmt_bytes(1.4 * GiB) == "1.4 GiB"


def test_fmt_bytes_negative():
    assert fmt_bytes(-1536) == "-1.5 KiB"
