"""Byte and time-unit constants plus human-readable byte formatting.

Experiment tables print sizes ("27.1 GB -> 1.4 GB"); :func:`fmt_bytes`
keeps that formatting consistent.
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

NS_PER_US = 1_000
NS_PER_MS = 1_000_000


def fmt_bytes(n: float) -> str:
    """Render a byte count with a binary-unit suffix, e.g. ``1.4 GiB``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit, divisor in (("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if n >= divisor:
            return f"{sign}{n / divisor:.1f} {unit}"
    return f"{sign}{n:.0f} B"
