"""Byte pins for the outputs that read where the engine keeps its counts.

``python -m repro.obs fleet|report|export --shards 2`` print the fleet
rollup's ``fleet.*`` instruments, and A5 (``run_covering_ablation``)
measures a phase of a buffer pool's counts.  Each output is pinned by
sha256.  ``report`` and ``export`` print the facade registry after the
last WAL flush, which comes after the last rollup refresh: the lines that
show a fleet counter a shard has moved since are pinned as text (by line
number), and the digest covers every other line.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.ablations import run_covering_ablation
from repro.obs.__main__ import main

from tests.test_obs_cli import TINY

pytestmark = pytest.mark.obs


def _digest(text: str, lines: dict[int, str]) -> str:
    """sha256 of ``text`` without the numbered ``lines``, each of which
    must read as given (trailing blanks aside)."""
    out = text.splitlines()
    for number, expected in lines.items():
        assert out[number - 1].rstrip() == expected, number
    kept = [line for i, line in enumerate(out, 1) if i not in lines]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


#: command -> (line number -> text, digest of the other lines).
OBS_PINS = {
    "fleet": (
        {},
        "ea41d7a0eee8b7c65317ea49504be7f783891c66877584ace8299b652cca3bd9",
    ),
    "report": (
        {
            68: "fleet.wal.bytes                               7794",
            70: "fleet.wal.flushes                             18",
        },
        "da049551a7e966de3bb467aace323519154bb70ba98ceccf0b95ba42ac487734",
    ),
    "export": (
        {
            372: '        "bytes": 7794,',
            374: '        "flushes": 18,',
        },
        "702608ca3621aa15909fb5f726e28d5093a5f4da83c6ea5dfbf82a1d343a9881",
    ),
}


@pytest.mark.parametrize("command", sorted(OBS_PINS))
def test_sharded_obs_output_is_pinned(command, capsys):
    lines, digest = OBS_PINS[command]
    assert main([command, "--shards", "2", *TINY]) == 0
    assert _digest(capsys.readouterr().out, lines) == digest


def test_covering_ablation_is_pinned():
    text = repr(run_covering_ablation())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cb024ee860224afcfcce17936bfd9491f8a29f11524f8ae6b76fb5584ba5d6af"
    )
