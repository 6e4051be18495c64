"""Byte pins for the outputs that read where the engine keeps its counts.

``python -m repro.obs fleet|report|export --shards 2`` print the fleet
rollup's ``fleet.*`` instruments, and A5 (``run_covering_ablation``)
measures a phase of a buffer pool's counts.  Each output is pinned by
sha256.  ``report`` and ``export`` print the facade registry after a
rollup refresh that follows the last WAL flush, so the merged histograms
and the counters beside them read one instant and the digest covers every
line.  (When the last refresh came before that flush, ``fleet.wal.flushes``
read 18 beside ``fleet.wal.group_commit.batch_records n=16``.)
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
        {},
        "1980f68e4e645ec10720bdeca2fa3d6695a9717c9de7b97b48abdcdc93ae0901",
    ),
    "export": (
        {},
        "8db822458d853596399b204a20a8a7ecc9c5ddccb58c943aeb9f6edc325fb849",
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
