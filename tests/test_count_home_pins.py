"""Byte pins for the outputs that read where the engine keeps its counts.

``python -m repro.obs fleet|report|export --shards 2`` print the fleet
rollup's ``fleet.*`` instruments, ``top|health|events|trace --shards 2``
print the folded profiler, the fleet SLO verdicts, the journal and the
span trees beside them, and A5 (``run_covering_ablation``) measures a
phase of a buffer pool's counts.  Each output is pinned by sha256.  ``report`` and ``export`` print the facade registry after a
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
        "82e32e3fb1e3fdbe2c7bb5c8a69acbeb38c580fd7aa43dee07bd30501787e24b",
    ),
    "top": (
        {},
        "aa2b8a4be4387c9bb7fe7455ebf3f349af2f03f062c29534b1830abcb7fd84a8",
    ),
    "health": (
        {},
        "e271eea822b1d70c3230259548f58964c9e68ddd5c49b603af7adec1d093c219",
    ),
    "events": (
        {},
        "a184100f39011aee87b353c466527b84ecd8fd1c2fe9b02671bbae11c2314ef2",
    ),
    "trace": (
        {},
        "e12d44c729531b9d98afa9cfc2e0b66ef84c3c64fa8efc45f08c0cc6da90f289",
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
