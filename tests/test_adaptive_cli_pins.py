"""Byte pins for the single-engine outputs that run the adaptive controller.

``python -m repro.obs health|tune`` always arm the §5f controller and
``timeline --adaptive`` arms it on request; in each, the replay feeds the
controller one sampler window per chunk.  Each stdout is pinned by sha256
at the CLI tests' tiny size; ``tune``'s header line is pinned as text
beside the digest of the rest, so a change to the header alone shows as
that line.
"""

from __future__ import annotations

import pytest

from repro.obs.__main__ import main

from tests.test_count_home_pins import _digest
from tests.test_obs_cli import TINY

pytestmark = pytest.mark.obs

#: argv -> (line number -> text, digest of the other lines).
ADAPTIVE_PINS = {
    ("health",): (
        {},
        "297a4bdede659f0b5c609d1c4e9fe240ff021cd8d02e2c1e1e51088f24ab4709",
    ),
    ("tune",): (
        {1: "adaptive knobs: 2 knob(s)"},
        "2086e616f0558740fd9c69fee4800593b3af96ec439d7137c6b52d10da758ead",
    ),
    ("timeline", "--adaptive"): (
        {},
        "a59e0b076528fc337c371b073796aa4d12c1389aeb97c7ff3a97175380fb8ed5",
    ),
}


@pytest.mark.parametrize("argv", sorted(ADAPTIVE_PINS), ids=" ".join)
def test_adaptive_obs_output_is_pinned(argv, capsys):
    lines, digest = ADAPTIVE_PINS[argv]
    assert main([*argv, *TINY]) == 0
    assert _digest(capsys.readouterr().out, lines) == digest
