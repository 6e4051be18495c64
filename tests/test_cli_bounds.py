"""Every integer flag of the three drill CLIs is checked when it is
parsed: a value below its lower bound exits 2 with argparse's usage
message, never a traceback from deep inside the run."""

from __future__ import annotations

import pytest

from repro.faults.__main__ import main as faults_main
from repro.obs.__main__ import main as obs_main
from repro.wal.__main__ import main as wal_main

CASES = [
    (obs_main, ["timeline", "--width", "0"]),
    (obs_main, ["timeline", "--width", "-1"]),
    (obs_main, ["report", "--rows", "0"]),
    (obs_main, ["report", "--ops", "-1"]),
    (obs_main, ["report", "--batch", "0"]),
    (obs_main, ["report", "--pool-pages", "0"]),
    (obs_main, ["report", "--pool-pages", "1"]),
    (obs_main, ["report", "--samples", "0"]),
    (obs_main, ["report", "--shards", "-1"]),
    (obs_main, ["events", "--shard", "-1"]),
    (faults_main, ["--ops", "-1"]),
    (faults_main, ["--pages", "0"]),
    (faults_main, ["--pool-pages", "1"]),
    (faults_main, ["--sessions", "-1"]),
    (faults_main, ["--shards", "-2"]),
    (wal_main, ["--ops", "-1"]),
    (wal_main, ["--crashes", "-1"]),
    (wal_main, ["--group-commit", "0"]),
    (wal_main, ["--checkpoint-every", "-1"]),
]


@pytest.mark.parametrize(
    "main, argv", CASES,
    ids=[f"{main.__module__.split('.')[1]} {' '.join(argv)}" for main, argv in CASES],
)
def test_out_of_range_numbers_exit_2_with_a_usage_line(main, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err
    assert f"error: argument {argv[-2]}: must be >= " in err
