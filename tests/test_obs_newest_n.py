"""Every "newest n" reader returns nothing at n = 0, and the CLI's count
options refuse negative values.

``xs[-n:]`` is the whole list at n = 0; each reader below once answered
``-n 0`` with everything it retained.
"""

import json

import pytest

from repro.obs import (
    AdaptiveController,
    EventJournal,
    Knob,
    KnobBinding,
    MetricsRegistry,
    SloRule,
    TelemetrySampler,
    TraceCollector,
)
from repro.obs.__main__ import main

pytestmark = pytest.mark.obs

TINY = ["--rows", "60", "--ops", "300", "--samples", "4", "--pool-pages", "16"]


def _collector():
    collector = TraceCollector()
    for _ in range(3):
        with collector.trace("op"):
            pass
    return collector


def _journal():
    journal = EventJournal()
    for _ in range(3):
        journal.emit("wal.checkpoint")
    return journal


def _audit(limit):
    """``format_audit(limit)`` of a controller that applied three actions."""
    registry = MetricsRegistry()
    signal = registry.gauge("test.signal")
    sampler = TelemetrySampler(registry)
    value = [0.0]
    controller = AdaptiveController(
        sampler,
        rules=[SloRule("signal-ceiling", "gauge.test.signal", "<=", 0.0, 1)],
        knobs=[Knob("test.value", lambda: value[0],
                    lambda v: value.__setitem__(0, v), 0.0, 10.0, 1.0)],
        bindings=[KnobBinding("signal-ceiling", "test.value", "up", 1, 0)],
        registry=registry,
    )
    sampler.sample(0.0)
    signal.set(1.0)
    for t in (1e3, 2e3, 3e3):
        controller.evaluate(sampler.sample(t))
    assert len(controller.actions) == 3
    return controller.format_audit(limit=limit)


def _cli(argv, capsys):
    assert main([*argv, *TINY]) == 0
    return capsys.readouterr().out


# (label, how many items the reader shows for a given n)
READERS = [
    ("TraceCollector.traces", lambda n, _: len(_collector().traces(n))),
    ("EventJournal.query", lambda n, _: len(_journal().query(limit=n))),
    ("EventJournal.as_dicts", lambda n, _: len(_journal().as_dicts(n))),
    ("AdaptiveController.format_audit",
     lambda n, _: _audit(n).count("\n  #")),
    ("trace -n", lambda n, cap: int(
        _cli(["trace", "-n", str(n)], cap).split()[2])),
    ("events -n", lambda n, cap: len(
        _cli(["events", "-n", str(n)], cap).splitlines()) - 1),
    ("export --spans", lambda n, cap: len(
        json.loads(_cli(["export", "--spans", str(n)], cap))["traces"])),
]


@pytest.mark.parametrize(
    "newest", [r[1] for r in READERS], ids=[r[0] for r in READERS],
)
def test_newest_zero_shows_nothing(newest, capsys):
    assert newest(0, capsys) == 0
    assert newest(1, capsys) == 1


@pytest.mark.parametrize("argv", [
    ["top", "-n"], ["trace", "-n"], ["events", "-n"], ["fleet", "-n"],
    ["export", "--spans"], ["health", "--actions"], ["tune", "--actions"],
], ids=" ".join)
def test_cli_counts_refuse_negative_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-1", *TINY])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
