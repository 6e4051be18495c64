"""``experiments.adaptive``: the control loop holds SLOs static config breaches."""

import pytest

from repro.experiments.adaptive import AdaptiveConfig, run

pytestmark = pytest.mark.obs

#: Scaled-down but dynamics-preserving: every phase still spans several
#: telemetry windows, so breach streaks, cooldowns, and recovery all fire.
CONFIG = AdaptiveConfig(ops_per_phase=400, chunk=80)

#: The rules the static misconfiguration is guaranteed to violate.
SEPARATOR_RULES = ("wal-flush-amplification-ceiling", "hotcold-hit-rate-floor")


@pytest.fixture(scope="module")
def runs():
    return run(CONFIG)


def _final_status(engine):
    return {r.rule.name: r.status for r in engine.final.results}


def test_static_misconfiguration_breaches_every_window(runs):
    static = runs["static"]
    assert static.actions == []
    status = _final_status(static)
    for rule in SEPARATOR_RULES:
        assert status[rule] == "breach"
        assert static.breach_windows[rule] == static.windows


def test_adaptive_holds_the_slos_static_breaches(runs):
    adaptive = runs["adaptive"]
    status = _final_status(adaptive)
    for rule in SEPARATOR_RULES:
        assert status[rule] == "ok"
        # Tuning needs a few windows to engage; after that the rule holds.
        assert adaptive.breach_windows[rule] < adaptive.windows
    assert adaptive.actions, "the controller must actually have tuned knobs"
    tuned_knobs = {a.knob for a in adaptive.actions}
    assert "wal.group_commit_records" in tuned_knobs
    assert "hotcold.ops_per_epoch" in tuned_knobs


def test_both_engines_answer_identically_and_correctly(runs):
    assert runs["static"].wrong_results == 0
    assert runs["adaptive"].wrong_results == 0
    # Same windows sampled: the controller retunes, it does not reshape
    # the workload or the telemetry cadence.
    assert runs["static"].windows == runs["adaptive"].windows


def test_audit_trail_explains_every_action(runs):
    for action in runs["adaptive"].actions:
        assert action.before != action.after
        assert action.rule in {r.rule.name for r in runs["adaptive"].final.results}
        assert "breached" in action.reason and "observed" in action.reason


def test_run_is_deterministic(runs):
    again = run(CONFIG)["adaptive"]
    first = runs["adaptive"]
    assert [
        (a.knob, a.rule, a.before, a.after, a.t_ns) for a in again.actions
    ] == [
        (a.knob, a.rule, a.before, a.after, a.t_ns) for a in first.actions
    ]
    assert again.breach_windows == first.breach_windows
    assert again.hot_hit_rate == first.hot_hit_rate


def test_fault_drill_passes_with_controller_armed():
    from repro.faults.harness import run_fault_drill

    report = run_fault_drill(n_pages=60, n_ops=300, seed=1, adaptive=True)
    assert report.passed
    assert report.digest == (
        "1f68e3836002081d3e6e7b76a703cfd9805df9c2396aa504d1fc627074558ccf"
    )
    again = run_fault_drill(n_pages=60, n_ops=300, seed=1, adaptive=True)
    assert again.digest == report.digest
    assert (again.metrics["adaptive"]["actions"]
            == report.metrics["adaptive"]["actions"])


def test_default_adaptive_drill_retunes_and_replays_the_plain_drill():
    """At default size the drill feeds its controller a window every
    ``ADAPTIVE_WINDOW_OPS`` operations, across both crash restarts: the
    knobs move, and the sweep and fault history are the plain drill's."""
    from repro.faults.harness import run_fault_drill

    report = run_fault_drill(adaptive=True)
    assert report.passed
    assert report.metrics["adaptive"]["actions"] >= 1
    assert report.digest == (
        "b34e119944d8b374449ace13e5ef828ffa18ec931ff0970fc184b79f6c4553b9"
    )
