"""AdaptiveController: knob envelopes, hysteresis, audit, degenerate windows."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.adaptive import AdaptiveController, Knob, KnobBinding
from repro.obs.health import SloRule
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler

pytestmark = pytest.mark.obs

SIGNAL_RULE = SloRule(
    # test signal must stay at zero
    name="signal-ceiling",
    selector="gauge.test.signal",
    op="<=",
    threshold=0.0,
    window=1,
)


class Holder:
    """A one-value subsystem for knob tests."""

    def __init__(self, value=5.0):
        self.value = value
        self.sets = []

    def get(self):
        return self.value

    def set(self, value):
        self.value = value
        self.sets.append(value)


def make_knob(holder, **kwargs):
    defaults = dict(
        name="test.value", getter=holder.get, setter=holder.set,
        lo=0.0, hi=10.0, step=1.0,
    )
    defaults.update(kwargs)
    return Knob(**defaults)


class Loop:
    """A controller over one gauge-driven rule with a manual clock."""

    def __init__(self, knob, bindings, rules=(SIGNAL_RULE,), **kwargs):
        self.registry = MetricsRegistry()
        self.signal = self.registry.gauge("test.signal")
        self.sampler = TelemetrySampler(self.registry, clock=None)
        self.controller = AdaptiveController(
            self.sampler,
            rules=rules,
            knobs=[knob] if knob is not None else [],
            bindings=bindings,
            registry=self.registry,
            **kwargs,
        )
        self.t = 0.0
        self.sampler.sample(self.t)  # baseline window

    def window(self, breach, dt=1_000.0):
        """Advance one window with the signal in/out of breach."""
        self.signal.set(1.0 if breach else 0.0)
        self.t += dt
        return self.controller.evaluate(self.sampler.sample(self.t))

    def counter(self, name):
        return self.registry.get(name).value


# -- Knob -----------------------------------------------------------------


def test_knob_validation():
    holder = Holder()
    with pytest.raises(ObservabilityError):
        make_knob(holder, kind="bool")
    with pytest.raises(ObservabilityError):
        make_knob(holder, lo=5.0, hi=5.0)
    with pytest.raises(ObservabilityError):
        make_knob(holder, step=0.0)


def test_knob_clamp_and_step():
    knob = make_knob(Holder())
    assert knob.clamp(-3.0) == 0.0
    assert knob.clamp(42.0) == 10.0
    assert knob.stepped(5.0, "up") == 6.0
    assert knob.stepped(5.0, "down") == 4.0
    assert knob.stepped(10.0, "up") == 10.0  # saturated at the bound
    assert knob.stepped(0.0, "down") == 0.0


def test_int_knob_rounds_before_setter():
    holder = Holder(4)
    knob = make_knob(holder, kind="int", step=2.6)
    knob.apply(knob.stepped(4, "up"))
    assert holder.sets == [7]          # 6.6 rounded, delivered as int
    assert isinstance(holder.sets[0], int)


def test_binding_validation():
    with pytest.raises(ObservabilityError):
        KnobBinding("r", "k", "sideways")
    with pytest.raises(ObservabilityError):
        KnobBinding("r", "k", "up", breach_windows=0)
    with pytest.raises(ObservabilityError):
        KnobBinding("r", "k", "up", cooldown_windows=-1)


def test_controller_rejects_unknown_references():
    registry = MetricsRegistry()
    sampler = TelemetrySampler(registry, clock=None)
    knob = make_knob(Holder())
    with pytest.raises(ObservabilityError):
        AdaptiveController(
            sampler, rules=(SIGNAL_RULE,), knobs=[knob],
            bindings=[KnobBinding("no-such-rule", "test.value", "up")],
        )
    with pytest.raises(ObservabilityError):
        AdaptiveController(
            sampler, rules=(SIGNAL_RULE,), knobs=[knob],
            bindings=[KnobBinding("signal-ceiling", "no.such.knob", "up")],
        )
    with pytest.raises(ObservabilityError):
        AdaptiveController(
            sampler, rules=(SIGNAL_RULE,), knobs=[knob, make_knob(Holder())]
        )


# -- hysteresis -----------------------------------------------------------


def binding(**kwargs):
    defaults = dict(breach_windows=2, cooldown_windows=2)
    defaults.update(kwargs)
    return KnobBinding("signal-ceiling", "test.value", "up", **defaults)


def test_single_window_spike_is_a_no_op():
    holder = Holder()
    loop = Loop(make_knob(holder), [binding()])
    assert loop.window(breach=True) == []
    assert loop.window(breach=False) == []
    assert loop.window(breach=True) == []   # streak restarted at 1
    assert holder.value == 5.0
    assert loop.controller.actions == []
    assert loop.counter("adaptive.breach_windows") == 2


def test_sustained_breach_steps_then_cooldown_then_escalates():
    holder = Holder()
    loop = Loop(make_knob(holder), [binding()])
    assert loop.window(breach=True) == []           # streak 1
    actions = loop.window(breach=True)              # streak 2 -> move
    assert [a.knob for a in actions] == ["test.value"]
    assert (actions[0].before, actions[0].after) == (5.0, 6.0)
    assert loop.window(breach=True) == []           # frozen (cooldown)
    assert loop.window(breach=True) == []           # frozen (cooldown)
    assert loop.counter("adaptive.cooldown_skips") == 2
    escalated = loop.window(breach=True)            # past cooldown
    assert escalated[0].after == 7.0
    assert holder.value == 7.0
    assert loop.controller.stats.actions == 2


def test_oscillating_signal_takes_bounded_actions():
    holder = Holder()
    loop = Loop(make_knob(holder), [binding(breach_windows=1)])
    moves = 0
    for i in range(12):
        moves += len(loop.window(breach=(i % 2 == 0)))
    # breach_windows=1 fires on every breach window, but the cooldown
    # (2 evaluations) bounds the rate: at most every 3rd window moves.
    assert moves <= 4
    assert holder.value <= 5.0 + moves


def test_degenerate_windows_do_not_move_knobs_or_streaks():
    holder = Holder()
    loop = Loop(make_knob(holder), [binding()])
    assert loop.window(breach=True) == []           # streak 1
    # Zero-duration window (same logical instant) and a backward clock
    # (crash-restart swapped the cost model): both skipped entirely.
    assert loop.controller.evaluate(loop.sampler.sample(loop.t)) == []
    assert loop.controller.evaluate(loop.sampler.sample(loop.t - 500)) == []
    assert loop.counter("adaptive.degenerate_windows") == 2
    # The streak is still 1, so this breach window is the second: move.
    loop.t += 1_000
    actions = loop.controller.evaluate(loop.sampler.sample(loop.t))
    assert len(actions) == 1
    assert holder.value == 6.0


def test_saturated_knob_records_no_action():
    holder = Holder(10.0)                            # already at hi
    loop = Loop(make_knob(holder), [binding()])
    loop.window(breach=True)
    assert loop.window(breach=True) == []
    assert loop.counter("adaptive.saturated") == 1
    assert loop.controller.actions == []
    assert holder.sets == []                         # setter never called


def test_quantized_step_counts_as_saturated():
    holder = Holder(5.0)
    holder.set_quantized = lambda v: None            # setter ignores input

    knob = Knob(
        name="test.value", getter=holder.get,
        setter=holder.set_quantized, lo=0.0, hi=10.0, step=1.0,
    )
    loop = Loop(knob, [binding()])
    loop.window(breach=True)
    assert loop.window(breach=True) == []            # applied, but no change
    assert loop.counter("adaptive.saturated") == 1
    assert loop.controller.actions == []


def test_audit_ring_is_bounded_and_renders():
    holder = Holder(0.0)
    loop = Loop(
        make_knob(holder),
        [binding(breach_windows=1, cooldown_windows=0)],
        audit_capacity=3,
    )
    for _ in range(6):
        loop.window(breach=True)
    assert loop.controller.stats.actions == 6
    assert len(loop.controller.actions) == 3         # ring kept the newest
    assert loop.controller.actions[-1].seq == 5
    audit = loop.controller.format_audit(limit=2)
    assert "6 applied, 2 shown" in audit
    assert "test.value" in audit
    knobs = loop.controller.format_knobs()
    assert "test.value" in knobs and "[0 .. 10]" in knobs


def test_evaluate_reports_reason_with_rule_and_observation():
    holder = Holder()
    loop = Loop(make_knob(holder), [binding()])
    loop.window(breach=True)
    (action,) = loop.window(breach=True)
    assert action.rule == "signal-ceiling"
    assert "gauge.test.signal <= 0" in action.reason
    assert "breached 2 window(s)" in action.reason
    assert "observed 1" in action.reason
