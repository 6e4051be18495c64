"""AdaptiveController: the telemetry loop closed — SLOs retune the engine.

PR 1 and PR 5 built the measurement pipeline (metrics → sampler windows →
``SloRule`` verdicts); this module makes the verdicts *actuate*.  The
control loop is deliberately boring::

    signals            rules                actions            audit
    sampler windows -> HealthChecker     -> bounded knob    -> TuningAction
    (rates, gauges,    breach streaks       steps with         ring (what,
    percentiles)       per rule             cooldowns          why, before/
                                                               after)

A :class:`Knob` wraps one live engine setting behind a getter/setter pair
with hard bounds, a step size, and a kind (``int`` or ``float``).  A
:class:`KnobBinding` connects one rule to one knob with a direction and
the hysteresis parameters: the rule must breach ``breach_windows``
*consecutive* evaluation windows before the knob moves, and after a move
the knob is frozen for ``cooldown_windows`` further evaluations.  Both
guards exist so a single-window spike or an oscillating signal cannot
thrash a knob — the same reasoning that makes the rules themselves
average over windows.

Every applied change is recorded as a :class:`TuningAction` in a bounded
audit ring: which rule fired, which knob moved, the before/after values,
and a human-readable reason.  Operators read the ring through
``python -m repro.obs tune`` (or ``health``); nothing is ever tuned
silently.

The controller judges the windows its driver samples: whoever calls
``sampler.sample()`` — the ``repro.obs`` replay once per chunk, the
adaptive experiment every ``chunk`` operations, an adaptive fault drill
every few operations — feeds each point to
:meth:`AdaptiveController.evaluate`.
No engine operation calls the controller, so arming it costs the hot
path nothing.  A degenerate window — zero duration, or a backward clock
after a crash-restart swaps the cost model — is counted and skipped: no
rates resolve in it, so acting on it would be acting on noise.

This module imports only sibling ``repro.obs`` modules.  Knob factories
for concrete subsystems (:func:`database_knobs`, :func:`hot_cold_knobs`)
take their targets duck-typed, so ``repro.query`` can depend on this
module without a cycle.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ObservabilityError
from repro.obs.health import DEFAULT_SLO_RULES, HealthChecker, SloRule
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.sampler import TelemetryPoint, TelemetrySampler

#: Extra rule for WAL-attached engines: device appends per logged record.
#: A healthy group commit amortises several records per append; a mean
#: above 0.5 over the window means batches average under two records —
#: the group-commit window is too small for the write rate.
WAL_FLUSH_AMPLIFICATION_RULE = SloRule(
    # group commit must amortise >= 2 records per device append
    name="wal-flush-amplification-ceiling",
    selector="ratio:rate.wal.flushes/rate.wal.records",
    op="<=",
    threshold=0.5,
    window=3,
)


@dataclass
class Knob:
    """One live engine setting the controller may move.

    ``getter``/``setter`` close over the owning subsystem; the controller
    never imports it.  Values are clamped to ``[lo, hi]`` and, for
    ``kind="int"`` knobs, rounded before the setter sees them — a knob can
    therefore never drive its subsystem outside the envelope its author
    declared safe.
    """

    name: str
    getter: Callable[[], float]
    setter: Callable[[float], None]
    lo: float
    hi: float
    step: float
    kind: str = "float"

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float"):
            raise ObservabilityError(
                f"knob {self.name!r}: kind must be 'int' or 'float'"
            )
        if not self.lo < self.hi:
            raise ObservabilityError(
                f"knob {self.name!r}: bounds must satisfy lo < hi"
            )
        if self.step <= 0:
            raise ObservabilityError(f"knob {self.name!r}: step must be > 0")

    def read(self) -> float:
        return float(self.getter())

    def clamp(self, value: float) -> float:
        value = min(max(value, self.lo), self.hi)
        if self.kind == "int":
            value = float(int(round(value)))
        return value

    def stepped(self, value: float, direction: str) -> float:
        """The value one bounded step away (equal to ``value`` at a bound)."""
        delta = self.step if direction == "up" else -self.step
        return self.clamp(value + delta)

    def apply(self, value: float) -> float:
        value = self.clamp(value)
        self.setter(int(value) if self.kind == "int" else value)
        return value


@dataclass(frozen=True)
class KnobBinding:
    """Rule -> knob wiring with the hysteresis parameters."""

    rule: str
    knob: str
    direction: str  # "up" | "down"
    #: Consecutive breach windows required before the knob moves.
    breach_windows: int = 2
    #: Evaluations the knob stays frozen after a move.
    cooldown_windows: int = 2

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ObservabilityError(
                f"binding {self.rule!r}->{self.knob!r}: direction must be "
                "'up' or 'down'"
            )
        if self.breach_windows < 1:
            raise ObservabilityError(
                f"binding {self.rule!r}->{self.knob!r}: breach_windows "
                "must be >= 1"
            )
        if self.cooldown_windows < 0:
            raise ObservabilityError(
                f"binding {self.rule!r}->{self.knob!r}: cooldown_windows "
                "must be >= 0"
            )


@dataclass
class AdaptiveStats:
    """One controller's counts: plain ints the registry adopts, so a
    shared registry holds these and never the knobs bound to an engine."""

    #: Windows judged, degenerate ones included.
    ticks: int = 0
    #: Knob changes applied (the audit ring keeps only the newest).
    actions: int = 0
    breach_windows: int = 0
    cooldown_skips: int = 0
    saturated: int = 0
    degenerate_windows: int = 0


@dataclass(frozen=True)
class TuningAction:
    """One applied knob change — the audit record."""

    seq: int
    t_ns: float
    knob: str
    rule: str
    direction: str
    before: float
    after: float
    reason: str

    def line(self) -> str:
        return (
            f"#{self.seq} t={self.t_ns:.0f}ns {self.knob}: "
            f"{self.before:g} -> {self.after:g} ({self.direction}) "
            f"[{self.rule}] {self.reason}"
        )


class AdaptiveController:
    """Consumes sampler windows + rule verdicts, retunes registered knobs.

    The controller owns a :class:`HealthChecker` over the given rules and
    tracks, per rule, the streak of *consecutive* breach windows.  When a
    binding's streak reaches its threshold and its knob is neither
    cooling down nor saturated at a bound, the knob moves one step and
    the change is recorded.  Streaks are **not** reset by an action: if
    the breach persists past the cooldown, the knob steps again —
    escalation toward the bound is the intended response to a sustained
    breach.
    """

    def __init__(
        self,
        sampler: TelemetrySampler,
        rules: Sequence[SloRule] = DEFAULT_SLO_RULES,
        knobs: Iterable[Knob] = (),
        bindings: Iterable[KnobBinding] = (),
        registry: MetricsRegistry | None = None,
        audit_capacity: int = 64,
        journal=None,
    ) -> None:
        if audit_capacity < 1:
            raise ObservabilityError("audit_capacity must be >= 1")
        self.sampler = sampler
        self._checker = HealthChecker(sampler, tuple(rules), journal=journal)
        rule_names = {r.name for r in self._checker.rules}
        self._knobs: dict[str, Knob] = {}
        for knob in knobs:
            if knob.name in self._knobs:
                raise ObservabilityError(f"duplicate knob {knob.name!r}")
            self._knobs[knob.name] = knob
        self.bindings: tuple[KnobBinding, ...] = tuple(bindings)
        for binding in self.bindings:
            if binding.rule not in rule_names:
                raise ObservabilityError(
                    f"binding references unknown rule {binding.rule!r}"
                )
            if binding.knob not in self._knobs:
                raise ObservabilityError(
                    f"binding references unknown knob {binding.knob!r}"
                )
        self._streaks: dict[str, int] = {}
        self._cooldown_until: dict[str, int] = {}
        self._audit: deque[TuningAction] = deque(maxlen=audit_capacity)
        self.stats = AdaptiveStats()
        reg = resolve_registry(registry)
        reg.adopt(self.stats, {
            "ticks": "adaptive.ticks",
            "actions": "adaptive.actions",
            "breach_windows": "adaptive.breach_windows",
            "cooldown_skips": "adaptive.cooldown_skips",
            "saturated": "adaptive.saturated",
            "degenerate_windows": "adaptive.degenerate_windows",
        })

    # -- properties ----------------------------------------------------------

    @property
    def journal(self):
        """Optional repro.obs.events.EventJournal, held by the checker:
        every applied TuningAction also lands there as a ``tuning.action``
        record, ordered against faults, migrations, and the SLO
        transitions the checker journals.  ``Database.attach_events``
        sets it late when adaptive was armed first."""
        return self._checker.journal

    @journal.setter
    def journal(self, journal) -> None:
        self._checker.journal = journal

    @property
    def actions(self) -> list[TuningAction]:
        """The audit ring, oldest first (bounded by ``audit_capacity``)."""
        return list(self._audit)

    # -- the control loop ----------------------------------------------------

    def evaluate(self, point: TelemetryPoint) -> list[TuningAction]:
        """Judge one freshly sampled window and apply any due actions.

        Call it between operations, where no pin is held, so a knob
        change (pool resize, WAL flush) is safe.
        """
        stats = self.stats
        stats.ticks += 1
        if point.dt_ns <= 0:
            # Zero-duration window, or the clock went backward (a
            # crash-restart swapped the cost model): no rates resolved,
            # so there is nothing trustworthy to act on.  Streaks and
            # cooldowns are left untouched.
            stats.degenerate_windows += 1
            return []
        # Windows judged on their rates: every non-degenerate one.
        evaluated = stats.ticks - stats.degenerate_windows
        report = self._checker.evaluate()
        results = {r.rule.name: r for r in report.results}
        for result in report.results:
            if result.status == "breach":
                self._streaks[result.rule.name] = (
                    self._streaks.get(result.rule.name, 0) + 1
                )
                stats.breach_windows += 1
            else:
                self._streaks[result.rule.name] = 0
        actions: list[TuningAction] = []
        for binding in self.bindings:
            streak = self._streaks.get(binding.rule, 0)
            if streak < binding.breach_windows:
                continue
            until = self._cooldown_until.get(binding.knob)
            if until is not None and evaluated <= until:
                stats.cooldown_skips += 1
                continue
            knob = self._knobs[binding.knob]
            before = knob.read()
            target = knob.stepped(before, binding.direction)
            if target == before:
                stats.saturated += 1
                continue
            knob.apply(target)
            after = knob.read()
            if after == before:
                # The setter quantized the step away (e.g. a fractional
                # knob over an integer resource): effectively saturated,
                # and recording a no-op "change" would pollute the audit.
                stats.saturated += 1
                continue
            self._cooldown_until[binding.knob] = (
                evaluated + binding.cooldown_windows
            )
            result = results[binding.rule]
            rule = result.rule
            observed = "-" if result.observed is None else f"{result.observed:.4g}"
            action = TuningAction(
                seq=stats.actions,
                t_ns=point.t_ns,
                knob=knob.name,
                rule=rule.name,
                direction=binding.direction,
                before=before,
                after=after,
                reason=(
                    f"{rule.selector} {rule.op} {rule.threshold:g} breached "
                    f"{streak} window(s), observed {observed}"
                ),
            )
            stats.actions += 1
            self._audit.append(action)
            journal = self._checker.journal
            if journal is not None:
                from repro.obs.events import TUNING_ACTION

                journal.emit(
                    TUNING_ACTION,
                    knob=knob.name,
                    rule=rule.name,
                    direction=binding.direction,
                    before=before,
                    after=action.after,
                )
            actions.append(action)
        return actions

    # -- rendering -----------------------------------------------------------

    def format_knobs(self, title: str = "adaptive knobs") -> str:
        lines = [f"{title}: {len(self._knobs)} knob(s)"]
        for name in sorted(self._knobs):
            knob = self._knobs[name]
            lines.append(
                f"  {name:<32} = {knob.read():>10g}  "
                f"[{knob.lo:g} .. {knob.hi:g}] step {knob.step:g} ({knob.kind})"
            )
        return "\n".join(lines)

    def format_audit(
        self, limit: int | None = None, title: str = "tuning actions"
    ) -> str:
        actions = self.actions
        if limit is not None:
            actions = actions[max(len(actions) - limit, 0):]
        stats = self.stats
        header = (
            f"{title}: {stats.actions} applied, {len(actions)} shown, "
            f"{stats.ticks - stats.degenerate_windows} window(s) evaluated"
        )
        lines = [header]
        if not actions:
            lines.append("  (none)")
        lines += [f"  {action.line()}" for action in actions]
        return "\n".join(lines)


# -- knob factories -----------------------------------------------------------


def database_knobs(db) -> list[Knob]:
    """The knobs a :class:`~repro.query.database.Database` exposes.

    Duck-typed on the database's adaptive surface (``pool_partition``,
    ``set_pool_partition``, ``wal``, ``set_group_commit``,
    ``cache_admission``, ``set_cache_admission``).  The pool-partition
    knob exists only for split data/index pools — with a shared pool
    there is no boundary to move.  The knobs hold the database weakly:
    through its pools' WAL and tracer, a shared registry that adopted the
    pools holds this controller, and must not hold the engine with it.
    """
    db = weakref.proxy(db)
    knobs: list[Knob] = []
    if db.index_pool is not db.data_pool:
        knobs.append(Knob(
            # fraction of total pool frames holding heap pages
            name="pool.data_fraction",
            getter=lambda: db.pool_partition,
            setter=lambda value: db.set_pool_partition(value),
            lo=0.1, hi=0.9, step=0.1,
        ))
    if db.wal is not None:
        knobs.append(Knob(
            # records per WAL group-commit device append
            name="wal.group_commit_records",
            getter=lambda: db.wal.group_commit_records,
            setter=lambda value: db.set_group_commit(value),
            lo=1, hi=64, step=8, kind="int",
        ))
    knobs.append(Knob(
        # fraction of piggy-back cache fills admitted
        name="index_cache.admission",
        getter=lambda: db.cache_admission,
        setter=lambda value: db.set_cache_admission(value),
        lo=0.1, hi=1.0, step=0.3,
    ))
    return knobs


def hot_cold_knobs(manager) -> list[Knob]:
    """Cadence and hot-fraction knobs for an ``OnlineHotColdManager``.

    Bounds derive from the manager's configured values: capacity may
    grow to 8x and the rebalance epoch may shrink to 64 lookups — the
    adaptive response to a rotated hot set is "track more keys, re-decide
    sooner".
    """
    cap = manager.hot_capacity
    epoch = manager.ops_per_epoch
    return [
        Knob(
            # target rows in the hot partition (hot fraction)
            name="hotcold.hot_capacity",
            getter=lambda: manager.hot_capacity,
            setter=manager.set_hot_capacity,
            lo=max(1, cap // 4),
            hi=cap * 8,
            step=max(1, cap // 2),
            kind="int",
        ),
        Knob(
            # lookups between hot/cold rebalances (cadence)
            name="hotcold.ops_per_epoch",
            getter=lambda: manager.ops_per_epoch,
            setter=manager.set_ops_per_epoch,
            lo=min(64, epoch),
            hi=epoch * 4,
            step=max(1, epoch // 2),
            kind="int",
        ),
    ]


#: (rule, knob, direction) rows for :func:`default_bindings`; rows whose
#: rule or knob is absent from the controller's sets are dropped, so the
#: table can mention every known pairing unconditionally.
_DEFAULT_BINDING_TABLE: tuple[tuple[str, str, str], ...] = (
    ("bufferpool-hit-rate-floor", "pool.data_fraction", "up"),
    ("wal-flush-amplification-ceiling", "wal.group_commit_records", "up"),
)


def default_bindings(
    knobs: Iterable[Knob],
    rules: Iterable[SloRule],
    breach_windows: int = 2,
    cooldown_windows: int = 2,
) -> list[KnobBinding]:
    """Standard rule->knob wiring, filtered to what actually exists."""
    knob_names = {k.name for k in knobs}
    rule_names = {r.name for r in rules}
    return [
        KnobBinding(rule, knob, direction, breach_windows, cooldown_windows)
        for rule, knob, direction in _DEFAULT_BINDING_TABLE
        if rule in rule_names and knob in knob_names
    ]
