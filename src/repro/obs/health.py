"""Declarative SLO rules evaluated against sampled telemetry.

Real engines page operators on *sustained* breaches of service-level
objectives — hit rate under a floor, quarantine above a ceiling, WAL
traffic out of proportion — not on single spikes.  A :class:`SloRule`
names a sampler selector (see :func:`repro.obs.sampler.select`), a
comparison against a threshold, and a window of recent samples to
average over; :class:`HealthChecker` evaluates every rule against a
:class:`~repro.obs.sampler.TelemetrySampler` and returns one
:class:`HealthReport`.

Rules that cannot be evaluated (the metric never resolved in the
window — e.g. a WAL rule on a WAL-less database) report ``no-data``:
visible on the dashboard, but not a breach.  The checker writes nothing
into the registry, so health evaluation can never perturb the telemetry
it judges.  With a §5j event journal attached the checker does keep one
piece of state — each rule's last verdict — so it can journal the
*transitions* (``slo.breach`` on ok→breach, ``slo.clear`` on
breach→ok) instead of re-reporting a standing condition every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ObservabilityError
from repro.obs.sampler import TelemetrySampler, select

#: Rule comparison operators: observed OP threshold must hold.
_OPS = {
    "<=": lambda observed, threshold: observed <= threshold,
    ">=": lambda observed, threshold: observed >= threshold,
}


@dataclass(frozen=True)
class SloRule:
    """One declarative objective: ``mean(selector over window) op threshold``."""

    name: str
    selector: str
    op: str
    threshold: float
    window: int = 1

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ObservabilityError(
                f"rule {self.name!r}: op must be one of {sorted(_OPS)}"
            )
        if self.window < 1:
            raise ObservabilityError(f"rule {self.name!r}: window must be >= 1")


@dataclass(frozen=True)
class RuleResult:
    """One evaluated rule."""

    rule: SloRule
    status: str  # "ok" | "breach" | "no-data"
    observed: float | None = None
    samples: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "breach"

    def line(self) -> str:
        mark = {"ok": "OK ", "breach": "FAIL", "no-data": "n/a "}[self.status]
        observed = "-" if self.observed is None else f"{self.observed:.4g}"
        return (
            f"[{mark}] {self.rule.name}: {self.rule.selector} "
            f"{self.rule.op} {self.rule.threshold:g} "
            f"(observed {observed} over {self.samples} sample(s))"
        )


@dataclass(frozen=True)
class HealthReport:
    """Every rule's verdict, dashboard- and JSON-ready."""

    results: tuple[RuleResult, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no rule breached (``no-data`` rules do not fail)."""
        return all(r.ok for r in self.results)

    @property
    def breaches(self) -> list[RuleResult]:
        return [r for r in self.results if r.status == "breach"]

    def format(self, title: str = "engine health") -> str:
        verdict = "OK" if self.ok else f"{len(self.breaches)} BREACH(ES)"
        lines = [f"{title}: {verdict}"]
        lines += [f"  {r.line()}" for r in self.results]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rules": [
                {
                    "name": r.rule.name,
                    "selector": r.rule.selector,
                    "op": r.rule.op,
                    "threshold": r.rule.threshold,
                    "window": r.rule.window,
                    "status": r.status,
                    "observed": r.observed,
                    "samples": r.samples,
                }
                for r in self.results
            ],
        }


#: Default objectives for a cache-heavy engine under a skewed workload.
#: Thresholds are deliberately loose — they are floors/ceilings an
#: *healthy* engine clears easily, so a breach means something broke,
#: not that a workload got mildly colder.
DEFAULT_SLO_RULES: tuple[SloRule, ...] = (
    SloRule(
        # a working set this skewed must mostly hit the pool
        name="bufferpool-hit-rate-floor",
        selector="derived.bufferpool.hit_rate",
        op=">=",
        threshold=0.20,
        window=5,
    ),
    SloRule(
        # confirmed-corrupt pages awaiting recovery
        name="quarantine-ceiling",
        selector="gauge.bufferpool.quarantined_pages",
        op="<=",
        threshold=0.0,
    ),
    SloRule(
        # every detected fault must resolve as recovered
        name="unrecoverable-fault-ceiling",
        selector="rate.faults.unrecoverable",
        op="<=",
        threshold=0.0,
        window=5,
    ),
    SloRule(
        # logged bytes per profiled operation stay page-bounded
        name="wal-overhead-ceiling",
        selector="ratio:rate.wal.bytes/rate.profiler.ops",
        op="<=",
        threshold=4096.0,
        window=5,
    ),
    SloRule(
        # p95 point lookups stay memory-resident (a 5 ms simulated disk read in
        # the tail means the pool is thrashing)
        name="lookup-p95-latency-ceiling",
        selector="p95.span.query.lookup.ns",
        op="<=",
        threshold=1_000_000.0,
        window=5,
    ),
)


class HealthChecker:
    """Evaluates a rule set against a sampler's retained points.

    ``journal`` (optional, a :class:`~repro.obs.events.EventJournal`)
    receives ``slo.breach`` / ``slo.clear`` events on verdict
    *transitions* — a rule entering breach journals once, not once per
    evaluation.  ``no-data`` verdicts never transition either way.
    """

    def __init__(
        self,
        sampler: TelemetrySampler,
        rules: tuple[SloRule, ...] | list[SloRule] = DEFAULT_SLO_RULES,
        journal=None,
    ) -> None:
        self._sampler = sampler
        self.rules = tuple(rules)
        self.journal = journal
        self._last_status: dict[str, str] = {}

    def evaluate(self) -> HealthReport:
        points = self._sampler.points
        results = []
        for rule in self.rules:
            window = points[-rule.window:]
            values = [
                v for v in (select(p, rule.selector) for p in window)
                if v is not None
            ]
            if not values:
                results.append(RuleResult(rule, "no-data"))
                continue
            observed = sum(values) / len(values)
            ok = _OPS[rule.op](observed, rule.threshold)
            result = RuleResult(
                rule,
                "ok" if ok else "breach",
                observed=observed,
                samples=len(values),
            )
            results.append(result)
            if self.journal is not None:
                self._note_transition(result)
        return HealthReport(tuple(results))

    def _note_transition(self, result: RuleResult) -> None:
        from repro.obs.events import SLO_BREACH, SLO_CLEAR

        previous = self._last_status.get(result.rule.name)
        self._last_status[result.rule.name] = result.status
        if result.status == "breach" and previous != "breach":
            self.journal.emit(
                SLO_BREACH,
                rule=result.rule.name,
                selector=result.rule.selector,
                observed=result.observed,
                threshold=result.rule.threshold,
            )
        elif result.status == "ok" and previous == "breach":
            self.journal.emit(
                SLO_CLEAR,
                rule=result.rule.name,
                observed=result.observed,
            )
