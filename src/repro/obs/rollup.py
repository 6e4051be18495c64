"""Fleet-wide rollups over per-shard metric registries.

Per-shard registries alone are N raw dumps (``shard.<i>.*`` in a
snapshot): to know the fleet's buffer-pool hit rate an operator would
sum counters by hand, and no SLO rule could see cross-shard skew.
:meth:`FleetRollup.refresh` closes that gap with fleet-level aggregates
as real ``fleet.*`` instruments in the facade registry: each counter
adopts the shard counters of its name, so it reads their sum whenever
asked; gauges are summed and log2 histograms *merged bucket-wise*
(exact at bucket granularity) at each refresh, plus per-metric
min/max/mean across shards and the headline skew gauge
``fleet.imbalance.heat`` = hottest shard's page traffic over the mean —
hot-shard imbalance as a first-class signal with its own SLO rule
(:data:`FLEET_SLO_RULES`).

``fleet.*`` is the one fleet aggregate: a sampler over the facade
registry reads it, :func:`fleet_selector` rewrites a single-engine
selector onto it, and ``format_report`` groups rows by first name
segment, so the family shows up as its own ``fleet`` section for free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs.health import SloRule
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sampler import _SELECTOR_KINDS

#: Counter names whose per-shard sum defines a shard's "heat" (page
#: traffic: every hit or miss is one logical page touch).
HEAT_METRICS = ("bufferpool.hit", "bufferpool.miss")


@dataclass(frozen=True)
class FleetStat:
    """Cross-shard summary of one metric (counters/gauges only)."""

    name: str
    total: float
    per_shard: tuple[float, ...]

    @property
    def min(self) -> float:
        return min(self.per_shard)

    @property
    def max(self) -> float:
        return max(self.per_shard)

    @property
    def mean(self) -> float:
        return self.total / len(self.per_shard) if self.per_shard else 0.0

    @property
    def imbalance(self) -> float:
        """max / mean — 1.0 is perfectly balanced, higher is skewed
        (0.0 when the metric is everywhere zero)."""
        mean = self.mean
        return self.max / mean if mean > 0 else 0.0


class FleetRollup:
    """Aggregates shard ``registries`` into ``fleet.*`` instruments in
    ``target`` (the facade registry)."""

    def __init__(
        self, registries: list[MetricsRegistry], target: MetricsRegistry
    ) -> None:
        self._registries = registries
        self._target = target
        #: Per-metric cross-shard stats from the last :meth:`refresh`.
        self.stats: dict[str, FleetStat] = {}
        #: ``(shard index, name)`` of every shard counter adopted so far.
        self._adopted: set[tuple[int, str]] = set()
        self._refreshes = target.counter("fleet.refreshes")
        self._shards_gauge = target.gauge("fleet.shards")
        self._imbalance = target.gauge("fleet.imbalance.heat")
        self._hot_shard = target.gauge("fleet.imbalance.hot_shard")
        self._shards_gauge.set(len(registries))

    def refresh(self) -> dict[str, FleetStat]:
        """Re-materialize every ``fleet.<name>`` gauge and histogram.

        A shard counter is adopted into ``fleet.<counter>`` the first time
        a refresh sees it, so that counter reads the cross-shard sum at
        any time, between refreshes and after a shard reset too.  Gauges
        are set to the sum; histograms are reset and bucket-merged.
        """
        merged: dict[str, list] = {}
        for i, reg in enumerate(self._registries):
            for name, instrument in reg.items():
                merged.setdefault(name, []).append(instrument)
                if (isinstance(instrument, Counter)
                        and (i, name) not in self._adopted):
                    self._adopted.add((i, name))
                    self._target.adopt(instrument, {"value": f"fleet.{name}"})
        stats: dict[str, FleetStat] = {}
        for name, instruments in merged.items():
            kinds = {type(i) for i in instruments}
            if len(kinds) != 1:  # pragma: no cover - shards are uniform
                continue
            first = instruments[0]
            if isinstance(first, Histogram):
                fleet = self._target.histogram(f"fleet.{name}")
                fleet.reset()
                for hist in instruments:
                    fleet.merge_from(hist)
                continue
            values = [i.value for i in instruments]
            total = sum(values)
            if isinstance(first, Gauge):
                self._target.gauge(f"fleet.{name}").set(total)
            stats[name] = FleetStat(name, total, tuple(values))
        self.stats = stats
        heat = [
            sum(
                reg.get(m).value if reg.get(m) is not None else 0
                for m in HEAT_METRICS
            )
            for reg in self._registries
        ]
        mean = sum(heat) / len(heat) if heat else 0.0
        self._imbalance.set(max(heat) / mean if mean > 0 else 0.0)
        self._hot_shard.set(heat.index(max(heat)) if heat else 0)
        self._shards_gauge.set(len(self._registries))
        self._refreshes.inc()
        return stats

    def top_skewed(self, n: int = 5) -> list[FleetStat]:
        """The ``n`` most imbalanced nonzero metrics from the last refresh."""
        ranked = sorted(
            (s for s in self.stats.values() if s.total > 0),
            key=lambda s: (-s.imbalance, s.name),
        )
        return ranked[:n]

    def format(self, n: int = 8) -> str:
        """Human summary: headline skew + the most skewed metrics."""
        lines = [
            f"fleet: {len(self._registries)} shards, "
            f"heat imbalance {self._imbalance.value:.2f}x "
            f"(hot shard {int(self._hot_shard.value)})"
        ]
        for stat in self.top_skewed(n):
            lines.append(
                f"  {stat.name:<40s} total={stat.total:<12g} "
                f"min={stat.min:<10g} max={stat.max:<10g} "
                f"skew={stat.imbalance:.2f}x"
            )
        return "\n".join(lines)


def fleet_selector(selector: str) -> str:
    """Rewrite a single-engine selector to its fleet aggregate:
    ``derived.bufferpool.hit_rate`` → ``derived.fleet.bufferpool.hit_rate``
    (ratio selectors rewrite both sides)."""
    if selector.startswith("ratio:"):
        num, den = selector[len("ratio:"):].split("/", 1)
        return f"ratio:{fleet_selector(num)}/{fleet_selector(den)}"
    for kind in _SELECTOR_KINDS:
        head = kind + "."
        if selector.startswith(head):
            return f"{head}fleet.{selector[len(head):]}"
    return selector


def fleet_rules(rules) -> tuple[SloRule, ...]:
    """Per-engine SLO rules re-targeted at the materialized ``fleet.*``
    aggregates (requires a :class:`FleetRollup` refreshing between
    samples so the fleet instruments carry the window's traffic)."""
    return tuple(
        replace(rule, selector=fleet_selector(rule.selector))
        for rule in rules
    )


#: Fleet-level SLO rules: evaluate against a sampler whose registry is
#: the facade's (where ``fleet.*`` is materialized).
FLEET_SLO_RULES = (
    SloRule(
        # hottest shard carries <= 2.5x the mean page traffic
        name="fleet_heat_balance",
        selector="gauge.fleet.imbalance.heat",
        op="<=",
        threshold=2.5,
    ),
)
