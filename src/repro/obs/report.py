"""Export surfaces: text dashboard and machine-readable JSON.

:func:`format_report` renders a registry as per-subsystem tables (via
:func:`~repro.util.table.format_table`) with derived hit rates next to the
raw counts.  :func:`export_json` writes the same snapshot as one JSON
document (``label`` / ``metrics`` / ``derived``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.util.table import format_table


def derived_rates(registry: MetricsRegistry) -> dict[str, float]:
    """``<prefix>.hit_rate`` for every prefix with hit+miss counters.

    Since-boot rates only: throughput over a window is the
    :class:`~repro.obs.sampler.TelemetrySampler`'s ``rate.<counter>``.
    """
    names = set(registry.names())
    rates: dict[str, float] = {}
    for name in sorted(names):
        if not name.endswith(".hit"):
            continue
        prefix = name[: -len(".hit")]
        miss_name = f"{prefix}.miss"
        if miss_name not in names:
            continue
        hit = registry.get(name)
        miss = registry.get(miss_name)
        if not isinstance(hit, Counter) or not isinstance(miss, Counter):
            continue
        total = hit.value + miss.value
        rates[f"{prefix}.hit_rate"] = hit.value / total if total else 0.0
    return rates


def format_report(
    registry: MetricsRegistry, title: str = "engine metrics"
) -> str:
    """A text dashboard: one table per top-level subsystem.

    Counters and gauges print their value; histograms print count, mean,
    p50, and max; derived ``*.hit_rate`` rows sit beside their counters.
    """
    rows: list[tuple[str, object]] = []
    for name, instrument in registry.items():
        if isinstance(instrument, Histogram):
            rows.append(
                (
                    name,
                    f"n={instrument.count} mean={instrument.mean:.1f} "
                    f"p50<={instrument.percentile(0.5):.0f} "
                    f"max={instrument.max:.0f}",
                )
            )
        elif isinstance(instrument, (Counter, Gauge)):
            rows.append((name, instrument.value))
    rows.extend(sorted(derived_rates(registry).items()))
    if not rows:
        return f"{title}: (no metrics recorded)"
    by_subsystem: dict[str, list[tuple[str, object]]] = {}
    for name, value in sorted(rows):
        # Knob-state gauges get their own section: they describe the
        # engine's current configuration, not the adaptive controller's
        # activity, and must be findable with the controller disabled.
        if name.startswith("adaptive.knob."):
            subsystem = "knobs"
        else:
            subsystem = name.split(".", 1)[0]
        by_subsystem.setdefault(subsystem, []).append((name, value))
    return "\n\n".join(
        format_table(["metric", "value"], table_rows, title=f"{title} — {subsystem}")
        for subsystem, table_rows in sorted(by_subsystem.items())
    )


def export_json(
    registry: MetricsRegistry,
    path: str | Path | None = None,
    label: str = "metrics",
    extra: dict | None = None,
) -> str:
    """Serialize a snapshot (plus derived rates) to JSON.

    Returns the JSON text; with ``path`` also writes it to disk.  The
    document holds a ``label``, a ``metrics`` tree, a flat ``derived``
    map, and whatever ``extra`` adds at the top level (``repro.obs
    export`` adds the newest span trees of the armed
    :class:`~repro.obs.trace.TraceCollector` as ``traces``).
    """
    document = {
        "label": label,
        "metrics": registry.snapshot(),
        "derived": derived_rates(registry),
    }
    if extra:
        document.update(extra)
    text = json.dumps(document, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
