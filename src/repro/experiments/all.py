"""Run every experiment driver and print every figure/table.

Usage::

    python -m repro.experiments.all                # everything (~2-3 min)
    python -m repro.experiments.all fig2a fig3     # just the named ones
    python -m repro.experiments.all --json         # + metrics JSON to
                                                   #   experiments_metrics.json
    python -m repro.experiments.all --json=out.json fig2b

With ``--json`` each driver runs under its own
:class:`repro.obs.MetricsRegistry` (installed as the ambient default, so
every pool/tree/cache the driver builds emits into it) and the combined
per-experiment snapshots are written through the
:func:`repro.obs.export_json` exporter.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments import (
    ablations,
    adaptive,
    capacity,
    columnar,
    encoding_waste,
    fig2a,
    fig2b,
    fig2c,
    fig3,
    fill_factor,
    headline,
    shard,
    txn,
)
from repro.obs import MetricsRegistry, derived_rates, use_registry

_DRIVERS = {
    "fig2a": fig2a.main,
    "fig2b": fig2b.main,
    "fig2c": fig2c.main,
    "fig3": fig3.main,
    "capacity": capacity.main,
    "encoding": encoding_waste.main,
    "fill_factor": fill_factor.main,
    "headline": headline.main,
    "ablations": ablations.main,
    "columnar": columnar.main,
    "shard": shard.main,
    "adaptive": adaptive.main,
    "txn": txn.main,
}

DEFAULT_JSON_PATH = "experiments_metrics.json"


def main(names: list[str] | None = None, json_path: str | None = None) -> None:
    chosen = names or list(_DRIVERS)
    unknown = [n for n in chosen if n not in _DRIVERS]
    if unknown:
        raise SystemExit(
            f"unknown experiments {unknown}; available: {list(_DRIVERS)}"
        )
    snapshots: dict[str, dict] = {}
    for name in chosen:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        if json_path is None:
            _DRIVERS[name]()
        else:
            registry = MetricsRegistry()
            with use_registry(registry):
                _DRIVERS[name]()
            snapshots[name] = {
                "metrics": registry.snapshot(),
                "derived": derived_rates(registry),
            }
    if json_path is not None:
        document = {"label": "repro.experiments.all", "experiments": snapshots}
        Path(json_path).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote per-experiment metrics to {json_path}")


def _parse_argv(argv: list[str]) -> tuple[list[str] | None, str | None]:
    names: list[str] = []
    json_path: str | None = None
    for arg in argv:
        if arg == "--json":
            json_path = DEFAULT_JSON_PATH
        elif arg.startswith("--json="):
            json_path = arg.split("=", 1)[1] or DEFAULT_JSON_PATH
        else:
            names.append(arg)
    return (names or None), json_path


if __name__ == "__main__":
    cli_names, cli_json = _parse_argv(sys.argv[1:])
    main(cli_names, json_path=cli_json)
