"""repro.obs — engine-wide metrics registry, span tracing, and exports.

Every bit-reclaiming subsystem (buffer pool, B+Tree, index cache,
hot/cold manager, encoding migration, query layer) emits into an
injectable :class:`MetricsRegistry`; :class:`NullRegistry` keeps
uninstrumented runs at near-zero overhead and bit-identical outputs.
See DESIGN.md ("Observability") for the metric naming scheme.
"""

from repro.obs.events import (
    DEFAULT_JOURNAL_CAPACITY,
    EVENT_KINDS,
    EngineEvent,
    EventJournal,
)
from repro.obs.rollup import (
    FLEET_SLO_RULES,
    FleetRollup,
    FleetStat,
    fleet_rules,
    fleet_selector,
)
from repro.obs.trace import (
    DEFAULT_TRACE_RING,
    Trace,
    TraceCollector,
    TraceContext,
    TraceSpan,
)
from repro.obs.adaptive import (
    AdaptiveController,
    Knob,
    KnobBinding,
    TuningAction,
    WAL_FLUSH_AMPLIFICATION_RULE,
    database_knobs,
    default_bindings,
    hot_cold_knobs,
)
from repro.obs.health import (
    DEFAULT_SLO_RULES,
    HealthChecker,
    HealthReport,
    RuleResult,
    SloRule,
)
from repro.obs.profiler import (
    FingerprintStats,
    QueryProfile,
    QueryProfiler,
    batch_bucket,
    fingerprint,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    bucket_index,
    bucket_upper_bound,
    get_default_registry,
    percentile_from_buckets,
    resolve_registry,
    set_default_registry,
    use_registry,
)
from repro.obs.report import derived_rates, export_json, format_report
from repro.obs.sampler import TelemetryPoint, TelemetrySampler, select
from repro.obs.tracer import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "bucket_index",
    "bucket_upper_bound",
    "percentile_from_buckets",
    "get_default_registry",
    "resolve_registry",
    "set_default_registry",
    "use_registry",
    "derived_rates",
    "export_json",
    "format_report",
    "Tracer",
    "QueryProfiler",
    "QueryProfile",
    "FingerprintStats",
    "fingerprint",
    "batch_bucket",
    "TelemetrySampler",
    "TelemetryPoint",
    "select",
    "HealthChecker",
    "HealthReport",
    "SloRule",
    "RuleResult",
    "DEFAULT_SLO_RULES",
    "AdaptiveController",
    "Knob",
    "KnobBinding",
    "TuningAction",
    "WAL_FLUSH_AMPLIFICATION_RULE",
    "database_knobs",
    "default_bindings",
    "hot_cold_knobs",
    "DEFAULT_TRACE_RING",
    "Trace",
    "TraceCollector",
    "TraceContext",
    "TraceSpan",
    "DEFAULT_JOURNAL_CAPACITY",
    "EVENT_KINDS",
    "EngineEvent",
    "EventJournal",
    "FLEET_SLO_RULES",
    "FleetRollup",
    "FleetStat",
    "fleet_rules",
    "fleet_selector",
]
