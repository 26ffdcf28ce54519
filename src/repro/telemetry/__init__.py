"""End-to-end telemetry for the simulated CI→HPC stack.

Three pieces, deliberately decoupled from the hot path:

* :class:`Tracer` — hierarchical spans (workflow run → job → step →
  CORRECT action → FaaS task → Slurm job → node execution) with context
  propagation across the async task lifecycle, stamped with virtual
  time, never advancing it.
* :class:`MetricsRegistry` + :class:`EventMetricsBridge` — counters,
  gauges, and histograms derived entirely from :class:`EventLog`
  subscriptions.
* Exporters — Chrome trace-event JSON (Perfetto-loadable) and a
  plain-text report, attachable to provenance records and research
  crates.

The continuous-observability plane builds on the same spine:

* :class:`TimeSeriesStore` — windowed, ring-buffered counter / gauge /
  quantile series fed by the bridge (bounded memory at a million tasks);
* :class:`SLOEngine` — declarative objectives + multi-window burn-rate
  alert rules, emitting ``alert.fired``/``alert.resolved`` events;
* :class:`HealthScorer` — per-endpoint/per-pool health from rolling
  success rate, queue trend, and breaker state;
* OpenMetrics text + JSON dashboard exporters.

``python -m repro trace fig4`` exercises the base layer and
``python -m repro obs fig4`` the observability plane.
"""

from repro.telemetry.export import (
    chrome_trace,
    dumps_chrome_trace,
    text_report,
    validate_chrome_trace,
)
from repro.telemetry.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthScorer,
)
from repro.telemetry.metrics import (
    DEFAULT_BOUNDS,
    BucketHistogram,
    Counter,
    EventMetricsBridge,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.telemetry.openmetrics import (
    dashboard_snapshot,
    openmetrics_text,
    validate_openmetrics,
)
from repro.telemetry.slo import (
    AlertRule,
    Objective,
    SLOEngine,
    default_slo_pack,
    overload_slo_pack,
)
from repro.telemetry.timeseries import (
    DEFAULT_WINDOW,
    CounterSeries,
    GaugeSeries,
    QuantileSeries,
    TimeSeriesStore,
)
from repro.telemetry.sampling import (
    ALWAYS_SAMPLER,
    NEVER_SAMPLER,
    RatioSampler,
)
from repro.telemetry.span import DROPPED_CONTEXT, Span, SpanContext
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer, tracer_of

__all__ = [
    "ALWAYS_SAMPLER",
    "AlertRule",
    "BucketHistogram",
    "Counter",
    "CounterSeries",
    "DEFAULT_BOUNDS",
    "DEFAULT_WINDOW",
    "DEGRADED",
    "DROPPED_CONTEXT",
    "EventMetricsBridge",
    "Gauge",
    "GaugeSeries",
    "HEALTHY",
    "HealthScorer",
    "Histogram",
    "MetricsRegistry",
    "NEVER_SAMPLER",
    "NULL_TRACER",
    "NullTracer",
    "Objective",
    "QuantileSeries",
    "RatioSampler",
    "SLOEngine",
    "Span",
    "SpanContext",
    "TimeSeriesStore",
    "Tracer",
    "UNHEALTHY",
    "chrome_trace",
    "dashboard_snapshot",
    "default_slo_pack",
    "dumps_chrome_trace",
    "openmetrics_text",
    "overload_slo_pack",
    "percentile",
    "text_report",
    "tracer_of",
    "validate_chrome_trace",
    "validate_openmetrics",
]
