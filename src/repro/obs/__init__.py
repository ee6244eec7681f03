"""Observability for the Prediction System Service stack.

White-box instrumentation (PRETZEL-style): a bounded structured event
tracer with causal request spans, a metrics registry with log-bucketed
latency histograms, declarative SLOs with multi-window error-budget
burn rates, an always-on flight recorder dumping CRC-checked
post-mortem bundles, and exporters for JSONL, Chrome trace-event JSON
(Perfetto, with nested spans and cross-shard flow arrows), and
Prometheus text.  See ``docs/OBSERVABILITY.md`` for the event schema,
the span tree, and a post-mortem walkthrough.

Everything is opt-in: components default to :data:`NULL_TRACER` and no
registry, so the disabled hot path pays a single attribute or ``None``
check and allocates nothing.
"""

from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flightrec import (
    BUNDLE_SCHEMA,
    TRIGGER_KINDS,
    FlightRecorder,
    load_bundle,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.postmortem import (
    critical_paths,
    render_bundle,
    render_tree,
)
from repro.obs.session import ObsSession, histogram_summary
from repro.obs.slo import (
    SLO,
    SLOEngine,
    SLOVerdict,
    default_slos,
)
from repro.obs.spans import (
    SPAN_NAMES,
    Span,
    span_children,
    validate_spans,
)
from repro.obs.trace import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    SpanHandleLike,
    TraceEvent,
    Tracer,
    TracerLike,
)

__all__ = [
    "EVENT_KINDS",
    "NULL_TRACER",
    "NullTracer",
    "SPAN_NAMES",
    "Span",
    "SpanHandleLike",
    "TraceEvent",
    "Tracer",
    "TracerLike",
    "span_children",
    "validate_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLO",
    "SLOEngine",
    "SLOVerdict",
    "default_slos",
    "BUNDLE_SCHEMA",
    "TRIGGER_KINDS",
    "FlightRecorder",
    "load_bundle",
    "critical_paths",
    "render_bundle",
    "render_tree",
    "ObsSession",
    "histogram_summary",
    "chrome_trace",
    "prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
