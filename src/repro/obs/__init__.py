"""Observability for the Prediction System Service stack.

White-box instrumentation (PRETZEL-style): a bounded structured event
tracer whose spans are events with a duration, a metrics registry with
log-bucketed latency histograms, and declarative SLOs with multi-window
error-budget burn rates.  This package exports what a request runs through; the
subsystems a request never touches are imported from their own
modules: exporters for JSONL, Chrome trace-event JSON and Prometheus
text (:mod:`repro.obs.exporters`), the flight recorder and its
CRC-checked post-mortem bundles (:mod:`repro.obs.flightrec`), their
renderer (:mod:`repro.obs.postmortem`) and the CLI's
:class:`~repro.obs.session.ObsSession`.  See ``docs/OBSERVABILITY.md``
for the event schema, the span tree, and a post-mortem walkthrough.

Everything is opt-in: components default to :data:`NULL_TRACER` and no
registry, so the disabled hot path pays a single attribute or ``None``
check and allocates nothing.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import (
    SLO,
    SLOEngine,
    SLOVerdict,
    default_slos,
)
from repro.obs.trace import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    SpanHandleLike,
    TraceEvent,
    Tracer,
    TracerLike,
    span_children,
    validate_spans,
)

__all__ = [
    "EVENT_KINDS",
    "NULL_TRACER",
    "NullTracer",
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
]
