"""One experiment run's instruments: the ``--trace`` / ``--metrics`` /
``--slo`` / ``--flight-recorder`` flags made live.

:meth:`ObsSession.open` turns the four flag values into an
:class:`ObsSession` holding the tracer and metrics registry to thread
into :class:`~repro.core.service.PredictionService` (the experiment
runner, ``repro.bench.runner``, is what parses them).  After the run,
:meth:`ObsSession.finish` writes the trace artifacts (events JSONL,
Chrome trace with nested spans, spans JSONL), evaluates the stock SLO
set into a health table when ``--slo`` was given, and lists any
post-mortem bundles the flight recorder dumped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.obs.exporters import (
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.trace import NULL_TRACER, Tracer, TracerLike

#: ring capacity for CLI-driven traces: big enough for a --quick run's
#: full event stream, bounded so `all` cannot exhaust memory
CLI_TRACE_CAPACITY = 1 << 20


@dataclass
class ObsSession:
    """Observability instruments for one experiment invocation."""

    tracer: TracerLike
    metrics: MetricsRegistry | None
    trace_path: str | None
    slo: bool = False

    @classmethod
    def open(cls, trace_path: str | None = None, metrics: bool = False,
             slo: bool = False,
             flight_dir: str | None = None) -> ObsSession:
        """Instruments for the flags given.

        ``slo`` and ``flight_dir`` (a
        :class:`~repro.obs.flightrec.FlightRecorder` dumping post-mortem
        bundles into it on trigger events) imply an enabled tracer even
        without ``trace_path``.  With none of them the session is
        inactive - null tracer, no registry - so callers can thread
        ``tracer``/``metrics`` into a service unconditionally.
        """
        tracer: TracerLike
        if flight_dir:
            tracer = FlightRecorder(flight_dir,
                                    capacity=CLI_TRACE_CAPACITY)
        elif trace_path or slo:
            tracer = Tracer(capacity=CLI_TRACE_CAPACITY)
        else:
            tracer = NULL_TRACER
        registry = MetricsRegistry() if metrics else None
        if registry is not None and isinstance(tracer, FlightRecorder):
            tracer.attach_metrics(registry)
        return cls(tracer=tracer, metrics=registry,
                   trace_path=trace_path, slo=slo)

    @property
    def active(self) -> bool:
        return self.tracer.enabled or self.metrics is not None

    def finish(self) -> str:
        """Write artifacts and return a printable summary."""
        lines: list[str] = []
        if self.trace_path and self.tracer.enabled:
            count = write_chrome_trace(self.tracer, self.trace_path)
            events_path = Path(self.trace_path).with_suffix(
                Path(self.trace_path).suffix + "l"
            ) if str(self.trace_path).endswith(".json") else Path(
                str(self.trace_path) + ".jsonl"
            )
            write_jsonl(self.tracer.events(), events_path)
            lines.append(
                f"trace: {count} events -> {self.trace_path} "
                f"(Chrome trace-event; open in Perfetto) and "
                f"{events_path} (JSONL)"
            )
            spans = self.tracer.spans()
            if spans:
                spans_path = Path(str(self.trace_path) + ".spans.jsonl")
                write_jsonl(spans, spans_path)
                lines.append(
                    f"trace: {len(spans)} spans -> {spans_path} (JSONL)")
            if self.tracer.dropped:
                lines.append(
                    f"trace: ring buffer dropped "
                    f"{self.tracer.dropped} oldest events"
                )
            if self.tracer.span_dropped:
                lines.append(
                    f"trace: ring buffer dropped "
                    f"{self.tracer.span_dropped} oldest spans"
                )
        if self.slo and self.tracer.enabled:
            # Evaluate BEFORE listing bundles: a paging SLO records a
            # `slo.page` event, which on a flight recorder triggers one
            # more dump that must appear in the listing below.
            from repro.bench.tables import health_table

            engine = SLOEngine(tracer=self.tracer)
            engine.consume(self.tracer.events())
            verdicts = engine.evaluate()
            lines.append("SLO health (multi-window burn rates):")
            lines.append(health_table(verdicts))
        if isinstance(self.tracer, FlightRecorder):
            for bundle in self.tracer.bundles:
                lines.append(f"flight recorder: post-mortem bundle "
                             f"-> {bundle}")
            if self.tracer.suppressed_dumps:
                lines.append(
                    f"flight recorder: suppressed "
                    f"{self.tracer.suppressed_dumps} dumps past the "
                    f"{self.tracer.max_bundles}-bundle cap")
            if not self.tracer.bundles:
                lines.append(
                    "flight recorder: no trigger fired; no bundle "
                    "written (use FlightRecorder.dump() for a manual "
                    "snapshot)")
        if self.metrics is not None:
            lines.append("metrics snapshot (Prometheus text format):")
            lines.append(prometheus_text(self.metrics).rstrip("\n"))
            lines.append("")
            lines.append("latency histograms (simulated ns):")
            lines.append(histogram_summary(self.metrics))
        return "\n".join(lines)


def histogram_summary(metrics: MetricsRegistry) -> str:
    """Aligned per-histogram percentile table for stdout reports."""
    from repro.bench.tables import format_table

    rows: list[list[object]] = []
    for (name, labels), histogram in metrics.histograms():
        if histogram.count == 0:
            continue
        label_text = ",".join(f"{k}={v}" for k, v in labels)
        snap = histogram.snapshot()
        rows.append([
            name, label_text, snap["count"],
            f"{snap['mean']:.2f}", f"{snap['p50']:.2f}",
            f"{snap['p90']:.2f}", f"{snap['p99']:.2f}",
            f"{snap['max']:.2f}",
        ])
    if not rows:
        return "<no observations>"
    return format_table(
        ["histogram", "labels", "count", "mean", "p50", "p90", "p99",
         "max"],
        rows,
    )
