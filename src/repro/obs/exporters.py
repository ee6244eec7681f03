"""Exporters: JSONL events, Chrome trace-event JSON, Prometheus text.

Three consumers, three formats:

* :func:`write_jsonl` - one JSON object per line, greppable and
  streamable: the raw event log, or the spans.
* :func:`chrome_trace` / :func:`write_chrome_trace` - the Chrome
  trace-event format (``{"traceEvents": [...]}``) loadable in Perfetto
  or ``chrome://tracing``; each (domain, transport) pair becomes its own
  track, operations with a simulated duration are complete events and
  everything else is an instant.  Ended spans render as nested
  complete events on the same tracks, with flow arrows connecting a
  parent span to children living on a *different* track (a client span
  fanning out to per-shard kernel dispatches draws one arrow per shard).
* :func:`prometheus_text` - a Prometheus-style text snapshot of a
  :class:`~repro.obs.metrics.MetricsRegistry`, with log-bucket
  histograms rendered as cumulative ``_bucket{le=...}`` series.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceEvent, TracerLike

#: event kinds that represent work with a duration (Chrome "X" events);
#: everything else is rendered as an instant ("i")
DURATION_KINDS = frozenset({"predict", "update", "reset", "flush"})


def write_jsonl(records: Iterable[TraceEvent], path: str | Path) -> int:
    """Dump records (``tracer.events()`` or ``tracer.spans()``) as JSON
    Lines of their exported form; returns the record count."""
    held = list(records)
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in held:
            handle.write(json.dumps(record.as_dict(),
                                    separators=(",", ":")))
            handle.write("\n")
    return len(held)


def _track_name(event: TraceEvent) -> str:
    if event.domain and event.transport:
        base = f"{event.domain}/{event.transport}"
    else:
        base = event.domain or event.transport or "pss"
    # Multi-shard services prefix the owning shard so Perfetto groups
    # tracks by shard; single-shard events carry no shard label and
    # render exactly as they did before sharding existed.
    if event.shard:
        return f"shard{event.shard}/{base}"
    return base


def chrome_trace(events: Iterable[TraceEvent],
                 spans: Iterable[TraceEvent] = ()) -> dict[str, Any]:
    """Render events (and optionally spans) as a Chrome trace object.

    Timestamps are simulated nanoseconds scaled to the format's
    microsecond unit.  Every (domain, transport) pair gets its own
    ``tid`` plus a ``thread_name`` metadata record, so Perfetto shows
    one labeled track per domain/transport path.

    Spans become nested complete ("X") events on the same tracks.  When
    a child span lives on a different track than its parent - a client
    span dispatching into a shard's kernel track - a flow-event pair
    (``"s"`` on the parent, ``"f"`` with ``bp: "e"`` on the child, both
    sharing the child's span id) draws the causal arrow across tracks.
    """
    pid = 1
    tids: dict[str, int] = {}
    trace_events: list[dict[str, Any]] = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": "prediction-system-service"},
    }]
    body: list[dict[str, Any]] = []

    def track_tid(record: TraceEvent) -> int:
        track = _track_name(record)
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            trace_events.append({
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": track},
            })
        return tid

    for event in events:
        tid = track_tid(event)
        args: dict[str, Any] = {"generation": event.generation}
        if event.detail:
            args.update(event.detail)
        record: dict[str, Any] = {
            "name": event.kind,
            "cat": "pss",
            "pid": pid,
            "tid": tid,
            "ts": event.ts_ns / 1000.0,
            "args": args,
        }
        if event.kind in DURATION_KINDS:
            record["ph"] = "X"
            record["dur"] = event.dur_ns / 1000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"
        body.append(record)

    placed: dict[int, tuple[TraceEvent, int]] = {}
    for span in spans:
        tid = track_tid(span)
        placed[span.span_id] = (span, tid)
        args = {"span_id": span.span_id, "parent_id": span.parent_id,
                "status": span.status}
        if span.detail:
            args.update(span.detail)
        body.append({
            "name": span.kind,
            "cat": "pss.span",
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": span.start_ns / 1000.0,
            "dur": span.dur_ns / 1000.0,
            "args": args,
        })
    for span, tid in placed.values():
        parent = placed.get(span.parent_id)
        if parent is None or parent[1] == tid:
            continue
        # Cross-track causality: arrow from the parent span's track to
        # the child's, anchored at the child's start time.
        ts = span.start_ns / 1000.0
        flow = {"cat": "pss.flow", "name": span.kind, "pid": pid,
                "id": span.span_id}
        body.append({**flow, "ph": "s", "tid": parent[1], "ts": ts})
        body.append({**flow, "ph": "f", "bp": "e", "tid": tid, "ts": ts})

    trace_events.extend(body)
    return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


def write_chrome_trace(tracer: TracerLike, path: str | Path) -> int:
    """Write the tracer's buffer (events plus completed spans) as a
    Chrome trace file; returns the number of exported events + spans."""
    events = tracer.events()
    spans = tracer.spans()
    Path(path).write_text(
        json.dumps(chrome_trace(events, spans), indent=1),
        encoding="utf-8"
    )
    return len(events) + len(spans)


def validate_chrome_trace(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` is a well-formed Chrome
    trace-event object (the schema check CI runs on emitted traces)."""
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("trace root must be an object with 'traceEvents'")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, record in enumerate(events):
        if not isinstance(record, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field in ("ph", "pid", "tid", "name"):
            if field not in record:
                raise ValueError(f"traceEvents[{i}] lacks {field!r}")
        if record["ph"] == "X" and "dur" not in record:
            raise ValueError(f"traceEvents[{i}] is 'X' without 'dur'")
        if record["ph"] in ("s", "f") and "id" not in record:
            raise ValueError(
                f"traceEvents[{i}] is a flow event without 'id'")
        if record["ph"] != "M" and "ts" not in record:
            raise ValueError(f"traceEvents[{i}] lacks 'ts'")


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline.

    Domain names are caller-controlled strings; an unescaped quote in a
    tenant name would otherwise break every series on the line.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_text(labels: tuple[tuple[str, str], ...],
                extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in items)
    return "{" + inner + "}"


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition-format snapshot of the registry.

    All series of one metric family are grouped under a single
    ``# HELP`` + ``# TYPE`` header pair even when their label sets
    differ (the format forbids repeating or interleaving family
    headers), and label values are escaped per the exposition rules.
    """
    # family name -> (kind, series lines), in first-seen order
    families: dict[str, tuple[str, list[str]]] = {}

    def series(name: str, kind: str) -> list[str]:
        family = families.get(name)
        if family is None:
            family = families[name] = (kind, [])
        return family[1]

    for (name, labels), counter in registry.counters():
        name = _sanitize(name)
        series(name, "counter").append(
            f"{name}{_label_text(labels)} {counter.value}")
    for (name, labels), gauge in registry.gauges():
        name = _sanitize(name)
        series(name, "gauge").append(
            f"{name}{_label_text(labels)} {gauge.value}")
    for (name, labels), histogram in registry.histograms():
        name = _sanitize(name)
        out = series(name, "histogram")
        cumulative = 0
        for lo, hi, count in histogram._spans():
            cumulative += count
            bound = _label_text(labels, (("le", f"{hi:g}"),))
            out.append(f"{name}_bucket{bound} {cumulative}")
        bound = _label_text(labels, (("le", "+Inf"),))
        out.append(f"{name}_bucket{bound} {histogram.count}")
        out.append(f"{name}_sum{_label_text(labels)} {histogram.sum}")
        out.append(f"{name}_count{_label_text(labels)} {histogram.count}")

    lines: list[str] = []
    for name, (kind, body) in families.items():
        lines.append(f"# HELP {name} simulated {kind} "
                     "recorded by the pss obs registry")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(body)
    return "\n".join(lines) + "\n"
