"""Render flight-recorder bundles: causal trees and critical paths.

``python -m repro postmortem BUNDLE`` loads a CRC-checked bundle
(:func:`repro.obs.flightrec.load_bundle`), reconstructs the span forest,
and prints (1) the trigger and counters, (2) the causal tree of the most
recent requests with per-span simulated-ns durations and statuses, and
(3) the slowest root-to-leaf critical paths - the "why was p99 slow"
answer the flat event ring cannot give.

``python -m repro postmortem TRACE.jsonl [--request N] [--slowest K]``
reads a JSONL event trace instead and answers "where did this
request's time go" from the ``request`` records: one stage table -
queue wait / batch window / crossing / total, with rows, trigger and
shard - for request ``N`` (1-based, in settle order), or for the ``K``
slowest, then where those ``K`` spent their summed sojourn.  A request
refused or load-shed at submit has no stages (a shed's record is its
``queue.shed`` event); ``--request N`` prints why it was turned away
instead.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.flightrec import load_bundle
from repro.obs.trace import TraceEvent, span_children

#: cap the rendered tree; a bundle can hold tens of thousands of spans
MAX_TREE_SPANS = 200
MAX_PATHS = 5
#: how many of a trace's slowest requests get a stage table by default
MAX_REQUESTS = 3

#: how a submitted request ended: its ``request`` record or - load-shed
#: at submit, which leaves none - its ``queue.shed``
SETTLED_KINDS = ("request", "queue.shed")

USAGE = ("usage: python -m repro postmortem BUNDLE.json\n"
         "       python -m repro postmortem TRACE.jsonl "
         "[--request N] [--slowest K]")


#: an exported span, as a bundle or ``spans.jsonl`` holds it
SpanDict = Mapping[str, Any]


def _dur(span: SpanDict) -> float:
    return float(span["end_ns"] - span["start_ns"])


def _where(span: SpanDict, pad: str = "  ") -> str:
    where = "/".join(span[part] for part in ("domain", "shard")
                     if span.get(part))
    return f"{pad}({where})" if where else ""


def _forest(spans: Sequence[SpanDict]
            ) -> tuple[list[SpanDict], dict[int, list[SpanDict]]]:
    """Roots + children map; spans whose parent was evicted from the
    ring are treated as roots (a bundle keeps the most recent window,
    not necessarily whole trees)."""
    ids = {span["span_id"] for span in spans}
    roots = [span for span in spans if span["parent_id"] not in ids]
    return roots, span_children(spans)


def render_tree(spans: Sequence[SpanDict],
                max_spans: int = MAX_TREE_SPANS) -> str:
    """Indented causal tree, one line per span, most recent roots last."""
    roots, children = _forest(spans)
    lines: list[str] = []

    def visit(span: SpanDict, depth: int) -> None:
        if len(lines) >= max_spans:
            return
        status = "" if span["status"] == "ok" else f"  [{span['status']}]"
        extra = f"  {span['detail']}" if span.get("detail") else ""
        lines.append(f"{'  ' * depth}{span['name']}{_where(span)}"
                     f"  {_dur(span):.2f} ns{status}{extra}")
        for child in children.get(span["span_id"], []):
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    if not lines:
        return "(no spans recorded)"
    if len(lines) >= max_spans:
        lines.append(f"... ({len(spans)} spans; showing first {max_spans})")
    return "\n".join(lines)


def critical_paths(spans: Sequence[SpanDict], top: int = MAX_PATHS
                   ) -> list[tuple[float, list[SpanDict]]]:
    """The ``top`` slowest root-to-leaf paths by root duration.

    Within a tree, the path follows the slowest child at every level -
    the chain that kept the request's critical path busy longest.
    """
    roots, children = _forest(spans)
    paths: list[tuple[float, list[SpanDict]]] = []
    for root in sorted(roots, key=_dur, reverse=True)[:top]:
        path = [root]
        while kids := children.get(path[-1]["span_id"]):
            path.append(max(kids, key=_dur))
        paths.append((_dur(root), path))
    return paths


def render_critical_paths(spans: Sequence[SpanDict],
                          top: int = MAX_PATHS) -> str:
    paths = critical_paths(spans, top=top)
    if not paths:
        return "(no spans recorded)"
    return "\n".join(
        f"{dur_ns:10.2f} ns  {' -> '.join(span['name'] for span in path)}"
        for dur_ns, path in paths)


def render_bundle(payload: dict[str, Any]) -> str:
    """Full post-mortem text for one loaded bundle payload."""
    spans = list(payload.get("spans", []))
    open_spans = list(payload.get("open_spans", []))
    events = payload.get("events", [])
    lines = [
        f"post-mortem bundle (schema {payload.get('schema')})",
        f"trigger: {payload.get('trigger')}   seq: {payload.get('seq')}",
        f"events: {len(events)} (+{payload.get('dropped_events', 0)} "
        f"dropped)   spans: {len(spans)} "
        f"(+{payload.get('dropped_spans', 0)} dropped)   "
        f"open at trigger: {len(open_spans)}",
        "",
        "== causal tree (completed spans) ==",
        render_tree(spans),
    ]
    if open_spans:
        lines += [
            "",
            "== open at trigger (crash context, outermost first) ==",
        ]
        for span in open_spans:
            lines.append(f"  {span['name']}{_where(span, ' ')} "
                         f"started at {span['start_ns']:.2f} ns")
    lines += [
        "",
        "== slowest critical paths ==",
        render_critical_paths(spans),
    ]
    tail = [e for e in events if e.get("kind") == payload.get("trigger")]
    if tail:
        lines += ["", "== trigger event ==", f"  {tail[-1]}"]
    return "\n".join(lines)


def request_stages(record: TraceEvent | Mapping[str, Any]
                   ) -> dict[str, float]:
    """One ``request`` record's sojourn, split at its stamps.

    *queue wait*: submitted, but its dispatcher was still busy with an
    earlier batch; *batch window*: the dispatcher was collecting the
    batch that took it; *crossing*: drained, charged the boundary and
    served.  Differences of the record's monotone stamps, so the three
    telescope to ``dur_ns`` (a request that arrived inside the window
    waited in no queue: its window starts at its own submit).
    """
    if isinstance(record, TraceEvent):
        record = record.as_dict()
    detail = record["detail"]
    submitted = record["ts_ns"]
    collecting = max(submitted, detail["collect_ns"])
    return {
        "queue wait": collecting - submitted,
        "batch window": detail["drained_ns"] - collecting,
        "crossing": detail["settled_ns"] - detail["drained_ns"],
    }


def render_request(index: int, record: Mapping[str, Any]) -> str:
    """The stage table of request ``index`` (1-based, settle order),
    or - refused or shed at submit, so never in a batch - why it was
    turned away."""
    detail = record["detail"]
    shard = f" (shard {record['shard']})" if record.get("shard") else ""
    total = record["dur_ns"]
    if record["kind"] == "queue.shed":
        outcome = f"shed:{detail['reason']}"
        why = f"shed at submit ({detail['reason']}, depth {detail['depth']})"
    else:
        outcome = detail["outcome"]
        why = f"refused at submit ({outcome.partition(':')[2]})"
    head = (f"request {index}  {detail['op']} {record['domain']}{shard}  "
            + outcome)
    submitted = f"  {'submitted at':<13}{record['ts_ns']:>12.2f} ns"
    if "settled_ns" not in detail:
        return "\n".join([
            head, submitted, f"  {why}: never queued, no stages"])
    lines = [
        f"{head}  batch of {detail['rows']}, trigger {detail['trigger']}",
        submitted,
    ]
    for stage, ns in request_stages(record).items():
        share = f"{100.0 * ns / total:>7.1f} %" if total else ""
        lines.append(f"  {stage:<13}{ns:>12.2f} ns{share}")
    lines.append(f"  {'total':<13}{total:>12.2f} ns")
    return "\n".join(lines)


def render_requests(events: Iterable[Mapping[str, Any]],
                    request: int | None = None,
                    slowest: int = MAX_REQUESTS) -> str:
    """Stage tables from a trace's ``request`` records: request number
    ``request``, or else the ``slowest`` longest sojourns and the share
    of their summed sojourn each stage took.  A ``queue.shed`` record
    is a request too - one turned away at submit - and is numbered and
    counted as one."""
    numbered = list(enumerate(
        (event for event in events if event.get("kind") in SETTLED_KINDS),
        start=1))
    if request is not None:
        if not 1 <= request <= len(numbered):
            raise ValueError(
                f"no request {request}: the trace holds "
                f"{len(numbered)} request records")
        return render_request(*numbered[request - 1])
    if not numbered:
        return "(no request records: not a serve trace)"
    served = [pair for pair in numbered
              if "settled_ns" in pair[1]["detail"]]
    shed = sum(record["kind"] == "queue.shed" for _, record in numbered)
    refused = len(numbered) - len(served) - shed
    turned_away = ", ".join(
        f"{count} more {how} at submit"
        for count, how in ((refused, "refused"), (shed, "shed")) if count)
    ranked = sorted(served, key=lambda pair: pair[1]["dur_ns"],
                    reverse=True)[:slowest]
    blocks = [f"{len(served)} served requests"
              + (f" ({turned_away})" if turned_away else "")
              + f"; the {len(ranked)} slowest:"]
    blocks += [render_request(index, record) for index, record in ranked]
    stages = [request_stages(record) for _, record in ranked]
    total = sum(sum(split.values()) for split in stages)
    if total:
        blocks.append("their summed sojourn: " + " / ".join(
            f"{stage} {100.0 * sum(s[stage] for s in stages) / total:.0f} %"
            for stage in stages[0]))
    return "\n\n".join(blocks)


def main(argv: Sequence[str]) -> int:
    """``python -m repro postmortem`` entry point: a bundle's causal
    tree, or (a ``.jsonl`` path) a trace's request stage tables."""
    args = list(argv)
    options: dict[str, int] = {}
    while len(args) >= 3 and args[-2] in ("--request", "--slowest") \
            and args[-1].isdigit():
        options[args[-2][2:]] = int(args[-1])
        del args[-2:]
    explain = len(args) == 1 and args[0].endswith(".jsonl")
    if len(args) != 1 or args[0].startswith("-") \
            or (options and not explain):
        print(USAGE, file=sys.stderr)
        return 2
    try:
        if explain:
            with open(args[0], encoding="utf-8") as handle:
                events = [json.loads(line) for line in handle
                          if line.strip()]
            text = render_requests(events, options.get("request"),
                                   options.get("slowest", MAX_REQUESTS))
        else:
            text = render_bundle(load_bundle(args[0]))
    except (OSError, ValueError) as exc:
        print(f"postmortem: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0
