"""Flight recorder: always-on bounded tracing with crash-triggered dumps.

A :class:`FlightRecorder` *is* a :class:`~repro.obs.trace.Tracer` - same
ring semantics, same span API - that additionally watches the event
stream for trigger kinds (shard crash, breaker open, checkpoint
corruption, SLO page) and, the moment one lands, dumps everything it
holds into a CRC-checked post-mortem bundle: the recent events, the
ended and still-open spans (the open stack is the crash context),
the latest metrics snapshot, and the trigger itself.  Because every
component already records through its tracer, handing them a recorder
instead of a plain tracer needs **zero extra wiring**.

Bundles are deterministic: sequence-numbered file names, canonical JSON,
and a CRC-32 over the canonical payload exactly like the checkpoint
store (:mod:`repro.core.persistence`), so a truncated or hand-edited
bundle is rejected rather than trusted.  Render one with
``python -m repro postmortem BUNDLE`` (:mod:`repro.obs.postmortem`).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: event kinds that trigger an automatic bundle dump
TRIGGER_KINDS = frozenset({
    "shard_crash",
    "breaker_open",
    "checkpoint.corrupt",
    "slo.page",
})

#: bump when the bundle layout changes; the CLI refuses newer schemas
BUNDLE_SCHEMA = 1


class FlightRecorder(Tracer):
    """A tracer that dumps a post-mortem bundle on trigger events.

    ``max_bundles`` bounds disk usage under a trigger storm (a chaos run
    crashing a shard every round): once reached, further triggers only
    count in :attr:`suppressed_dumps`.  :meth:`dump` forces a manual
    bundle regardless of triggers (still subject to the cap).
    """

    def __init__(self, out_dir: str | Path, capacity: int = 65536,
                 clock: Callable[[], float] | None = None,
                 max_bundles: int = 8,
                 triggers: frozenset[str] = TRIGGER_KINDS) -> None:
        super().__init__(capacity=capacity, clock=clock)
        self.out_dir = Path(out_dir)
        self.max_bundles = max_bundles
        self.triggers = triggers
        self.bundles: list[Path] = []
        self.suppressed_dumps = 0
        self._metrics: MetricsRegistry | None = None
        self._dump_seq = 0
        #: every instant lands here - ``record`` and a hot site's bound
        #: ``emit`` alike - so a trigger kind dumps whichever emitted it
        #: (a span's end appends to the ring directly: no span name is
        #: a trigger)
        self.emit = self._emit_watched

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Snapshot this registry into every bundle."""
        self._metrics = metrics

    def _emit_watched(self, event: tuple[Any, ...]) -> None:
        self._ring.append(event)
        kind = event[2]   # (number, ts_ns, kind, ...)
        if kind in self.triggers:
            self.dump(trigger=kind)

    def dump(self, trigger: str = "manual") -> Path | None:
        """Write one bundle now; returns its path (None when capped)."""
        if len(self.bundles) >= self.max_bundles:
            self.suppressed_dumps += 1
            return None
        self._dump_seq += 1
        payload: dict[str, Any] = {
            "schema": BUNDLE_SCHEMA,
            "trigger": trigger,
            "seq": self._dump_seq,
            "events": [event.as_dict() for event in self.events()],
            "spans": [span.as_dict() for span in self.spans()],
            #: spans still on the stack when the trigger fired - the
            #: causal context the crash happened *inside*
            "open_spans": [span.as_dict() for span in self.open_spans()],
            "dropped_events": self.dropped,
            "dropped_spans": self.span_dropped,
            "metrics": (self._metrics.snapshot()
                        if self._metrics is not None else None),
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        bundle = {
            "crc32": zlib.crc32(canonical.encode("utf-8")),
            "bundle": payload,
        }
        slug = trigger.replace(".", "-").replace("_", "-")
        path = self.out_dir / f"postmortem-{self._dump_seq:03d}-{slug}.json"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(bundle, sort_keys=True, indent=1),
                       encoding="utf-8")
        tmp.replace(path)
        self.bundles.append(path)
        return path


def load_bundle(path: str | Path) -> dict[str, Any]:
    """Read and CRC-verify a post-mortem bundle.

    Raises :class:`ValueError` on malformed JSON, an unknown schema, or
    a CRC mismatch - a corrupt post-mortem must fail loudly, it is the
    evidence.
    """
    raw = Path(path).read_text(encoding="utf-8")
    try:
        wrapper = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON bundle: {exc}") from exc
    if not isinstance(wrapper, dict) or "bundle" not in wrapper \
            or "crc32" not in wrapper:
        raise ValueError(f"{path}: missing bundle/crc32 envelope")
    payload = wrapper["bundle"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8"))
    if crc != wrapper["crc32"]:
        raise ValueError(
            f"{path}: CRC mismatch (stored {wrapper['crc32']}, "
            f"computed {crc}); refusing a corrupt post-mortem")
    schema = payload.get("schema")
    if schema != BUNDLE_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bundle schema {schema!r} "
            f"(this build reads schema {BUNDLE_SCHEMA})")
    return payload
