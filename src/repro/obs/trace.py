"""Structured event tracing for the PSS stack.

The paper's evaluation reasons about latency *distributions* across the
user/kernel boundary, which means knowing what the service actually did,
event by event: which predictions hit the score cache, when a batch
flushed, when a fault was injected and how the client degraded.  A
:class:`Tracer` is a bounded ring buffer of typed :class:`TraceEvent`
records carrying simulated-nanosecond timestamps; exporters
(:mod:`repro.obs.exporters`) turn the buffer into JSONL, Chrome
trace-event JSON (one track per domain/transport, loadable in Perfetto or
``chrome://tracing``), or plain dicts.

Tracing is opt-in and the disabled path is allocation-free: every traced
component holds :data:`NULL_TRACER` by default and guards each record
with ``if tracer.enabled`` - a single attribute check, no event object is
ever built.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from types import TracebackType
from typing import Any, Callable, NamedTuple, Union, cast

from repro.obs.spans import ROOT_PARENT, Span

#: event kinds emitted by the instrumented stack (transports, clients,
#: fault injector, checkpoint manager).  Exporters and tests treat this
#: as the schema; new kinds must be added here.
EVENT_KINDS = frozenset({
    "predict",            # a prediction crossed (or was served) here;
                          # a vDSO read's detail.cache says "hit"/"miss"
    "update",             # an update record was accepted (maybe buffered)
    "reset",              # a reset crossed via syscall
    "flush",              # a batch of buffered updates crossed
    "stale_read",         # injected vDSO staleness served an old score
    "fault",              # a TransportFault was raised to the caller
    "fault_injected",     # the injector decided to inject (decision time)
    "retry",              # a client retried a failed operation
    "fallback",           # a client served the static fallback
    "breaker_open",       # circuit breaker tripped OPEN
    "breaker_close",      # circuit breaker recovered to CLOSED
    "checkpoint_save",    # a checkpoint file was written
    "checkpoint_restore", # a shard checkpoint file was restored
    "checkpoint.corrupt", # a shard/snapshot file failed validation
    "shard_crash",        # a shard's primary lost its state (injected)
    "migration_start",    # a slot handoff began (source still serving)
    "migration_commit",   # a slot handoff committed (ring flipped)
    "migration_stall",    # a slot handoff made no progress this step
    "replica_sync",       # follower replicas refreshed from a primary
    "replica_promote",    # follower state promoted into a downed shard
    "failover",           # a predict was served by a follower replica
    "predict_batch",      # a batch of predictions crossed in one syscall
    "plan.compile",       # the plan compiler specialized a new shape
    "plan.hit",           # an existing specialized plan was shared
    "slo.page",           # an SLO's error budget is burning page-fast
    "request",            # a submitted request settled: its sojourn, with
                          # its stage stamps (collect / drained / settled),
                          # or - refused at submit - the reason
    "queue.shed",         # an admitted request was shed (back-pressure)
    "batch.flush_timeout",  # a partial batch flushed on window expiry
})


class TraceEvent(NamedTuple):
    """One traced occurrence.

    ``ts_ns`` is simulated nanoseconds on the emitting component's
    timeline (a transport stamps its latency account's cumulative time;
    events with no natural clock get a monotonic sequence number).
    ``dur_ns`` is the simulated cost of the operation (0 for instants).
    """

    ts_ns: float
    kind: str
    domain: str
    transport: str
    dur_ns: float
    generation: int
    detail: dict[str, Any] | None
    #: owning shard on multi-shard services; "" (and omitted from
    #: exports) on single-shard services, keeping their output
    #: byte-identical to pre-sharding traces
    shard: str = ""
    #: enclosing span at record time; 0 (and omitted from exports) when
    #: no span was open, keeping span-free traces byte-identical to
    #: pre-span output
    span_id: int = 0

    def as_dict(self) -> dict[str, Any]:
        d = {
            "ts_ns": self.ts_ns,
            "kind": self.kind,
            "domain": self.domain,
            "transport": self.transport,
            "dur_ns": self.dur_ns,
            "generation": self.generation,
        }
        if self.shard:
            d["shard"] = self.shard
        if self.span_id:
            d["span_id"] = self.span_id
        if self.detail:
            d["detail"] = self.detail
        return d


# Allocation without a Python-level frame: the NamedTuple's generated
# ``__new__`` and a ``Span.__init__`` call would each add one per record.
_new_event = cast("Callable[[type[TraceEvent], tuple[Any, ...]], "
                  "TraceEvent]", tuple.__new__)
_new_span = cast("Callable[[type[Span]], Span]", object.__new__)


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` records.

    When the buffer is full the oldest events are overwritten and
    :attr:`dropped` counts how many were lost - a long run keeps its most
    recent window instead of growing without bound.

    Both rings are ``deque(maxlen=capacity)``: the event ring holds
    plain tuples ``(number, *TraceEvent fields)``, numbered from
    :attr:`next_number`, and :meth:`events` builds the
    :class:`TraceEvent` records only when it is read.  A hot site binds
    :attr:`emit` (the ring's own ``append``), :attr:`next_number` and
    :attr:`span_stack` once and records with one inline tuple append -
    no Python frame; :meth:`record` is the same append for every other
    site.
    """

    enabled = True

    def __init__(self, capacity: int = 65536,
                 clock: Callable[[], float] | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: optional global clock (e.g. a sim Engine's ``now``) used for
        #: events recorded without an explicit timestamp
        self.clock = clock
        self.span_dropped = 0
        self._ring: deque[tuple[Any, ...]] = deque(maxlen=capacity)
        self._spans: deque[Span] = deque(maxlen=capacity)  # completed
        #: open spans, innermost last: emptied only by their own exits,
        #: so the reference a hot site binds stays live
        self.span_stack: list[Span] = []
        #: the record path a hot site binds: append one event tuple,
        #: ``(next_number(), ts_ns, kind, domain, transport, dur_ns,
        #: generation, detail, shard, span_id)``
        self.emit: Callable[[tuple[Any, ...]], None] = self._ring.append
        self.next_number: Callable[[], int] = count(1).__next__
        # Fallback timestamp of a clockless record: its number plus the
        # span enters and exits so far (one monotonic sequence).
        self._ticks = 0
        self._cleared_at = 0   # the last event number at clear()
        self._next_span_id = 1

    def __len__(self) -> int:
        return len(self._ring)

    def _last_number(self) -> int:
        """The newest event's number (the last one before a
        :meth:`clear` while the ring is empty)."""
        ring = self._ring
        number: int = ring[-1][0] if ring else self._cleared_at
        return number

    @property
    def dropped(self) -> int:
        """Events overwritten since the last :meth:`clear`: every
        number issued since then that the ring no longer holds."""
        return self._last_number() - self._cleared_at - len(self._ring)

    def record(self, kind: str, domain: str = "", transport: str = "",
               ts_ns: float | None = None, dur_ns: float = 0.0,
               generation: int = 0,
               detail: dict[str, Any] | None = None,
               shard: str = "") -> None:
        """Append one event, evicting the oldest when full.

        The event attaches to the innermost open span, if any - flat
        events are not replaced by spans, they become their leaves.
        """
        number = self.next_number()
        if ts_ns is None:
            ts_ns = self.clock() if self.clock is not None else float(
                number + self._ticks)
        stack = self.span_stack
        self.emit((number, ts_ns, kind, domain, transport, dur_ns,
                   generation, detail, shard,
                   stack[-1].span_id if stack else ROOT_PARENT))

    def span(self, name: str, domain: str = "", transport: str = "",
             shard: str = "", ts_ns: float | None = None,
             detail: dict[str, Any] | None = None,
             clock: Callable[[], float] | None = None) -> Span:
        """Open a span for the duration of a ``with`` block.

        The only way to open a span, as a ``with`` item (the tracer
        has no begin / end pair): the returned
        :class:`~repro.obs.spans.Span` is its own context manager and
        closes on every path, stamping ``status`` from the in-flight
        exception.  ``clock`` overrides the tracer clock for this span
        and the spans nested in it (transports pass their latency
        account so durations are simulated ns).  This allocates the
        span and nothing else.
        """
        opened = _new_span(Span)
        opened.span_id = opened.parent_id = ROOT_PARENT
        opened.start_ns = opened.end_ns = 0.0
        opened.name = name
        opened.domain = domain
        opened.transport = transport
        opened.shard = shard
        opened.status = "open"
        opened.detail = detail
        opened._tracer = self
        opened._clock = clock
        opened._ts_ns = ts_ns
        return opened

    def current_span_id(self) -> int:
        stack = self.span_stack
        return stack[-1].span_id if stack else ROOT_PARENT

    def events(self) -> list[TraceEvent]:
        """All buffered events, oldest first."""
        return [_new_event(TraceEvent, event[1:]) for event in self._ring]

    def spans(self) -> list[Span]:
        """All completed spans, completion order (children first)."""
        return list(self._spans)

    def open_spans(self) -> list[Span]:
        """Spans still on the stack (outermost first) - crash context."""
        return list(self.span_stack)

    def clear(self) -> None:
        """Forget every buffered event and completed span.

        Spans still open stay on the stack - they close into the
        emptied ring - and the ids they hold are never handed out
        again.  Both rings are emptied in place, so what a hot site
        bound stays live.
        """
        self._cleared_at = self._last_number()
        self._ring.clear()
        self._spans.clear()
        self.span_dropped = 0
        stack = self.span_stack
        self._next_span_id = stack[-1].span_id + 1 if stack else 1


class NullTracer:
    """Disabled tracer: records nothing, allocates nothing.

    Components default to this so the hot path pays only one attribute
    check (``tracer.enabled``) when tracing is off.
    """

    enabled = False
    capacity = 0
    dropped = 0
    span_dropped = 0
    clock: Callable[[], float] | None = None
    #: the emit path's names are inert too (``emit``, ``next_number``
    #: below): a site binds them all, and records only while ``enabled``
    span_stack: tuple[Span, ...] = ()

    def __len__(self) -> int:
        return 0

    def record(self, kind: str, domain: str = "", transport: str = "",
               ts_ns: float | None = None, dur_ns: float = 0.0,
               generation: int = 0,
               detail: dict[str, Any] | None = None,
               shard: str = "") -> None:
        pass

    def span(self, name: str, domain: str = "", transport: str = "",
             shard: str = "", ts_ns: float | None = None,
             detail: dict[str, Any] | None = None,
             clock: Callable[[], float] | None = None) -> NullSpanHandle:
        return NULL_SPAN_HANDLE

    def current_span_id(self) -> int:
        return 0

    def events(self) -> list[TraceEvent]:
        return []

    def spans(self) -> list[Span]:
        return []

    def open_spans(self) -> list[Span]:
        return []

    def clear(self) -> None:
        pass

    def emit(self, event: tuple[Any, ...]) -> None:
        pass

    def next_number(self) -> int:
        return 0


class NullSpanHandle:
    """Shared no-op span context: nothing allocated, nothing recorded."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        return None


#: shared inert span returned by the null handle; ``annotate`` on it is
#: a no-op (``span_id == 0`` guard in :class:`~repro.obs.spans.Span`)
NULL_SPAN = Span(span_id=0, parent_id=0, name="", status="ok")
NULL_SPAN_HANDLE = NullSpanHandle()


#: what components hold: a live :class:`Tracer` or the null object
TracerLike = Union[Tracer, NullTracer]

#: what ``tracer.span(...)`` returns: a live handle or the shared no-op
SpanHandleLike = Union[Span, NullSpanHandle]

#: shared disabled tracer; safe to use as a default everywhere
NULL_TRACER = NullTracer()
