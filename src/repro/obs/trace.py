"""Structured event tracing for the PSS stack.

The paper's evaluation reasons about latency *distributions* across the
user/kernel boundary, which means knowing what the service actually did,
event by event: which predictions hit the score cache, when a batch
flushed, when a fault was injected and how the client degraded - and
which stage of which request the time went to.  A :class:`Tracer` is a
bounded ring of typed :class:`TraceEvent` records carrying
simulated-nanosecond timestamps.  A timed stage (a *span*) is an event
with a duration, appended when it ends with its own id and its parent's,
so every request yields a reconstructable tree.  Exporters
(:mod:`repro.obs.exporters`) turn the ring into JSONL, Chrome
trace-event JSON (loadable in Perfetto) or plain dicts.

Tracing is opt-in and the disabled path is allocation-free: every traced
component holds :data:`NULL_TRACER` by default and guards each record
with ``if tracer.enabled`` - a single attribute check, no record is
ever built.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from itertools import count
from types import TracebackType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Union, cast

#: every kind the instrumented stack records, an instant's or a span's
#: name.  Exporters and tests treat this as the schema; new kinds must
#: be added here.
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
    # spans: a client call on its degrade ladder, a boundary crossing,
    # a kernel stage, a reshard step, a drained batch of two or more
    "client.predict", "client.predict_batch", "client.update",
    "client.reset", "client.flush",
    "vdso.predict_batch", "vdso.reset", "vdso.flush",
    "syscall.predict", "syscall.predict_batch", "syscall.update",
    "syscall.reset",
    "kernel.predict", "kernel.predict_batch", "kernel.update",
    "kernel.update_batch", "kernel.admission", "kernel.failover",
    "plan.execute", "migrate.step", "serve.dispatch",
})


class TraceEvent(NamedTuple):
    """One traced record: an instant, or a span that has ended.

    ``ts_ns`` is simulated nanoseconds on the emitting component's
    timeline (a transport stamps its latency account's cumulative time;
    records with no natural clock get a monotonic sequence number).
    ``dur_ns`` is the simulated cost of the operation (0 for instants).

    A span's record has a ``status`` - ``"ok"``, ``"error:<Type>"``, or
    ``"open"`` in :meth:`Tracer.open_spans` - and its ``kind`` is the
    span's name, ``ts_ns`` its end, ``start_ns`` its start as recorded,
    ``span_id`` its own id and ``parent_id`` its parent's.  An instant
    has no status and no start, and its ``span_id`` is the span that
    encloses it.
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
    #: an instant's enclosing span (0, and omitted from exports, when
    #: no span was open); a span's own id
    span_id: int = 0
    parent_id: int = 0
    start_ns: float = 0.0
    status: str = ""

    def as_dict(self) -> dict[str, Any]:
        """The exported form: an instant's JSONL line, or a span's, the
        form :func:`validate_spans` and the post-mortem read."""
        if self.status:
            d: dict[str, Any] = {
                "span_id": self.span_id, "parent_id": self.parent_id,
                "name": self.kind, "start_ns": self.start_ns,
                "end_ns": self.ts_ns, "status": self.status}
            d.update((key, value) for key, value in (
                ("domain", self.domain), ("transport", self.transport),
                ("shard", self.shard)) if value)
        else:
            d = {"ts_ns": self.ts_ns, "kind": self.kind,
                 "domain": self.domain, "transport": self.transport,
                 "dur_ns": self.dur_ns, "generation": self.generation}
            if self.shard:
                d["shard"] = self.shard
            if self.span_id:
                d["span_id"] = self.span_id
        if self.detail:
            d["detail"] = self.detail
        return d


# Allocation without a Python-level frame: the NamedTuple's generated
# ``__new__`` would add one per record.
_new_event = cast("Callable[[type[TraceEvent], tuple[Any, ...]], "
                  "TraceEvent]", tuple.__new__)
#: what an instant's ring tuple lacks of a span's: parent, start, status
_INSTANT = (0, 0.0, "")
#: the length of an instant's ring tuple (a span's is three longer)
_INSTANT_LEN = 10


class OpenSpan:
    """A span from :meth:`Tracer.span` to its end, and while open its
    entry on the tracer's ``span_stack`` - what is needed to write its
    record, no more.

    Entering sets the id, the parent and the start (without a clock of
    its own a span rides the enclosing span's, so a request tree shares
    one simulated-ns timeline) and returns the id; leaving appends the
    span's record to the ring.
    """

    __slots__ = ("span_id", "parent_id", "start_ns", "clock", "tracer",
                 "name", "domain", "transport", "shard", "detail")

    span_id: int
    parent_id: int
    start_ns: float     # None from ``Tracer.span`` unless given
    clock: Callable[[], float] | None
    tracer: Tracer
    name: str
    domain: str
    transport: str
    shard: str
    detail: dict[str, Any] | None

    def __enter__(self) -> int:
        tracer = self.tracer
        tracer._ticks += 1
        stack = tracer.span_stack
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            if self.clock is None:
                self.clock = parent.clock
        if self.start_ns is None:
            clock = self.clock
            if clock is None:
                clock = tracer.clock
            self.start_ns = clock() if clock is not None \
                else tracer._sequence()
        span_id = self.span_id = tracer._next_span_id
        tracer._next_span_id = span_id + 1
        stack.append(self)
        return span_id

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        tracer = self.tracer
        tracer._ticks += 1
        clock = self.clock
        if clock is None:
            clock = tracer.clock
        start = self.start_ns
        end = clock() if clock is not None else tracer._sequence()
        if end < start:
            end = start
        stack = tracer.span_stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # mis-nested close: unwind defensively
            stack[:] = [entry for entry in stack if entry is not self]
        tracer._spans_issued += 1
        ring = tracer._ring
        # a span takes no number of its own: it carries the newest
        # instant's, which is what ``dropped`` counts from
        ring.append((
            ring[-1][0] if ring else tracer._cleared_at, end,
            self.name, self.domain, self.transport,
            end - start, 0, self.detail, self.shard, self.span_id,
            self.parent_id, start,
            "ok" if exc_type is None else f"error:{exc_type.__name__}"))


# ``OpenSpan`` has no ``__init__``: one would add a frame per span.
_new_open = cast("Callable[[type[OpenSpan]], OpenSpan]", object.__new__)


class Tracer:
    """Bounded ring of :class:`TraceEvent` records, instants and spans.

    The ring is a ``deque(maxlen=capacity)`` of plain tuples
    ``(number, *TraceEvent fields)`` - an instant's without the three
    span fields, a span's numbered as the newest instant - and a full
    ring overwrites its oldest record, of either kind.  :meth:`events` and :meth:`spans` build the records
    only when read.  A hot site binds :attr:`emit` (the ring's own
    ``append``), :attr:`next_number` and :attr:`span_stack` once and
    records with one inline tuple append - no Python frame.
    """

    enabled = True

    def __init__(self, capacity: int = 65536,
                 clock: Callable[[], float] | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: optional global clock (e.g. a sim Engine's ``now``) used for
        #: records made without an explicit timestamp
        self.clock = clock
        self._ring: deque[tuple[Any, ...]] = deque(maxlen=capacity)
        #: open spans, innermost last: emptied only by their own exits,
        #: so the reference a hot site binds stays live
        self.span_stack: list[OpenSpan] = []
        #: the record path a hot site binds: append one event tuple,
        #: ``(next_number(), ts_ns, kind, domain, transport, dur_ns,
        #: generation, detail, shard, span_id)``
        self.emit: Callable[[tuple[Any, ...]], None] = self._ring.append
        self.next_number: Callable[[], int] = count(1).__next__
        #: spans ended since the last :meth:`clear`
        self._spans_issued = 0
        # Fallback timestamp of a clockless record: the newest instant's
        # number plus the span enters and exits so far (one monotonic
        # sequence).
        self._ticks = 0
        self._cleared_at = 0   # the last instant's number at clear()
        self._next_span_id = 1

    def __len__(self) -> int:
        """Instants held (the span view is :meth:`spans`)."""
        return len(self._ring) - self._spans_held()

    def _spans_held(self) -> int:
        return sum(len(record) > _INSTANT_LEN for record in self._ring)

    def _last_number(self) -> int:
        """The newest instant's number (the last one before a
        :meth:`clear` while the ring is empty)."""
        ring = self._ring
        number: int = ring[-1][0] if ring else self._cleared_at
        return number

    def _sequence(self) -> float:
        """A clockless span's start or end stamp."""
        return float(self._last_number() + self._ticks)

    @property
    def dropped(self) -> int:
        """Instants overwritten since the last :meth:`clear`."""
        return self._last_number() - self._cleared_at - len(self)

    @property
    def span_dropped(self) -> int:
        """Spans overwritten since the last :meth:`clear`."""
        return self._spans_issued - self._spans_held()

    def record(self, kind: str, domain: str = "", transport: str = "",
               ts_ns: float | None = None, dur_ns: float = 0.0,
               generation: int = 0,
               detail: dict[str, Any] | None = None,
               shard: str = "") -> None:
        """Append one instant, evicting the oldest record when full.

        It attaches to the innermost open span, if any: instants are
        the leaves of span trees.
        """
        number = self.next_number()
        if ts_ns is None:
            ts_ns = self.clock() if self.clock is not None else float(
                number + self._ticks)
        stack = self.span_stack
        self.emit((number, ts_ns, kind, domain, transport, dur_ns,
                   generation, detail, shard,
                   stack[-1].span_id if stack else 0))

    def span(self, name: str, domain: str = "", transport: str = "",
             shard: str = "", ts_ns: float | None = None,
             detail: dict[str, Any] | None = None,
             clock: Callable[[], float] | None = None) -> OpenSpan:
        """A span over a ``with`` block, the only way to open one; it
        ends on every path, ``status`` naming the in-flight exception.
        ``clock`` overrides the tracer clock for this span and the spans
        nested in it (transports pass their latency account, so
        durations are simulated ns)."""
        opened = _new_open(OpenSpan)
        opened.span_id = opened.parent_id = 0
        opened.start_ns = ts_ns  # type: ignore[assignment]
        opened.clock = clock
        opened.tracer = self
        opened.name = name
        opened.domain = domain
        opened.transport = transport
        opened.shard = shard
        opened.detail = detail
        return opened

    def events(self) -> list[TraceEvent]:
        """The instants held, oldest first."""
        return [_new_event(TraceEvent, record[1:] + _INSTANT)
                for record in self._ring if len(record) == _INSTANT_LEN]

    def spans(self) -> list[TraceEvent]:
        """The ended spans held, in end order (children first)."""
        return [_new_event(TraceEvent, record[1:])
                for record in self._ring if len(record) > _INSTANT_LEN]

    def open_spans(self) -> list[TraceEvent]:
        """Spans still on the stack (outermost first), as records with
        status ``"open"`` - crash context."""
        return [TraceEvent(0.0, s.name, s.domain, s.transport, 0.0, 0,
                           s.detail, s.shard, s.span_id, s.parent_id,
                           s.start_ns, "open")
                for s in self.span_stack]

    def clear(self) -> None:
        """Forget every record held.

        Spans still open stay on the stack - they end into the emptied
        ring - and the ids they hold are never handed out again.  The
        ring is emptied in place, so what a hot site bound stays live.
        """
        self._cleared_at = self._last_number()
        self._ring.clear()
        self._spans_issued = 0
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
    span_stack: tuple[OpenSpan, ...] = ()

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
             clock: Callable[[], float] | None = None) -> nullcontext[int]:
        return NULL_SPAN_HANDLE

    def events(self) -> list[TraceEvent]:
        return []

    spans = open_spans = events

    def clear(self) -> None:
        pass

    def emit(self, event: tuple[Any, ...]) -> None:
        pass

    def next_number(self) -> int:
        return 0


#: the shared no-op span: nothing allocated, nothing recorded, id 0
NULL_SPAN_HANDLE = nullcontext(0)


#: what components hold: a live :class:`Tracer` or the null object
TracerLike = Union[Tracer, NullTracer]

#: what ``tracer.span(...)`` returns: a live span or the shared no-op
SpanHandleLike = Union[OpenSpan, "nullcontext[int]"]

#: shared disabled tracer; safe to use as a default everywhere
NULL_TRACER = NullTracer()


def validate_spans(spans: Iterable[Mapping[str, Any]]
                   ) -> list[Mapping[str, Any]]:
    """Check exported spans (``as_dict`` form) form a well-formed
    forest; return its roots.

    Raises :class:`ValueError` on the first violation: duplicate or
    non-positive ids, an orphan (``parent_id`` naming no span in the
    set), a span ending before it started, or a span left ``"open"``.
    """
    held = list(spans)
    ids = {span["span_id"] for span in held}
    if len(ids) < len(held) or min(ids, default=1) <= 0:
        raise ValueError("span ids must be positive and distinct")
    roots: list[Mapping[str, Any]] = []
    for span in held:
        what = f"span {span['span_id']} ({span['name']!r})"
        if span["parent_id"] == 0:
            roots.append(span)
        elif span["parent_id"] not in ids:
            raise ValueError(f"orphan {what}: parent {span['parent_id']} "
                             "not in the set")
        if span["end_ns"] < span["start_ns"]:
            raise ValueError(f"{what} ends before it starts: "
                             f"[{span['start_ns']}, {span['end_ns']}]")
        if span["status"] == "open":
            raise ValueError(f"{what} was never closed")
    return roots


def span_children(spans: Iterable[Mapping[str, Any]]
                  ) -> dict[int, list[Mapping[str, Any]]]:
    """Group exported spans by ``parent_id``, keeping end order."""
    children: dict[int, list[Mapping[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    return children
