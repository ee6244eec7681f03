"""Causal request spans: the tree-shaped half of the trace model.

PR 3's flat :class:`~repro.obs.trace.TraceEvent` ring answers *what
happened*; it cannot answer *why this request was slow* now that one
predict may traverse facade -> admission -> router -> shard -> failover
-> transport -> plan.  A :class:`Span` is one timed stage of one request
with an explicit ``parent_id``, so every predict/update/predict_batch
yields a reconstructable tree.  Spans are opened through the tracer API
as a ``with`` item (``with tracer.span("client.predict"): ...``; the
state machine checks no span is left open after any step) and flat
events recorded while a span is open attach to it via
``TraceEvent.span_id``.

A span is one slotted object that is also its own context manager (the
open/close work happens inline in ``__enter__``/``__exit__`` against
the owning :class:`~repro.obs.trace.Tracer`'s stack and ring); the
rendering lives in :mod:`repro.obs.postmortem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Union

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

#: ``parent_id`` of a root span (and the id of the shared null span)
ROOT_PARENT = 0

#: every span name the instrumented stack opens - the vocabulary the
#: span table of docs/OBSERVABILITY.md is generated from and
#: ``tests/obs/test_kind_coverage.py`` holds the emitted names to (what
#: ``EVENT_KINDS`` is for events).  A site that opens a new span
#: registers its name here.
SPAN_NAMES = frozenset({
    # PSSClient: the root over one call on its degrade ladder
    "client.predict", "client.predict_batch", "client.update",
    "client.reset", "client.flush",
    # transports: one boundary crossing.  A scalar vDSO read (hit or
    # miss: it never enters the kernel) and a buffered vDSO update
    # open none
    "vdso.predict_batch", "vdso.reset", "vdso.flush",
    "syscall.predict", "syscall.predict_batch", "syscall.update",
    "syscall.reset",
    # the sharded kernel.  A vDSO read never enters it (no
    # kernel.predict), a served request's kernel call opens none, and
    # a charge of one is no kernel.admission
    "kernel.predict", "kernel.predict_batch", "kernel.update",
    "kernel.update_batch", "kernel.admission", "kernel.failover",
    "plan.execute",
    # live resharding, and the serving Dispatcher's real batches
    "migrate.step", "serve.dispatch",
})


@dataclass(slots=True)
class Span:
    """One timed, named stage of one request, and its own ``with``.

    ``start_ns``/``end_ns`` are simulated nanoseconds on the emitting
    component's timeline (same clock discipline as ``TraceEvent.ts_ns``).
    ``status`` is ``"open"`` while the span is on the tracer's stack,
    then ``"ok"`` or ``"error:<ExceptionType>"``.

    :meth:`Tracer.span <repro.obs.trace.Tracer.span>` allocates one
    object per span and the ``with`` statement does the rest on it:
    entering assigns the id, parent and start (a span opened without a
    clock of its own rides the enclosing span's, so a whole request
    tree shares one simulated-ns timeline), leaving stamps the end and
    the status and moves the span into the tracer's ring.  Until it is
    entered a span has id 0 and is inert.
    """

    span_id: int
    parent_id: int
    name: str
    domain: str = ""
    transport: str = ""
    shard: str = ""
    start_ns: float = 0.0
    end_ns: float = 0.0
    status: str = "open"
    detail: dict[str, Any] | None = None
    #: owning tracer, this span's (own or inherited) clock and the
    #: explicit start it was opened with: filled in by ``Tracer.span``
    #: only, so a hand-built span is plain data and cannot be entered
    _tracer: Tracer = field(init=False, repr=False, compare=False)
    _clock: Callable[[], float] | None = field(
        init=False, repr=False, compare=False)
    _ts_ns: float | None = field(init=False, repr=False, compare=False)

    def __enter__(self) -> Span:
        tracer = self._tracer
        tracer._ticks += 1
        stack = tracer.span_stack
        clock = self._clock
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            if clock is None:
                clock = self._clock = parent._clock
        start = self._ts_ns
        if start is None:
            if clock is None:
                clock = tracer.clock
            if clock is not None:
                start = clock()
            else:  # the fallback sequence, Tracer._last_number written out
                ring = tracer._ring
                start = float((ring[-1][0] if ring else tracer._cleared_at)
                              + tracer._ticks)
        self.start_ns = start
        self.span_id = tracer._next_span_id
        tracer._next_span_id += 1
        stack.append(self)
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        tracer = self._tracer
        tracer._ticks += 1
        clock = self._clock
        if clock is None:
            clock = tracer.clock
        if clock is not None:
            end = clock()
        else:  # the fallback sequence, as in __enter__
            ring = tracer._ring
            end = float((ring[-1][0] if ring else tracer._cleared_at)
                        + tracer._ticks)
        self.end_ns = end if end >= self.start_ns else self.start_ns
        self.status = ("ok" if exc_type is None
                       else f"error:{exc_type.__name__}")
        stack = tracer.span_stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # mis-nested close: unwind defensively
            stack[:] = [span for span in stack if span is not self]
        ring = tracer._spans
        if len(ring) == tracer.capacity:
            tracer.span_dropped += 1
        ring.append(self)

    @property
    def dur_ns(self) -> float:
        return self.end_ns - self.start_ns

    def annotate(self, **fields: Any) -> None:
        """Merge key/value pairs into ``detail`` (no-op on the null span)."""
        if self.span_id == ROOT_PARENT:
            return
        if self.detail is None:
            self.detail = {}
        self.detail.update(fields)

    def as_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "status": self.status,
        }
        if self.domain:
            d["domain"] = self.domain
        if self.transport:
            d["transport"] = self.transport
        if self.shard:
            d["shard"] = self.shard
        if self.detail:
            d["detail"] = self.detail
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Span:
        return cls(
            span_id=int(data["span_id"]),
            parent_id=int(data["parent_id"]),
            name=str(data["name"]),
            domain=str(data.get("domain", "")),
            transport=str(data.get("transport", "")),
            shard=str(data.get("shard", "")),
            start_ns=float(data["start_ns"]),
            end_ns=float(data["end_ns"]),
            status=str(data.get("status", "ok")),
            detail=dict(data["detail"]) if data.get("detail") else None,
        )


SpanLike = Union[Span, Mapping[str, Any]]


def _as_span(item: SpanLike) -> Span:
    return item if isinstance(item, Span) else Span.from_dict(item)


def validate_spans(spans: Iterable[SpanLike]) -> list[Span]:
    """Check a span set forms a well-formed forest; return its roots.

    Raises :class:`ValueError` on the first violation: duplicate or
    non-positive ids, an orphan (``parent_id`` naming no span in the
    set), a span closing before it opened, or a span left ``"open"``.
    Accepts :class:`Span` objects or their ``as_dict`` form, so bundle
    and JSONL consumers share one checker.
    """
    resolved = [_as_span(s) for s in spans]
    by_id: dict[int, Span] = {}
    for span in resolved:
        if span.span_id <= 0:
            raise ValueError(f"span id must be positive: {span!r}")
        if span.span_id in by_id:
            raise ValueError(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
    roots: list[Span] = []
    for span in resolved:
        if span.parent_id == ROOT_PARENT:
            roots.append(span)
        elif span.parent_id not in by_id:
            raise ValueError(
                f"orphan span {span.span_id} ({span.name!r}): "
                f"parent {span.parent_id} not in the set")
        if span.end_ns < span.start_ns:
            raise ValueError(
                f"span {span.span_id} ({span.name!r}) ends before it "
                f"starts: [{span.start_ns}, {span.end_ns}]")
        if span.status == "open":
            raise ValueError(
                f"span {span.span_id} ({span.name!r}) was never closed")
    return roots


def span_children(spans: Iterable[SpanLike]) -> dict[int, list[Span]]:
    """Group a span set by ``parent_id``, preserving completion order."""
    children: dict[int, list[Span]] = {}
    for span in (_as_span(s) for s in spans):
        children.setdefault(span.parent_id, []).append(span)
    return children
