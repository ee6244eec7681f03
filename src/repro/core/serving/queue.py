"""Per-shard request queues: the issue half of a split request path.

Every serving shard owns one :class:`RequestQueue`.  ``submit`` (on the
pipeline) appends a :class:`Request` here and returns; the shard's
dispatcher drains it in micro-batches on its own simulated schedule.
The queue is deliberately mechanical - FIFO order, a depth counter,
and a ``nonempty`` :class:`~repro.sim.process.SimEvent` the dispatcher
parks on - with every admission decision kept upstream in the pipeline
and the :class:`~repro.core.kernel.admission.AdmissionController`.

Observability: each accepted request's post-enqueue depth goes into
the ``pss_queue_depth`` histogram, counted per depth here and filed
when the registry is next read (its trace record is the ``request``
event the pipeline emits when it settles, which carries the time it
was submitted); each refusal records ``queue.shed`` with its reason
and counts into ``pss_shed_total`` - this module is that kind's single
emit site.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.serving.future import CompletionFuture
from repro.obs.metrics import (
    MetricsRegistry,
    QUEUE_DEPTH,
    SHED_TOTAL,
)
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.sim.engine import Engine
from repro.sim.process import SimEvent

if TYPE_CHECKING:
    from repro.core.kernel.domain import Domain


@dataclass(slots=True)
class Request:
    """One queued operation awaiting dispatch.

    ``op`` is ``"predict"`` or ``"update"``; ``direction`` is only
    meaningful for updates.  Its handle admitted it at submit
    (:meth:`~repro.core.kernel.domain.DomainHandle.admit`) against
    ``domain``, so what is queued is already decided: the dispatcher
    only executes it, by that domain's name - unless the domain was
    removed since, when the name may be a successor's and the request
    fails instead.  One is built per submit, so the pipeline constructs
    it positionally: keep the field order.
    """

    op: str
    domain: "Domain"
    features: Sequence[int]
    future: CompletionFuture
    direction: bool = False
    #: serving shard the pipeline routed this request to at submit;
    #: completion files its sojourn under the shard that served it
    shard_id: int = 0
    #: submission order, stamped by the pipeline - the deterministic
    #: tie-break audit trail for same-timestamp requests
    seq: int = field(default=0, compare=False)


class RequestQueue:
    """FIFO of :class:`Request` for one serving shard."""

    def __init__(self, shard_id: int, engine: Engine,
                 tracer: TracerLike = NULL_TRACER,
                 metrics: MetricsRegistry | None = None) -> None:
        self.shard_id = shard_id
        self.engine = engine
        self.tracer = tracer
        self.metrics = metrics
        # Bound once: the label every record carries and the depth
        # histogram the enqueues are filed into.
        self.label = str(shard_id)
        self._depth_hist = (
            metrics.histogram(QUEUE_DEPTH, shard=self.label)
            if metrics is not None else None)
        #: post-enqueue depth -> pushes at it since the last filing
        #: (None: unmetered).  Depths are integers, so filing them as
        #: runs leaves the histogram exactly as per-push observes do.
        self._depths: dict[int, int] | None = (
            {} if metrics is not None else None)
        #: fired on every enqueue; the dispatcher parks here when idle
        self.nonempty = SimEvent(engine)
        #: the live FIFO itself, a plain attribute so ``submit`` and
        #: the shard's dispatcher test and measure it without a call.
        #: Read-only by contract: requests enter through :meth:`push`
        #: and leave through :meth:`drain`.
        self.items: deque[Request] = deque()
        # -- counters (stable keys for snapshots/tables) --
        self.enqueued = 0
        self.shed = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def depth(self) -> int:
        return len(self.items)

    def push(self, request: Request) -> None:
        """Append an admitted request and wake the dispatcher."""
        self.items.append(request)
        self.enqueued += 1
        depth = len(self.items)
        if depth > self.max_depth:
            self.max_depth = depth
        depths = self._depths
        if depths is not None:
            if not depths:  # the first push since the last filing
                self.metrics.file_before_read(self._file_depths)
            depths[depth] = depths.get(depth, 0) + 1
        self.nonempty.fire()

    def _file_depths(self) -> None:
        """What the registry calls before it is read: each depth
        pushed since the last filing, once per push."""
        depths = self._depths
        histogram = self._depth_hist
        for depth, times in depths.items():
            histogram.observe_run(float(depth), times)
        depths.clear()

    def record_shed(self, request: Request, reason: str) -> None:
        """Account one refused request (the pipeline already failed
        its future); the queue owns the trace/metric emission so every
        shed lands on the target shard's track."""
        self.shed += 1
        if self.tracer.enabled:
            self.tracer.record(
                "queue.shed", domain=request.domain.name,
                transport="serving", ts_ns=self.engine.now,
                shard=self.label,
                detail={"op": request.op, "reason": reason,
                        "depth": len(self.items)},
            )
        if self.metrics is not None:
            self.metrics.counter(
                SHED_TOTAL, shard=self.label, reason=reason
            ).inc()

    def drain(self, limit: int) -> list[Request]:
        """Pop up to ``limit`` requests in FIFO order."""
        items = self.items
        if limit >= len(items):  # the usual drain: everything queued
            batch = list(items)
            items.clear()
            return batch
        return [items.popleft() for _ in range(limit)]

    def snapshot(self) -> dict[str, int]:
        """Stable-keyed counters for reports and BENCH json."""
        return {
            "shard": self.shard_id,
            "enqueued": self.enqueued,
            "shed": self.shed,
            "max_depth": self.max_depth,
            "depth": len(self.items),
        }
