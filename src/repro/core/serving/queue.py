"""Per-shard request queues: the issue half of a split request path.

Every serving shard owns one :class:`RequestQueue`.  ``submit`` (on the
pipeline) appends a :class:`Request` here and returns; the shard's
dispatcher drains it in micro-batches on its own simulated schedule.
The queue is deliberately mechanical - FIFO order, a depth counter,
and a ``nonempty`` :class:`~repro.sim.process.SimEvent` the dispatcher
parks on - with every admission decision kept upstream in the pipeline
and the :class:`~repro.core.kernel.admission.AdmissionController`.

Observability: each accepted request observes the post-enqueue depth
into the ``pss_queue_depth`` histogram (its trace record is the
``request`` event the pipeline emits when it settles, which carries
the time it was submitted); each refusal records ``queue.shed`` with
its reason and counts into ``pss_shed_total`` - this module is that
kind's single emit site.
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
        # histogram every enqueue observes into.
        self.label = str(shard_id)
        self._depth_hist = (
            metrics.histogram(QUEUE_DEPTH, shard=self.label)
            if metrics is not None else None)
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
        if self._depth_hist is not None:
            self._depth_hist.observe(float(depth))
        self.nonempty.fire()

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
