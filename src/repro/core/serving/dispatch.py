"""Per-shard dispatchers: the only sim processes that enter the kernel.

A :class:`Dispatcher` is one generator-bodied sim process per serving
shard.  It parks on its queue's ``nonempty`` event, lets the
:class:`~repro.core.serving.batcher.MicroBatcher` decide when to stop
collecting, charges the batch's boundary-crossing cost as simulated
time, and only then executes the drained requests against the kernel,
one kernel call per request - ``ShardedService.predict_batch`` of one
row for a prediction, ``ShardedService.update`` for an update - settling
each request's :class:`~repro.core.serving.future.CompletionFuture`
with its own outcome: the score, or the error the kernel returned.
Every request here was admitted by its handle at submit, so the kernel
calls are plain execution by the name of the domain it was admitted
against; what can still fail is what could only be known late (that
domain removed since - the name may be a successor's by now - or its
shard down with no follower).

This module is the single sanctioned site for kernel entry from inside
the event loop, because a blocking kernel call in an event-loop process
stalls every queued request behind it without charging the simulated
clock.  ``tests/test_source.py`` rejects a kernel
``predict_batch``/``update`` call written in any *other* sim-process
body; that each request settles once, with its own outcome, is checked
by running the system (``tests/test_machine.py``).

Ordering is the bit-identity linchpin: a drained batch executes in
FIFO order, so a mixed batch observes exactly the generation sequence
the synchronous path would have produced.  The batch saves crossings,
not model work: one ``service_ns(rows)`` charge and one
``serve.dispatch`` span per drain, one kernel call per request.  A
watched request leaves one trace record, the ``request`` the pipeline
files as it settles: a kernel call of one row opens no span.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import DomainError
from repro.core.policy import REMOVED
from repro.core.serving.batcher import TRIGGER_TIMEOUT, MicroBatcher
from repro.core.serving.queue import Request, RequestQueue
from repro.obs.metrics import BATCH_SIZE, MetricsRegistry
from repro.obs.spanned import spanned
from repro.obs.trace import NULL_TRACER, SpanHandleLike, TracerLike
from repro.sim.engine import Engine
from repro.sim.process import Process, ProcessBody, spawn

if TYPE_CHECKING:
    from repro.core.kernel.domain import Domain
    from repro.core.kernel.service import ShardedService
    from repro.core.serving.pipeline import ServingPipeline


def _removed(domain: "Domain") -> DomainError:
    """The outcome of a request whose domain was removed after its
    handle admitted it: the name is no longer that domain's."""
    return DomainError(f"unknown domain {domain.name!r}")


class Dispatcher:
    """One shard's drain loop: collect, charge sim time, execute."""

    def __init__(self, pipeline: "ServingPipeline", shard_id: int,
                 queue: RequestQueue, batcher: MicroBatcher,
                 service: "ShardedService", engine: Engine,
                 tracer: TracerLike = NULL_TRACER,
                 metrics: MetricsRegistry | None = None) -> None:
        self.pipeline = pipeline
        self.shard_id = shard_id
        self.queue = queue
        self.batcher = batcher
        self.service = service
        self.engine = engine
        self.tracer = tracer
        self.metrics = metrics
        # Bound once: the label every record carries, the histogram
        # every drain observes into, and the engine clock spans ride.
        self._label = queue.label
        self._batch_hist = (
            metrics.histogram(BATCH_SIZE, shard=self._label)
            if metrics is not None else None)
        self._clock = engine.clock
        #: the batch in hand, stamped once per drain (watched or not)
        #: and read by the pipeline into each of its requests'
        #: ``request`` record: when this dispatcher began collecting
        #: it, when it was drained, its rows and what triggered it
        self.collect_ns = 0.0
        self.drained_ns = 0.0
        self.rows = 0
        self.trigger = ""
        self.process: Process | None = None

    def start(self) -> Process:
        self.process = spawn(self.engine, self._run(),
                             name=f"dispatch-{self.shard_id}")
        return self.process

    def _run(self) -> ProcessBody:
        """Sim-process body: the shard's event-driven serve loop.

        The loop never blocks the engine: idle time is spent parked on
        the queue's ``nonempty`` event (no scheduled wake-up, so a
        drained simulation terminates), and kernel execution happens
        only after the batch's crossing cost has been charged with a
        ``yield``.  An unobserved shard (no histogram, no tracer)
        skips :meth:`_trace_drain`.  A drained batch of one is served
        directly; only a real batch is a ``serve.dispatch``.
        """
        queue = self.queue
        items = queue.items
        batcher = self.batcher
        engine = self.engine
        parked = queue.nonempty.wait()  # one command, re-yielded
        while True:
            if not items:
                yield parked
                if not items:  # pragma: no cover - spurious wake
                    continue
            collect_ns = engine.now
            collect = batcher.collect_ns(len(items))
            if collect > 0:
                yield collect
            batch, trigger = batcher.drain(queue)
            if not batch:  # pragma: no cover - drained by a restart
                continue
            self.collect_ns = collect_ns
            self.drained_ns = engine.now
            self.rows = len(batch)
            self.trigger = trigger
            if self.tracer.enabled or self._batch_hist is not None:
                self._trace_drain(batch, trigger)
            yield batcher.service_ns(len(batch))
            if len(batch) == 1:
                self._serve_one(batch[0])
            else:
                self._execute(batch)

    def _trace_drain(self, batch: list[Request], trigger: str) -> None:
        """The drain's size into ``pss_batch_size`` and, for a
        window-expiry drain, ``batch.flush_timeout`` on this shard's
        track.  (The drain itself is not an event: each request it
        took says ``rows`` and ``trigger`` in its ``request`` record.)
        """
        if self._batch_hist is not None:
            self._batch_hist.observe(float(len(batch)))
        if trigger == TRIGGER_TIMEOUT and self.tracer.enabled:
            self.tracer.record(
                "batch.flush_timeout", "", "serving", self.engine.now,
                0.0, 0,
                {"rows": len(batch),
                 "window_ns": self.batcher.batch_window_ns},
                self._label)

    def _dispatch_span(self, batch: list[Request]) -> SpanHandleLike:
        """The batch's span names this lane's shard - unless a reshard
        moved a domain of the batch away since it was queued: the
        kernel spans under it then name another shard, and a batch over
        several shards names none."""
        label = self._label
        if any(request.domain.shard_label != label for request in batch):
            label = ""
        return self.tracer.span(
            "serve.dispatch", "", "serving", label, None,
            {"rows": len(batch), "trigger": self.trigger}, self._clock)

    @spanned(_dispatch_span, tracer="tracer")
    def _execute(self, batch: list[Request]) -> None:
        """Run one drained batch of several requests against the
        kernel: one :meth:`_serve_one` per request, in FIFO order.

        The batch was one crossing (one ``service_ns`` charge); each of
        its requests is one kernel call, as the charge's per-row term
        says.  Served traffic spreads over many domains, so a kernel
        batch of its adjacent predictions splits into blocks of one or
        two rows each, which cost more than these scalar calls
        (docs/PERFORMANCE.md, "Kept, with evidence").
        """
        for request in batch:
            self._serve_one(request)

    def _serve_one(self, request: Request) -> None:
        """One request is one kernel call and one settlement, through
        ``self.service.predict_batch`` / ``self.service.update``: that
        is the kernel boundary (what ``perf/`` times).  A request fails
        for its own outcome only, and an exception escaping the kernel
        call is caught here - it would otherwise end the shard's
        process and strand every future queued behind it - and re-raised,
        traceback and all, by the future's ``result()``."""
        domain = request.domain
        try:
            if domain.policy is REMOVED:
                outcome = _removed(domain)
            elif request.op == "predict":
                outcome, = self.service.predict_batch(
                    [(domain.name, request.features)])
            else:
                outcome = None
                self.service.update(
                    domain.name, request.features, request.direction)
        except Exception as error:
            outcome = error
        if isinstance(outcome, Exception):
            self.pipeline.request_failed(request, outcome)
        else:
            self.pipeline.request_done(request, outcome)
