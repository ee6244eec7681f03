"""Per-shard serving lanes: the only sim processes that enter the kernel.

A :class:`Dispatcher` is one serving shard's whole lane: the FIFO of
admitted :class:`Request`\\ s ``submit`` appends to, the drain rule
that decides when to stop collecting and how much to take, and one
generator-bodied sim process that runs that rule, charges the batch's
boundary-crossing cost as simulated time, and only then executes the
drained requests against the kernel, one kernel call per request -
``ShardedService.predict_batch`` of one row for a prediction,
``ShardedService.update`` for an update - settling each request's
:class:`~repro.core.serving.future.CompletionFuture` with its own
outcome: the score, or the error the kernel returned.  Every request
here was admitted by its handle at submit, so the kernel calls are
plain execution by the name of the domain it was admitted against;
what can still fail is what could only be known late (that domain
removed since - the name may be a successor's by now - or its shard
down with no follower).

The drain rule, with its three triggers (stamped on every ``request``
record):

* **scalar** - ``batch_window_ns == 0``: the head drains alone at
  once, each request paying a full crossing (the mode bit-identical to
  the synchronous call path, ``tests/serving/test_identity.py``);
* **size** - the queue holds ``max_batch`` when the lane starts
  collecting (it drains at once) or when the window ends;
* **timeout** - the window ended with a partial batch, which drains
  anyway (bounded added latency is what makes batching safe to
  enable): a ``batch.flush_timeout`` record.

A drain takes up to ``max_batch`` in FIFO order; whatever arrived
beyond that stays queued for the drain that follows at once.

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
not model work: one ``syscall_ns + rows * vdso_predict_ns`` charge and
one ``serve.dispatch`` span per drain, one kernel call per request.  A
watched request leaves one trace record, the ``request`` the pipeline
files as it settles: a kernel call of one row opens no span.

Observability: each accepted request's post-enqueue depth goes into the
``pss_queue_depth`` histogram, counted per depth here and filed when
the registry is next read; each drain's size into ``pss_batch_size``;
each refusal records ``queue.shed`` with its reason and counts into
``pss_shed_total`` - this module is that kind's single emit site.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.errors import DomainError
from repro.core.policy import REMOVED
from repro.core.serving.future import CompletionFuture
from repro.obs.metrics import (
    BATCH_SIZE,
    Counter,
    MetricsRegistry,
    QUEUE_DEPTH,
    SHED_TOTAL,
)
from repro.obs.trace import NULL_TRACER, SpanHandleLike, TracerLike
from repro.sim.engine import Engine
from repro.sim.process import PARK, ProcessBody, spawn

if TYPE_CHECKING:
    from repro.core.kernel.domain import Domain
    from repro.core.kernel.service import ShardedService
    from repro.core.serving.pipeline import ServingConfig, ServingPipeline

#: drain-trigger labels stamped on ``request`` events and
#: ``serve.dispatch`` spans
TRIGGER_SCALAR = "scalar"
TRIGGER_SIZE = "size"
TRIGGER_TIMEOUT = "timeout"


@dataclass(slots=True)
class Request:
    """One queued operation awaiting dispatch.

    ``op`` is ``"predict"`` or ``"update"``; ``direction`` is only
    meaningful for updates.  Its handle admitted it at submit
    (:meth:`~repro.core.kernel.domain.DomainHandle.admit`) against
    ``domain``, so what is queued is already decided: the lane only
    executes it, by that domain's name - unless the domain was removed
    since, when the name may be a successor's and the request fails
    instead.  One is built per submit, so the pipeline constructs it
    positionally: keep the field order.
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


def _removed(domain: "Domain") -> DomainError:
    """The outcome of a request whose domain was removed after its
    handle admitted it: the name is no longer that domain's."""
    return DomainError(f"unknown domain {domain.name!r}")


class Dispatcher:
    """One shard's lane: queue, drain rule, crossing charge, execution."""

    def __init__(self, pipeline: "ServingPipeline", shard_id: int,
                 config: "ServingConfig", service: "ShardedService",
                 engine: Engine, tracer: TracerLike = NULL_TRACER,
                 metrics: MetricsRegistry | None = None) -> None:
        self.pipeline = pipeline
        self.shard_id = shard_id
        self.service = service
        self.engine = engine
        self.tracer = tracer
        self.metrics = metrics
        self.max_batch = config.max_batch
        self.batch_window_ns = config.batch_window_ns
        #: the service's crossing costs, which a synchronous client
        #: of the same service is charged too
        self.latency = service.config.latency
        # Bound once: the label every record carries, the histograms
        # the enqueues and drains are filed into, and the engine clock
        # spans ride.
        self.label = str(shard_id)
        self._depth_hist = self._batch_hist = None
        #: post-enqueue depth -> pushes at it since the last filing
        #: (None: unmetered).  Depths are integers, so filing them as
        #: runs leaves the histogram exactly as per-push observes do.
        self._depths: dict[int, int] | None = None
        #: shed reason -> this lane's ``pss_shed_total`` counter,
        #: resolved at the reason's first shed (a registry read files)
        self._shed_counters: dict[str, Counter] = {}
        if metrics is not None:
            self._depth_hist = metrics.histogram(QUEUE_DEPTH,
                                                 shard=self.label)
            self._batch_hist = metrics.histogram(BATCH_SIZE,
                                                 shard=self.label)
            self._depths = {}
            metrics.add_filer(self._file_depths)
        self._clock = engine.clock
        #: the live FIFO itself, a plain attribute so ``submit`` tests
        #: and measures it without a call.  Read-only by contract:
        #: requests enter through :meth:`push` and leave by the drain.
        self.items: deque[Request] = deque()
        # -- counters (stable keys for snapshots/tables) --
        self.enqueued = 0
        self.shed = 0
        self.max_depth = 0
        self.batches = 0
        self.rows = 0
        self.flush_timeouts = 0
        #: the batch in hand, stamped once per drain (watched or not)
        #: and read by the pipeline into each of its requests'
        #: ``request`` record: when this lane began collecting it, when
        #: it was drained, its rows and what triggered it
        self.collect_ns = 0.0
        self.drained_ns = 0.0
        self.batch_rows = 0
        self.trigger = ""
        #: the process is parked on an empty queue: :meth:`push`
        #: resumes it
        self.parked = False
        self.process = spawn(engine, self._run(),
                             name=f"dispatch-{shard_id}")

    def push(self, request: Request) -> None:
        """Append an admitted request; a parked lane starts at once."""
        items = self.items
        items.append(request)
        self.enqueued += 1
        depth = len(items)
        if depth > self.max_depth:
            self.max_depth = depth
        depths = self._depths
        if depths is not None:
            depths[depth] = depths.get(depth, 0) + 1
        if self.parked:
            self.parked = False
            self.process.resume()

    def _file_depths(self) -> None:
        """The lane's filer, called before the registry is read: each
        depth pushed since the last filing, once per push."""
        depths = self._depths
        histogram = self._depth_hist
        for depth, times in depths.items():
            histogram.observe_run(float(depth), times)
        depths.clear()

    def record_shed(self, request: Request, reason: str) -> None:
        """Account one refused request (the pipeline already failed
        its future); the lane owns the trace/metric emission so every
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
            counter = self._shed_counters.get(reason)
            if counter is None:
                counter = self._shed_counters[reason] = self.metrics.counter(
                    SHED_TOTAL, shard=self.label, reason=reason)
            counter.inc()

    def _run(self) -> ProcessBody:
        """Sim-process body: the shard's drain loop.

        The loop never blocks the engine: idle time is spent parked
        (no scheduled wake-up, so a drained simulation terminates)
        until :meth:`push` resumes it, and kernel execution happens
        only after the batch's crossing cost has been charged with a
        ``yield``.  An unobserved lane (no histogram, no tracer) skips
        :meth:`_trace_drain`.  Only a watched batch of two or more is
        served inside a ``serve.dispatch`` span.
        """
        items = self.items
        engine = self.engine
        max_batch = self.max_batch
        # a float, so the sleep is the engine's exact-type command
        window = float(self.batch_window_ns)
        latency = self.latency
        while True:
            if not items:
                self.parked = True
                yield PARK
            collect_ns = engine.now
            if not window:
                batch = [items.popleft()]
                trigger = TRIGGER_SCALAR
            else:
                if len(items) < max_batch:
                    yield window
                if len(items) <= max_batch:  # the usual: all queued
                    batch = list(items)
                    items.clear()
                else:
                    batch = [items.popleft() for _ in range(max_batch)]
                trigger = (TRIGGER_SIZE if len(batch) == max_batch
                           else TRIGGER_TIMEOUT)
            rows = len(batch)
            self.batches += 1
            self.rows += rows
            if trigger is TRIGGER_TIMEOUT:
                self.flush_timeouts += 1
            self.collect_ns = collect_ns
            self.drained_ns = engine.now
            self.batch_rows = rows
            self.trigger = trigger
            if self.tracer.enabled or self._batch_hist is not None:
                self._trace_drain(rows, trigger)
            yield latency.syscall_ns + rows * latency.vdso_predict_ns
            if rows > 1 and self.tracer.enabled:
                with self._dispatch_span(batch):
                    self._serve(batch)
            else:
                self._serve(batch)

    def _trace_drain(self, rows: int, trigger: str) -> None:
        """The drain's size into ``pss_batch_size`` and, for a
        window-expiry drain, ``batch.flush_timeout`` on this shard's
        track.  (The drain itself is not an event: each request it
        took says ``rows`` and ``trigger`` in its ``request`` record.)
        """
        if self._batch_hist is not None:
            self._batch_hist.observe(float(rows))
        if trigger is TRIGGER_TIMEOUT and self.tracer.enabled:
            self.tracer.record(
                "batch.flush_timeout", "", "serving", self.engine.now,
                0.0, 0,
                {"rows": rows, "window_ns": self.batch_window_ns},
                self.label)

    def _dispatch_span(self, batch: list[Request]) -> SpanHandleLike:
        """The batch's span names this lane's shard - unless a reshard
        moved a domain of the batch away since it was queued: the
        kernel spans under it then name another shard, and a batch over
        several shards names none."""
        label = self.label
        shard_id = self.shard_id
        for request in batch:
            shard = request.domain.shard
            if shard is None or shard.shard_id != shard_id:
                label = ""
                break
        return self.tracer.span(
            "serve.dispatch", "", "serving", label, None,
            {"rows": len(batch), "trigger": self.trigger}, self._clock)

    def _serve(self, batch: list[Request]) -> None:
        """Run one drained batch against the kernel in FIFO order.

        The batch was one crossing (one charge); each of its requests
        is one kernel call and one settlement, as the charge's per-row
        term says, through ``self.service.predict_batch`` /
        ``self.service.update``: that is the kernel boundary (what
        ``perf/`` times).  A request fails for its own outcome only,
        and an exception escaping the kernel call is caught here - it
        would otherwise end the shard's process and strand every future
        queued behind it - and re-raised, traceback and all, by the
        future's ``result()``."""
        for request in batch:
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

    def snapshot(self) -> dict[str, int]:
        """Stable-keyed queue counters for reports and BENCH json."""
        return {
            "shard": self.shard_id,
            "enqueued": self.enqueued,
            "shed": self.shed,
            "max_depth": self.max_depth,
            "depth": len(self.items),
        }
