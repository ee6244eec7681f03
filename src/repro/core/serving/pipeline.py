"""The event-driven serving pipeline: issue/complete split end to end.

:class:`ServingPipeline` splits every request into an *issue* half
(:meth:`~ServingPipeline.submit`: the caller's
:class:`~repro.core.kernel.domain.DomainHandle` admits it - the
contract the synchronous call passes - it is queued on the owning
shard's :class:`~repro.core.serving.dispatch.Dispatcher` lane, and a
:class:`~repro.core.serving.future.CompletionFuture` comes back) and a
*completion* half (the lane's sim process drains micro-batches on the
deterministic :class:`~repro.sim.engine.Engine` and settles the
futures).  It is a frontend over the same kernel: a 1-client,
batch-window-0 serve run is bit-identical to the scalar path
(``tests/serving/test_identity.py``).

Back-pressure is one rule,
:meth:`~repro.core.kernel.admission.AdmissionController.admit_request`,
asked for every admitted request with the target queue's depth (a full
queue sheds with ``queue_full``) and, when
:attr:`ServingConfig.shed_on_page` is set, whether a paging SLO covers
the target (``slo_page``).  The paging scopes are a cache of the
:class:`~repro.obs.slo.SLOEngine` verdicts at the grid points
``start + k * slo_eval_interval_ns``, judged lazily: when a submit or
the end of :meth:`~ServingPipeline.run` reaches a point not judged
yet.  A shed fails fast with :class:`~repro.core.errors.RequestShedError`,
which a client's ``submit`` maps to its static fallback.

One lane per shard at construction, and one more the first time a
request is routed to a shard a reshard grew since; a shrunk-away
shard's lane drains what it holds and then idles.  See docs/SERVING.md
for the pipeline diagram and tuning guidance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.errors import (
    ConfigError,
    DomainError,
    FeatureError,
    PolicyError,
    PSSError,
    QuotaExceededError,
    RequestShedError,
)
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.domain import DomainHandle
from repro.core.policy import ClientIdentity
from repro.core.serving.dispatch import Dispatcher, Request
from repro.core.serving.future import CompletionFuture
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    SERVE_LATENCY_NS,
)
from repro.obs.slo import SLO, SLOEngine
from repro.obs.trace import TracerLike
from repro.sim.engine import Engine

if TYPE_CHECKING:
    from repro.core.kernel.service import ShardedService

#: the SLO name the pipeline feeds completion sojourns into
SERVE_SLO = "serve-latency"

#: who a request submitted under a bare domain name is
_ANONYMOUS = ClientIdentity()

#: what a request refused at submit says in its record's ``outcome``
#: (``refused:<reason>``); any other error there is ``error:<Type>``
_REFUSALS: dict[type, str] = {
    DomainError: "domain", PolicyError: "policy",
    QuotaExceededError: "quota", FeatureError: "feature",
}


def serving_slos(threshold_ns: float = 4_000.0,
                 objective: float = 0.9) -> tuple[SLO, ...]:
    """The serve-mode SLO set: completion sojourn under overload.

    The threshold is queue time, not model time: ~55 scalar crossings
    (or a handful of full micro-batches) of waiting before a completion
    counts against the budget.  Windows are sized to the serve sweep's
    simulated horizon so a sustained overload pages within a few
    evaluation intervals.  Pass the pipeline's
    :attr:`ServingConfig.slo_threshold_ns`: a pipeline refuses a set
    whose ``serve-latency`` SLO it cannot feed.
    """
    return (
        SLO(SERVE_SLO, "latency", objective=objective,
            threshold_ns=threshold_ns,
            short_window_ns=5_000.0, long_window_ns=20_000.0),
    )


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for one pipeline instance.

    ``batch_window_ns == 0`` is the scalar-equivalent mode (no
    batching, bit-identical results); ``queue_limit == 0`` means
    unbounded queues (no depth back-pressure); ``shed_on_page`` sheds
    the requests a paging SLO covers.  A completion is a good
    ``serve-latency`` sample iff its sojourn is at most
    ``slo_threshold_ns``, so a pipeline given ``slos`` requires that
    set's ``serve-latency`` SLO to carry the same ``threshold_ns``.
    """

    max_batch: int = 32
    batch_window_ns: float = 0.0
    queue_limit: int = 0
    shed_on_page: bool = False
    slo_threshold_ns: float = 4_000.0
    slo_eval_interval_ns: float = 2_000.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_window_ns < 0:
            raise ConfigError(
                f"batch_window_ns must be >= 0, got {self.batch_window_ns}")
        if self.queue_limit < 0:
            raise ConfigError(
                f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.slo_eval_interval_ns <= 0:
            raise ConfigError(
                "slo_eval_interval_ns must be positive, got "
                f"{self.slo_eval_interval_ns}")


class ServingPipeline:
    """One serving lane per shard over one sharded service."""

    def __init__(self, service: "ShardedService",
                 config: ServingConfig | None = None,
                 engine: Engine | None = None,
                 tracer: TracerLike | None = None,
                 metrics: MetricsRegistry | None = None,
                 slos: Sequence[SLO] | None = None) -> None:
        self.service = service
        self.config = config or ServingConfig()
        self.engine = engine or Engine()
        # ``is not None``, never truthiness: a tracer that has not
        # recorded yet is empty, and an empty Tracer is falsy.
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else service.tracer)
        self.metrics = (metrics if metrics is not None
                        else service.metrics)
        if self.tracer.enabled:
            # Serve mode owns the session clock: every event recorded
            # during the run (kernel spans included) is stamped with
            # the engine's simulated now.
            self.tracer.clock = self.engine.clock
        # What a settled request's record is appended through, bound
        # once (the transports' hot sites do the same).
        self._emit = self.tracer.emit
        self._next_event = self.tracer.next_number
        self._open_spans = self.tracer.span_stack
        # -- per-shard lanes, each list indexed by shard id --
        self.lanes: list[Dispatcher] = []
        #: completion-sojourn histogram per serving shard, resolved
        #: once (empty without a registry)
        self._latency_hists: list[Histogram] = []
        self._grow_lanes(service.num_shards - 1)
        # -- health / back-pressure --
        self.slo_engine: SLOEngine | None = None
        if slos is not None:
            if not any(slo.name == SERVE_SLO and slo.kind == "latency"
                       and slo.threshold_ns == self.config.slo_threshold_ns
                       for slo in slos):
                raise ConfigError(
                    f"slos must hold a latency SLO named {SERVE_SLO!r} "
                    "with threshold_ns equal to slo_threshold_ns "
                    f"({self.config.slo_threshold_ns}): completions are "
                    "fed to it and judged by that threshold")
            self.slo_engine = SLOEngine(slos, tracer=self.tracer)
            #: a sample older than a grid point by this is in no window
            self._horizon = max(slo.long_window_ns for slo in slos)
        self._paging_scopes: frozenset[str] = frozenset()
        #: the SLO grid is ``_eval_start + k * interval``; ``_next_eval``
        #: is its first point not judged yet, number ``_eval_k``
        self._eval_start, self._eval_k = self.engine.now, 1
        self._next_eval = (self._eval_start + self.config.slo_eval_interval_ns
                           if slos is not None else math.inf)
        #: the one shed rule (queue depth, paging SLO); a service that
        #: runs without a controller gets a private, unlimited one
        self._admission = (service.admission
                           if service.admission is not None
                           else AdmissionController())
        #: the anonymous handle of each domain submitted by bare name
        self._anonymous: dict[str, DomainHandle] = {}
        # -- counters --
        self.seq = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed_count = 0
        self.in_flight = 0
        self.evals = 0
        self.page_evals = 0
        self.page_excursions = 0
        #: submit-to-completion sojourns (always on: the BENCH rows
        #: need percentiles even without a metrics registry)
        self.latency = Histogram()

    def _grow_lanes(self, shard_id: int) -> Dispatcher:
        """``shard_id``'s lane, building and starting, in shard-id
        order, every lane up to it not built yet: all at construction,
        later the ones a reshard grew since."""
        for new_id in range(len(self.lanes), shard_id + 1):
            lane = Dispatcher(self, new_id, self.config, self.service,
                              self.engine, tracer=self.tracer,
                              metrics=self.metrics)
            self.lanes.append(lane)
            if self.metrics is not None:
                self._latency_hists.append(self.metrics.histogram(
                    SERVE_LATENCY_NS, shard=lane.label))
        return self.lanes[shard_id]

    # -- issue half ---------------------------------------------------------

    def submit(self, domain: "DomainHandle | str",
               features: Sequence[int], op: str = "predict",
               direction: bool = False) -> CompletionFuture:
        """Issue one request; returns its future immediately.

        ``domain`` is the caller's :class:`DomainHandle` - who is
        asking, of which domain - or a bare name, which is the
        anonymous :class:`ClientIdentity` asking (and, unlike
        ``connect``, never creates the domain).  The handle admits the
        request here (:meth:`DomainHandle.admit`): whatever the
        synchronous call would refuse - an unknown domain, the policy,
        the tenant's budget, the feature count, a down shard's write -
        fails this request's own future now, with the same exception
        type and the same charge, and nothing is queued.  An admitted
        request can still be shed (queue full, a paging SLO the
        pipeline sheds on), with :class:`RequestShedError`.  The caller
        never blocks either way.
        """
        if op not in ("predict", "update"):
            raise ConfigError(f"unknown serving op {op!r}")
        engine = self.engine
        now = engine.now
        future = CompletionFuture(engine, now)
        if type(features) is not tuple:     # canonical_features, inline
            features = tuple(features)
        self.submitted += 1
        try:
            if not isinstance(domain, str):
                target = domain.admit(op, features)
            else:
                handle = (self._anonymous.get(domain)
                          or self._resolve(domain))
                try:
                    target = handle.admit(op, features)
                except DomainError:
                    # removed since it was resolved: the name may be
                    # another domain's by now
                    target = self._resolve(domain).admit(op, features)
        except PSSError as error:
            self._refused(op, error, domain if isinstance(domain, str)
                          else domain.domain_name)
            future.settle(None, error, now)
            return future
        name = target.name
        shard = target.shard                # Domain.shard_id, inline
        shard_id = shard.shard_id if shard is not None else 0
        try:
            lane = self.lanes[shard_id]
        except IndexError:   # a shard grown since the last lane was built
            lane = self._grow_lanes(shard_id)
        self.seq = seq = self.seq + 1
        request = Request(op, target, features, future, direction,
                          shard_id, seq)
        config = self.config
        if now >= self._next_eval:
            self._judge_until(now)
        reason = self._admission.admit_request(
            len(lane.items), config.queue_limit,
            # should_shed is asked only while some scope is paging
            bool(self._paging_scopes) and config.shed_on_page
            and self.should_shed(name, lane.label))
        if reason is not None:
            self.shed_count += 1
            lane.record_shed(request, reason)
            future.settle(None, RequestShedError(reason, name, shard_id),
                          now)
            return future
        lane.push(request)
        self.in_flight += 1
        return future

    def _resolve(self, name: str) -> DomainHandle:
        """The anonymous identity's handle on an existing domain, kept
        per name (:class:`DomainError` for a name that is none)."""
        handle = self._anonymous[name] = DomainHandle(
            self.service.domain(name), _ANONYMOUS, self.service.admission)
        return handle

    def _refused(self, op: str, error: PSSError, name: str) -> None:
        """Account a request its handle did not admit: counted in
        ``failed``, one ``request`` record of no duration saying why,
        never queued (so on no shard's track).  Not a latency sample:
        a caller over its budget or off the allow-list says nothing
        about the service's health, and feeding it to the SLO would
        let one tenant's refusals shed another's requests."""
        self.failed += 1
        if self.tracer.enabled:
            reason = _REFUSALS.get(type(error))
            self.tracer.record(
                "request", name, "serving", self.engine.now, 0.0, 0,
                {"op": op,
                 "outcome": (f"refused:{reason}" if reason is not None
                             else f"error:{type(error).__name__}")})

    # -- health ---------------------------------------------------------------

    def should_shed(self, domain: str = "", shard: str = "") -> bool:
        """Cached SLO verdict: is a paging scope covering this target?
        O(1), for a shedding pipeline asks on every submit while some
        scope pages: the scopes change only when a grid point is judged.
        """
        scopes = self._paging_scopes
        if not scopes:
            return False
        if "*" in scopes:
            return True
        if shard and f"shard:{shard}" in scopes:
            return True
        return bool(domain) and domain in scopes

    def _judge_until(self, now: float) -> None:
        """Judge, in order, every grid point at or before ``now`` not
        judged yet, each at its own time (``evaluate`` counts no sample
        stamped after it), into the paging cache.  Once the latest
        sample is out of every window, the points left up to ``now``
        all judge empty windows: one evaluation counts for them all."""
        interval = self.config.slo_eval_interval_ns
        start, k, at = self._eval_start, self._eval_k, self._next_eval
        while at <= now:
            if self.slo_engine.latest_ns < at - self._horizon:
                last = max(k, int((now - start) // interval))
                self.evals += last - k
                k, at = last, start + last * interval
            self.evals += 1
            # looked up per call: a profiler may shadow it on the instance
            verdicts = self.slo_engine.evaluate(at)
            paging = frozenset(v.scope for v in verdicts
                               if v.verdict == "page")
            if paging:
                self.page_evals += 1
                if not self._paging_scopes:
                    self.page_excursions += 1
            self._paging_scopes = paging
            k += 1
            at = start + k * interval
        self._eval_k, self._next_eval = k, at

    # -- completion half (lane callbacks) ----------------------------------

    def request_done(self, request: Request, value: Any) -> None:
        """Complete one served request (lane only)."""
        now = self.engine.now
        self.completed += 1
        self.in_flight -= 1
        sojourn = now - request.future.submitted_ns
        self.latency.observe(sojourn)
        if self._latency_hists:
            self._latency_hists[request.shard_id].observe(sojourn)
        if self.slo_engine is not None:
            self.slo_engine.observe(
                SERVE_SLO, now,
                good=sojourn <= self.config.slo_threshold_ns)
        if self.tracer.enabled:
            self._trace_request(request, now, "ok")
        request.future.settle(value, None, now)

    def request_failed(self, request: Request,
                       error: BaseException) -> None:
        """Fail one request with the kernel's error (lane only).

        A failed request misses any latency limit: a bad ``SERVE_SLO``
        sample, so a shard that fails everything it is sent pages.  A
        *shed* never reaches here: sheds are what a page causes, and
        counting them as bad samples would latch the page.
        """
        now = self.engine.now
        self.failed += 1
        self.in_flight -= 1
        if self.slo_engine is not None:
            self.slo_engine.observe(SERVE_SLO, now, good=False)
        if self.tracer.enabled:
            self._trace_request(request, now,
                                f"error:{type(error).__name__}")
        request.future.settle(None, error, now)

    def _trace_request(self, request: Request, now: float,
                       outcome: str) -> None:
        """The one record of a settled request: a ``request`` event
        spanning its sojourn (``ts_ns`` the submit) whose detail
        carries its stage stamps - ``collect_ns`` (its lane began
        collecting the batch; earlier than the submit for a request
        that arrived inside the window), ``drained_ns``,
        ``settled_ns`` - read off the lane, which still has that batch
        in hand (:func:`repro.obs.postmortem.request_stages` turns them
        into stages).  It names the shard hosting its domain now."""
        lane = self.lanes[request.shard_id]
        submitted = request.future.submitted_ns
        domain = request.domain
        spans = self._open_spans
        self._emit((
            self._next_event(), submitted, "request", domain.name,
            "serving", now - submitted, 0,
            {"op": request.op, "outcome": outcome,
             "rows": lane.batch_rows, "trigger": lane.trigger,
             "collect_ns": lane.collect_ns,
             "drained_ns": lane.drained_ns, "settled_ns": now},
            domain.shard_label, spans[-1].span_id if spans else 0))

    # -- driving -------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Drive the engine (to ``until``, or until its last request
        settles), then judge the grid points the run passed."""
        engine = self.engine
        engine.run(until=until)
        if engine.now >= self._next_eval:
            self._judge_until(engine.now)

    def mark_load_complete(self) -> None:
        """A no-op: a run ends when its last request settles, with or
        without being told that the load is complete."""

    # -- reporting -----------------------------------------------------------

    def batch_stats(self) -> dict[str, float]:
        """Drain counters summed across lanes."""
        lanes = self.lanes
        return {
            "batches": sum(lane.batches for lane in lanes),
            "rows": sum(lane.rows for lane in lanes),
            "flush_timeouts": sum(lane.flush_timeouts for lane in lanes),
        }

    def snapshot(self) -> dict[str, Any]:
        """Stable-keyed counters + percentiles for reports/BENCH json."""
        batches = self.batch_stats()
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed_count,
            "in_flight": self.in_flight,
            "batches": batches["batches"],
            "flush_timeouts": batches["flush_timeouts"],
            "mean_batch": (batches["rows"] / batches["batches"]
                           if batches["batches"] else 0.0),
            "latency": self.latency.snapshot(),
            "queues": [lane.snapshot() for lane in self.lanes],
            "slo": {
                "evals": self.evals,
                "page_evals": self.page_evals,
                "page_excursions": self.page_excursions,
            },
            "admission": {
                "sheds_enforced": self._admission.sheds_enforced,
            },
        }

    def annotate_summaries(
        self, summaries: list[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Thread queue/batch/shed visibility into
        ``shard_summaries()`` rows (rendered by ``shard_table``)."""
        for summary in summaries:
            shard_id = summary.get("shard")
            if isinstance(shard_id, int) and shard_id < len(self.lanes):
                lane = self.lanes[shard_id]
                summary["serving"] = {
                    "enqueued": lane.enqueued,
                    "shed": lane.shed,
                    "max_depth": lane.max_depth,
                    "batches": lane.batches,
                    "flush_timeouts": lane.flush_timeouts,
                }
        return summaries
