"""User-side client handle for the Prediction System Service.

A :class:`PSSClient` is what an application links against: the equivalent of
the small shared library the paper maps into user space.  It exposes the
three paper calls plus boolean conveniences, and routes them through a
transport (vDSO fast path by default) that charges simulated latency.

Typical use::

    service = PredictionService()
    client = service.connect("my-domain")
    if client.predict_bool([perf_cnt, remaining_retries]):
        ...  # fast path
    client.update([perf_cnt, remaining_retries], direction=True)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from repro.core.config import LatencyModel, ResilienceConfig
from repro.core.errors import (
    FeatureError,
    PSSError,
    QuotaExceededError,
    RequestShedError,
    TransportFault,
)
from repro.core.features import canonical_features
from repro.core.serving.future import CompletionFuture
from repro.core.service import DomainHandle
from repro.core.stats import LatencyAccount, ResilienceStats
from repro.core.transport import Transport, make_transport
from repro.obs.spanned import named, spanned
from repro.obs.trace import NULL_TRACER, SpanHandleLike

if TYPE_CHECKING:
    from repro.core.faults import FaultInjector
    from repro.core.serving.pipeline import ServingPipeline

#: a static fallback: a fixed score, or a pure function of the features
Fallback = Union[int, Callable[[Sequence[int]], int]]

#: what a resilient client absorbs instead of raising
_DEGRADABLE = (QuotaExceededError, TransportFault)


def _settled(call: Callable[..., Any], *args: Any) -> CompletionFuture:
    """``call(*args)`` now, its outcome - the value, or the
    :class:`PSSError` it refused with - as an already-settled future."""
    future = CompletionFuture()
    try:
        future.complete(call(*args))
    except PSSError as error:
        future.fail(error)
    return future


class PSSClient:
    """Application-facing connection to one prediction domain.

    A plain client adds nothing to its transport's crossing, so it
    opens no span of its own: where a call crosses, the transport's
    span (``syscall.update``, ``vdso.flush`` ...) is the root of its
    trace.  A vDSO read, hit or miss, is one record: its ``predict``
    event, no span (a vDSO read never enters the kernel), which names
    a refusal in ``detail.outcome``.
    :class:`ResilientClient`, which may cross several times for one
    call, roots them under ``client.*``.
    """

    def __init__(self, handle: DomainHandle,
                 transport_kind: str = "vdso",
                 latency: LatencyModel | None = None,
                 batch_size: int = 32) -> None:
        self._handle = handle
        self._transport: Transport = make_transport(
            transport_kind, handle, latency, batch_size=batch_size
        )
        #: the transport's read, bound once
        self._read = self._transport.predict
        self._pipeline: "ServingPipeline | None" = None

    # -- identity / introspection -------------------------------------------

    @property
    def domain_name(self) -> str:
        return self._handle.domain_name

    @property
    def transport_name(self) -> str:
        return self._transport.name

    @property
    def latency(self) -> LatencyAccount:
        """Simulated boundary-crossing time charged so far."""
        return self._transport.account

    @property
    def latency_model(self) -> LatencyModel:
        """The per-crossing costs the transport charges."""
        return self._transport._latency

    @property
    def pending_updates(self) -> int:
        """Buffered update records not yet delivered (vDSO transport)."""
        return self._transport.pending_updates

    # -- the paper's three calls ---------------------------------------------

    def predict(self, features: Sequence[int]) -> int:
        """Signed prediction score: ``int predict(int*, int)``."""
        # The row as given: the transport's tuple test is a read's one
        # canonicalisation (a call here would double it).
        return self._read(features)

    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Signed scores for a whole batch of feature vectors.

        Scores are bit-identical to ``[predict(r) for r in
        feature_rows]``; what changes is the cost model - the transport
        amortizes its crossing (one syscall round-trip, one batched
        pass over the score cache and the domain's specialized plan).
        See docs/PERFORMANCE.md, "Batched and specialized prediction".
        Both transports canonicalise the rows themselves.
        """
        return self._transport.predict_batch(feature_rows)

    def update(self, features: Sequence[int], direction: bool) -> None:
        """Feedback: ``void update(int*, int, bool dir)``."""
        # canonical_features, written out: on the vDSO transport an
        # update is a list append, and a call here would double it
        self._transport.update(
            features if type(features) is tuple else tuple(features),
            direction)

    def reset(self, features: Sequence[int],
              reset_all: bool = False) -> None:
        """State wipe: ``void reset(int*, int, bool all)``."""
        self._transport.reset(canonical_features(features), reset_all)

    # -- conveniences ---------------------------------------------------------

    def predict_bool(self, features: Sequence[int]) -> bool:
        """True when the score clears the domain threshold."""
        return self.predict(features) >= self._handle.threshold

    def reward(self, features: Sequence[int]) -> None:
        """``update(features, True)`` - the paper's +1 reward."""
        self.update(features, True)

    def penalize(self, features: Sequence[int]) -> None:
        """``update(features, False)`` - the paper's -1 reward."""
        self.update(features, False)

    def flush(self) -> None:
        """Deliver any batched updates now."""
        self._transport.flush()

    # -- async serving (event-driven pipeline) -------------------------------

    def attach_pipeline(self, pipeline: "ServingPipeline | None") -> None:
        """Route :meth:`submit`/:meth:`submit_update` through an
        event-driven :class:`~repro.core.serving.pipeline
        .ServingPipeline` (or detach with ``None``).

        The synchronous calls are untouched either way; only the
        ``submit`` family changes behaviour.  Submitted requests bypass
        this client's transport - queueing delay and the micro-batch
        crossing cost are charged by the pipeline's own simulated
        clock instead of the transport's latency account.
        """
        self._pipeline = pipeline

    def submit(self, features: Sequence[int]) -> CompletionFuture:
        """Issue a predict without blocking; returns its future.

        With a pipeline attached the request is submitted under this
        client's handle - admitted there exactly as :meth:`predict`
        would be - queues on its domain's serving shard and completes
        when the dispatcher's micro-batch crosses the kernel.  Without
        one the call is the synchronous path and the future comes back
        already settled, with the score or with the refusal
        :meth:`predict` raises, so callers can target one API in both
        deployments.
        """
        features = canonical_features(features)
        if self._pipeline is None:
            return _settled(self.predict, features)
        return self._pipeline.submit(self._handle, features)

    def submit_update(self, features: Sequence[int],
                      direction: bool) -> CompletionFuture:
        """Issue an update without blocking; the future resolves to
        ``None`` once the write has been applied in queue order."""
        features = canonical_features(features)
        if self._pipeline is None:
            return _settled(self.update, features, direction)
        return self._pipeline.submit(self._handle, features,
                                     op="update", direction=direction)

    def close(self) -> None:
        """Flush buffered updates and release the connection."""
        self._transport.close()

    def attach_fault_injector(self,
                              injector: FaultInjector | None) -> None:
        """Attach a :class:`FaultInjector` to this client's transport."""
        self._transport.attach_injector(injector)

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Wire a :class:`repro.obs.Tracer` and/or
        :class:`repro.obs.MetricsRegistry` through this client's
        transport (and, on resilient clients, the degraded-mode
        machinery)."""
        self._transport.attach_observability(tracer=tracer,
                                             metrics=metrics)

    def __enter__(self) -> "PSSClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one client.

    CLOSED passes operations through; ``threshold`` consecutive failures
    trip it OPEN.  While OPEN the client serves static fallbacks without
    touching the transport; after ``cooldown`` degraded calls the breaker
    HALF-OPENs and lets one probe operation through.  A successful probe
    closes the breaker (the transport healed); a failed one re-opens it
    for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int, cooldown: int,
                 stats: ResilienceStats | None = None) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._cooldown_left = 0
        self._stats = stats or ResilienceStats()
        # Observability: set by ResilientClient.attach_observability so
        # state transitions land on the owning client's trace track.
        self.tracer = NULL_TRACER
        self.trace_domain = ""
        self.trace_clock = None

    def _trace_transition(self, kind: str) -> None:
        ts = self.trace_clock() if self.trace_clock is not None else None
        self.tracer.record(kind, domain=self.trace_domain,
                           transport="breaker", ts_ns=ts)

    def allow(self) -> bool:
        """Whether the next operation may touch the transport: while
        OPEN, not for ``cooldown`` calls, then once, as the probe."""
        if self.state == self.OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            self._stats.breaker_closes += 1
            if self.tracer.enabled:
                self._trace_transition("breaker_close")

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self.state == self.HALF_OPEN \
                or self._consecutive_failures >= self.threshold:
            self.state = self.OPEN
            self._cooldown_left = self.cooldown
            self._consecutive_failures = 0
            self._stats.breaker_opens += 1
            if self.tracer.enabled:
                self._trace_transition("breaker_open")


class ResilientClient(PSSClient):
    """A PSSClient that degrades gracefully instead of raising.

    The paper's safety property - predictions are hints, so a missing
    prediction may cost performance but never correctness - becomes an
    API guarantee here: ``predict``/``update``/``reset``/``flush`` never
    leak a :class:`~repro.core.errors.TransportFault` into scenario code.

    * Syscall-path operations get bounded retry with exponential backoff
      (simulated time, accounted in :attr:`stats`).
    * A :class:`CircuitBreaker` trips after repeated operation failures;
      while open, predictions are answered by the **static fallback**
      (per-domain configured: HLE always-attempts-HTM, JIT holds its
      parameters, mm applies the kernel's fixed 12.5 % threshold) and
      updates/resets are dropped - they are only hints.
    * When the transport heals, the breaker's half-open probe discovers
      it and normal service resumes.
    * Admission rejections (:class:`~repro.core.errors
      .QuotaExceededError`) are served by the same static fallback but
      are **never retried** and never trip the breaker: a retry cannot
      un-exhaust a budget, and the transport itself is healthy.
    * Shard crashes compose with the kernel's own failover ladder: a
      down shard's predictions are first served by its follower
      replicas (inside the handle, bounded-stale), and only when no
      follower holds the domain does the resulting
      :class:`~repro.core.errors.ShardDownError` - a
      :class:`~repro.core.errors.TransportFault` - reach this client,
      where it retries/falls back like any other transport fault.
      Buffered updates lost to a mid-flush crash are reported on
      ``stats`` as dropped, exactly like an undelivered batch.
    """

    def __init__(self, handle: DomainHandle,
                 transport_kind: str = "vdso",
                 latency: LatencyModel | None = None,
                 batch_size: int = 32,
                 resilience: ResilienceConfig | None = None,
                 fallback: Fallback = 0,
                 stats: ResilienceStats | None = None) -> None:
        super().__init__(handle, transport_kind, latency, batch_size)
        self.resilience = resilience or ResilienceConfig()
        # ``stats`` may be shared (PredictionService.connect hands every
        # resilient client of a domain the same block, so run reports
        # can surface a per-domain aggregate).
        self.stats = stats if stats is not None else ResilienceStats()
        self._breaker = CircuitBreaker(
            self.resilience.breaker_threshold,
            self.resilience.breaker_cooldown,
            self.stats,
        )
        self._fallback = fallback
        self._last_was_fallback = False
        #: the breaker is closed with no failure counted and no fallback
        #: was served since the last success: a predict is then the
        #: plain read, and the ladder below is entered only on a fault
        self._steady = True
        self._tracer = NULL_TRACER
        # The span's domain label and the simulated clock, bound once
        # (a span per public call would otherwise re-derive them); the
        # shard label is the account's, which a reshard keeps current.
        self._obs_domain = handle.domain_name
        self._clock = self._transport.account.clock

    def attach_observability(self, tracer=None, metrics=None) -> None:
        super().attach_observability(tracer=tracer, metrics=metrics)
        if tracer is not None:
            self._tracer = tracer
            self._breaker.tracer = tracer
            self._breaker.trace_domain = self._obs_domain
            self._breaker.trace_clock = self._clock

    def _client_span(self, name: str,
                     detail: dict | None = None) -> SpanHandleLike:
        """Root span for one application-facing call: opened once per
        public operation (so one ``predict`` yields one span tree
        however many attempts the retry ladder below makes), on the
        transport account's simulated clock."""
        return self._tracer.span(
            name, self._obs_domain, "client",
            self._transport.account.shard_label, None, detail,
            self._clock)

    def _trace_client(self, kind: str, detail: dict | None = None) -> None:
        self._tracer.record(
            kind, domain=self._obs_domain, transport="client",
            ts_ns=self._clock(), detail=detail,
        )

    # -- introspection -------------------------------------------------------

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    @property
    def last_prediction_was_fallback(self) -> bool:
        """True when the most recent predict was served degraded.

        Scenario code can use this to apply domain-specific degraded
        behaviour beyond the score itself (the JIT tuner holds its
        ladder position, for example).
        """
        return self._last_was_fallback

    def fallback_score(self, features: Sequence[int]) -> int:
        fb = self._fallback
        return fb(features) if callable(fb) else fb

    # -- the degrade ladder ---------------------------------------------------

    def _degrade(self, error: "QuotaExceededError | TransportFault",
                 trip_breaker: bool = True) -> str:
        """Classify a failed operation and count it; returns the
        reason it degrades for.

        A shed is the service asking for less load and a quota
        rejection is a healthy transport refusing an over-budget
        tenant: neither is retried and neither trips the breaker.
        Only a transport fault does, and only on the synchronous path
        (``trip_breaker``) - the pipeline and ``close`` never consult
        the breaker, so they do not feed it either.
        """
        stats = self.stats
        self._steady = False
        if isinstance(error, RequestShedError):
            stats.shed_requests += 1
            return error.reason
        if isinstance(error, QuotaExceededError):
            stats.quota_rejections += 1
            return "quota"
        stats.transport_failures += 1
        if trip_breaker:
            self._breaker.record_failure()
        return "transport_fault"

    def _serve_fallback(self, reason: str,
                        rows: Sequence[Sequence[int]],
                        batch: bool = False) -> list[int]:
        """Answer ``rows`` from the static fallback, counted and
        traced under ``reason``."""
        self._last_was_fallback = True
        self._steady = False
        self.stats.fallback_predictions += len(rows)
        if self._tracer.enabled:
            detail: dict[str, Any] = {"reason": reason}
            if batch:
                detail["rows"] = len(rows)
            self._trace_client("fallback", detail=detail)
        return [self.fallback_score(features) for features in rows]

    # -- async serving: degraded completion ----------------------------------

    def _submit_guarded(self, pipeline: "ServingPipeline",
                        features: tuple[int, ...],
                        op: str = "predict",
                        direction: bool = False) -> CompletionFuture:
        """Submit one request under this client's handle; the returned
        future settles when it does, but never with an error the
        degrade ladder absorbs - refused at submit (a spent quota, a
        shed) or failed at dispatch alike; a :class:`PolicyError` is
        not one, here as in :meth:`predict`.  No retry: shedding is
        the service asking for less load, so replaying the request
        would defeat it."""
        outer = CompletionFuture(pipeline.engine,
                                 submitted_ns=pipeline.engine.now)
        inner = pipeline.submit(self._handle, features, op=op,
                                direction=direction)
        is_predict = op == "predict"

        def settle(done: CompletionFuture) -> None:
            error = done.error
            if is_predict:
                self._last_was_fallback = False
            if error is None:
                result = done.result()
            elif not isinstance(error, _DEGRADABLE):
                outer.fail(error, ts_ns=done.completed_ns)
                return
            else:
                reason = self._degrade(error, trip_breaker=False)
                if is_predict:
                    result = self._serve_fallback(reason, (features,))[0]
                else:
                    self.stats.dropped_updates += 1
                    result = None
            outer.complete(result, ts_ns=done.completed_ns)

        inner.add_done_callback(settle)
        return outer

    def submit(self, features: Sequence[int]) -> CompletionFuture:
        """Issue a predict through the pipeline with the resilient
        contract intact: the returned future *never* fails with a
        transport-class error.

        A shed (:class:`RequestShedError`), quota rejection, or kernel
        fault on the batch completes the future with the static
        fallback score instead - the async analogue of the synchronous
        degraded path.
        """
        pipeline = self._pipeline
        if pipeline is None:
            return super().submit(features)
        features = canonical_features(features)
        self.stats.predictions += 1
        return self._submit_guarded(pipeline, features)

    def submit_update(self, features: Sequence[int],
                      direction: bool) -> CompletionFuture:
        """Issue an update; failures drop the hint, never the caller.

        The future always completes with ``None`` - a shed or faulted
        update is counted in :attr:`stats` as dropped, exactly like the
        synchronous degraded path drops hints while the breaker is
        open.
        """
        pipeline = self._pipeline
        if pipeline is None:
            return super().submit_update(features, direction)
        return self._submit_guarded(
            pipeline, canonical_features(features),
            op="update", direction=direction)

    # -- the guarded calls ----------------------------------------------------

    @spanned(named(_client_span, "client.predict"))
    def predict(self, features: Sequence[int]) -> int:
        """``predict`` that answers from the static fallback instead of
        raising when the breaker is open, the tenant is over quota, or
        the transport still faults after the retries.

        While :attr:`_steady` it is the plain client's read plus one
        count: the breaker is closed with nothing to reset, so it is
        consulted only once a read raises.
        """
        if self._steady:
            try:
                score = self._read(features)
            except PSSError as error:
                return self._guarded_predict(
                    canonical_features(features), error)
            self.stats.predictions += 1
            return score
        return self._guarded_predict(canonical_features(features))

    def _guarded_predict(self, features: tuple[int, ...],
                         error: PSSError | None = None) -> int:
        """The degrade ladder's predict: the breaker consulted, the
        read retried on a transport fault, the fallback served once
        the ladder gives up - entered with the ``error`` a steady
        read already raised, if it did (the breaker is then closed,
        so consulting it after that read changes nothing)."""
        self.stats.predictions += 1
        self._last_was_fallback = False
        if not self._breaker.allow():
            return self._serve_fallback("breaker_open", (features,))[0]
        try:
            score = self._attempt(self._read, features, error=error)
        except _DEGRADABLE as failure:
            return self._serve_fallback(
                self._degrade(failure), (features,))[0]
        self._breaker.record_success()
        self._steady = True
        return score

    @spanned(named(_client_span, "client.predict_batch", rows=True))
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Batch predict with whole-batch degraded semantics.

        A batch is one guarded operation: the breaker is consulted once,
        retries replay the *entire* batch (transports either return all
        scores or raise before returning any, so a replay never
        double-serves a row), and on degradation - breaker open,
        quota exhausted, transport fault after retries - every row of
        the batch is answered by the static fallback.  Quota rejections
        are never retried and never trip the breaker, exactly like the
        scalar call.
        """
        rows = [f if type(f) is tuple else tuple(f) for f in feature_rows]
        if not rows:
            return []
        self.stats.predictions += len(rows)
        self._last_was_fallback = False
        if not self._breaker.allow():
            return self._serve_fallback("breaker_open", rows, batch=True)
        try:
            scores = self._attempt(self._transport.predict_batch, rows)
        except _DEGRADABLE as error:
            return self._serve_fallback(
                self._degrade(error), rows, batch=True)
        self._breaker.record_success()
        return scores

    @spanned(named(_client_span, "client.update"))
    def update(self, features: Sequence[int], direction: bool) -> None:
        """``update`` that drops the hint (counted) instead of raising."""
        features = canonical_features(features)
        if not self._breaker.allow():
            self.stats.dropped_updates += 1
            return
        try:
            self._attempt(self._transport.update, features, direction)
        except _DEGRADABLE as error:
            self._degrade(error)
            if isinstance(error, QuotaExceededError):
                # Not a crossing's fault, so _attempt counted nothing:
                # the refused record, or the suffix of the flush this
                # update triggered.
                self.stats.dropped_updates += error.lost_records
            elif error.lost_records == 0:
                # The record never reached a buffer, so _attempt could
                # not have counted it among a crossing's lost records.
                self.stats.dropped_updates += 1
        else:
            self._breaker.record_success()

    @spanned(named(_client_span, "client.reset"))
    def reset(self, features: Sequence[int],
              reset_all: bool = False) -> None:
        """``reset`` that drops the wipe (counted) instead of raising."""
        features = canonical_features(features)
        if not self._breaker.allow():
            self.stats.dropped_resets += 1
            return
        try:
            self._attempt(self._transport.reset, features, reset_all)
        except _DEGRADABLE as error:
            self._degrade(error)
            if isinstance(error, QuotaExceededError):
                # The flush the reset crossed first refused its suffix.
                self.stats.dropped_updates += error.lost_records
            self.stats.dropped_resets += 1
        else:
            self._breaker.record_success()

    @spanned(named(_client_span, "client.flush"))
    def flush(self) -> None:
        """``flush`` that counts an undelivered batch instead of
        raising."""
        if self.pending_updates == 0:
            return
        if not self._breaker.allow():
            # Leave the records buffered: they are not lost, just late,
            # and will go out once the transport heals.
            return
        # No retry: a failed flush has already drained the batch buffer,
        # so retrying would only "succeed" against an empty buffer and
        # hide the loss.
        try:
            self._transport.flush()
        except _DEGRADABLE as error:
            self._degrade(error)
            self.stats.dropped_updates += error.lost_records
        except FeatureError as error:
            self.stats.dropped_updates += error.lost_records
            raise
        else:
            self._breaker.record_success()

    def close(self) -> None:
        try:
            self._transport.close()
        except _DEGRADABLE as error:
            self._degrade(error, trip_breaker=False)
            self.stats.dropped_updates += error.lost_records
        except FeatureError as error:
            self.stats.dropped_updates += error.lost_records
            raise

    # -- retry machinery ------------------------------------------------------

    def _attempt(self, operation: Callable[..., Any], *args: Any,
                 error: PSSError | None = None) -> Any:
        """Run ``operation(*args)`` with bounded retry + exponential
        backoff; ``error`` is what a first attempt made before the call
        raised, if one was.  A transport fault is retried until
        ``max_attempts`` attempts were made, and what the last one
        raised is raised; any other error is raised at once.

        Batch records lost with any failed crossing are counted here
        (they are gone whether or not a later attempt succeeds), and so
        are the malformed records of a flush the operation triggered -
        a :class:`FeatureError` is the caller's bug and still raised.
        """
        config = self.resilience
        attempt = 0
        while True:
            if error is None:
                try:
                    return operation(*args)
                except (FeatureError, TransportFault) as failure:
                    error = failure
            if isinstance(error, FeatureError):
                self.stats.dropped_updates += error.lost_records
                raise error
            if not isinstance(error, TransportFault):
                raise error
            self.stats.dropped_updates += error.lost_records
            if attempt + 1 >= config.max_attempts:
                raise error
            self.stats.retries += 1
            backoff = (config.backoff_base_ns
                       * config.backoff_multiplier ** attempt)
            self.stats.backoff_ns += backoff
            if self._tracer.enabled:
                self._trace_client("retry", detail={
                    "attempt": attempt + 1,
                    "errno": error.errno_name,
                    "backoff_ns": backoff,
                })
            attempt += 1
            error = None
