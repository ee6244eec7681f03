"""User-side client handle for the Prediction System Service.

A :class:`PSSClient` is what an application links against: the equivalent of
the small shared library the paper maps into user space.  It exposes the
three paper calls plus boolean conveniences, and routes them through a
transport (vDSO fast path by default) that charges simulated latency,
and degrades instead of raising when the service fails.

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

#: what the degrade ladder absorbs instead of raising
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
    """Application-facing connection to one prediction domain, which
    degrades instead of raising.

    Predictions are hints, so a missing one may cost performance but
    never correctness: no call leaks a
    :class:`~repro.core.errors.TransportFault` or a
    :class:`~repro.core.errors.QuotaExceededError` into scenario code.

    * While the client is *steady* - the breaker closed with no failure
      counted, no fallback served since the last success - a call is
      its transport's call in a ``try``: no breaker, span or count.  A
      refused call, and any call while not steady, enters the degrade
      ladder; a success there makes the client steady again.
    * A transport fault (a crashed shard no follower covers is one) is
      retried with exponential backoff, simulated and kept on
      :attr:`stats`; a quota rejection is never retried.
    * A :class:`CircuitBreaker` trips after repeated faults.  While it
      is open, and once a call gives up, a read is answered by the
      domain's **static fallback** (HLE attempts HTM, JIT holds its
      parameters, mm applies the kernel's fixed 12.5 % threshold) and
      a write is dropped; update records lost with a crossing are
      counted as dropped.

    A steady call opens no span: where it crosses, the transport's
    span roots its trace, and a vDSO read is one ``predict`` event
    naming any refusal in ``detail.outcome``.  A call on the ladder
    opens ``client.*``, which roots its retries and its fallback.
    """

    def __init__(self, handle: DomainHandle,
                 transport_kind: str = "vdso",
                 latency: LatencyModel | None = None,
                 batch_size: int = 32,
                 resilience: ResilienceConfig | None = None,
                 fallback: Fallback = 0,
                 stats: ResilienceStats | None = None) -> None:
        self._handle = handle
        self._transport: Transport = make_transport(
            transport_kind, handle, latency, batch_size=batch_size)
        #: the transport's read, bound once
        self._read = self._transport.predict
        self._pipeline: "ServingPipeline | None" = None
        config = self.resilience = resilience or ResilienceConfig()
        # shared: connect() hands every client of a domain one block
        self.stats = stats if stats is not None else ResilienceStats()
        self._breaker = CircuitBreaker(
            config.breaker_threshold, config.breaker_cooldown, self.stats)
        self._fallback = fallback
        self._last_was_fallback = False
        #: breaker closed, nothing counted, no fallback since a success
        self._steady = True
        self._tracer = NULL_TRACER
        # bound once; the shard label is the account's, kept current
        self._obs_domain = handle.domain_name
        self._clock = self._transport.account.clock

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

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    @property
    def last_prediction_was_fallback(self) -> bool:
        """True when the most recent predict was served degraded (the
        JIT tuner then holds its ladder position, for example)."""
        return self._last_was_fallback

    def fallback_score(self, features: Sequence[int]) -> int:
        fb = self._fallback
        return fb(features) if callable(fb) else fb

    # -- the paper's three calls ---------------------------------------------

    def predict(self, features: Sequence[int]) -> int:
        """Signed prediction score: ``int predict(int*, int)``, or the
        static fallback's once the ladder gives up."""
        # the row as given: the transport's tuple test canonicalises it
        if self._steady:
            try:
                return self._read(features)
            except PSSError as error:
                return self._predict_ladder(features, error)
        return self._predict_ladder(features)

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

        A batch is one call on the ladder: a retry replays all of it
        (a transport returns every score or none), and a degraded
        batch is answered row by row from the static fallback.
        """
        if self._steady:
            try:
                return self._transport.predict_batch(feature_rows)
            except PSSError as error:
                return self._predict_batch_ladder(feature_rows, error)
        return self._predict_batch_ladder(feature_rows)

    def update(self, features: Sequence[int], direction: bool) -> None:
        """Feedback: ``void update(int*, int, bool dir)``; a refused
        record is dropped and counted."""
        if self._steady:
            try:
                # canonical_features, written out: on the vDSO transport
                # an update is a list append, and a call would double it
                return self._transport.update(
                    features if type(features) is tuple
                    else tuple(features), direction)
            except PSSError as error:
                return self._update_ladder(features, direction, error)
        return self._update_ladder(features, direction)

    def reset(self, features: Sequence[int],
              reset_all: bool = False) -> None:
        """State wipe: ``void reset(int*, int, bool all)``; a refused
        wipe is dropped and counted."""
        if self._steady:
            try:
                return self._transport.reset(canonical_features(features),
                                             reset_all)
            except PSSError as error:
                return self._reset_ladder(features, reset_all, error)
        return self._reset_ladder(features, reset_all)

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
        """Deliver any batched updates now; an undelivered batch is
        counted, not raised."""
        if self._steady:
            try:
                return self._transport.flush()
            except PSSError as error:
                return self._flush_ladder(error)
        if self.pending_updates:
            self._flush_ladder()

    # -- async serving (event-driven pipeline) -------------------------------

    def attach_pipeline(self, pipeline: "ServingPipeline | None") -> None:
        """Route :meth:`submit`/:meth:`submit_update` through an
        event-driven :class:`~repro.core.serving.pipeline
        .ServingPipeline` (or detach with ``None``): they then bypass
        this client's transport, and the pipeline's simulated clock
        charges their queueing and crossing."""
        self._pipeline = pipeline

    def submit(self, features: Sequence[int]) -> CompletionFuture:
        """Issue a predict without blocking; returns its future.

        With a pipeline attached the request is admitted under this
        client's handle, queues on its domain's serving shard and
        completes when its micro-batch crosses the kernel - or, shed,
        over quota or faulted, with the static fallback.  Without one
        it is :meth:`predict`, settled at once.  Either way the future
        fails only with what :meth:`predict` raises.
        """
        features = canonical_features(features)
        if self._pipeline is None:
            return _settled(self.predict, features)
        return self._submit_guarded(self._pipeline, features)

    def submit_update(self, features: Sequence[int],
                      direction: bool) -> CompletionFuture:
        """Issue an update without blocking; the future resolves to
        ``None`` once the write has been applied in queue order, or
        once a shed or faulted write was counted as dropped."""
        features = canonical_features(features)
        if self._pipeline is None:
            return _settled(self.update, features, direction)
        return self._submit_guarded(self._pipeline, features,
                                    op="update", direction=direction)

    def _submit_guarded(self, pipeline: "ServingPipeline",
                        features: tuple[int, ...], op: str = "predict",
                        direction: bool = False) -> CompletionFuture:
        """Submit one request under this client's handle; the returned
        future settles when it does, but never with an error the
        ladder absorbs.  No retry and no breaker: shedding is the
        service asking for less load."""
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

    def close(self) -> None:
        """Flush buffered updates and release the connection."""
        try:
            self._attempt(self._transport.close, (), retry=False)
        except _DEGRADABLE as error:
            self._degrade(error, trip_breaker=False)

    def attach_fault_injector(self,
                              injector: FaultInjector | None) -> None:
        """Put a :class:`~repro.core.faults.FaultLayer` for
        ``injector`` in front of this client's transport, replacing
        any there; ``None`` removes it."""
        from repro.core.faults import attach_injector

        attach_injector(self._transport, injector)
        self._read = self._transport.predict

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Wire a :class:`repro.obs.Tracer` and/or
        :class:`repro.obs.MetricsRegistry` through this client's
        transport and its degrade ladder."""
        self._transport.attach_observability(tracer=tracer, metrics=metrics)
        if tracer is not None:
            self._tracer = tracer
            self._breaker.tracer = tracer
            self._breaker.trace_domain = self._obs_domain
            self._breaker.trace_clock = self._clock

    def __enter__(self) -> "PSSClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the degrade ladder ---------------------------------------------------

    def _client_span(self, name: str,
                     detail: dict | None = None) -> SpanHandleLike:
        """Root span for one call on the ladder, on the transport
        account's simulated clock."""
        return self._tracer.span(
            name, self._obs_domain, "client",
            self._transport.account.shard_label, None, detail,
            self._clock)

    @spanned(named(_client_span, "client.predict"))
    def _predict_ladder(self, features: Sequence[int],
                        error: PSSError | None = None) -> int:
        row = canonical_features(features)
        self._last_was_fallback = False
        return self._ladder(
            lambda reason, _: self._serve_fallback(reason, (row,))[0],
            self._read, (row,), error)

    @spanned(named(_client_span, "client.predict_batch", "rows"))
    def _predict_batch_ladder(self, feature_rows: Sequence[Sequence[int]],
                              error: PSSError | None = None) -> list[int]:
        rows = [f if type(f) is tuple else tuple(f) for f in feature_rows]
        if not rows:
            return []
        self._last_was_fallback = False
        return self._ladder(
            lambda reason, _: self._serve_fallback(reason, rows, batch=True),
            self._transport.predict_batch, (rows,), error)

    @spanned(named(_client_span, "client.update"))
    def _update_ladder(self, features: Sequence[int], direction: bool,
                       error: PSSError | None = None) -> None:
        self._ladder(self._drop_update, self._transport.update,
                     (canonical_features(features), direction), error,
                     resent=1)

    @spanned(named(_client_span, "client.reset"))
    def _reset_ladder(self, features: Sequence[int], reset_all: bool,
                      error: PSSError | None = None) -> None:
        self._ladder(self._drop_reset, self._transport.reset,
                     (canonical_features(features), reset_all), error)

    @spanned(named(_client_span, "client.flush"))
    def _flush_ladder(self, error: PSSError | None = None) -> None:
        # No retry: a failed flush drained the buffer, so a retry would
        # "succeed" on nothing.  A refused flush keeps its records (the
        # breaker refused) or counted them lost.
        self._ladder(lambda reason, failure: None, self._transport.flush,
                     (), error, retry=False)

    def _ladder(self, refused: Callable[..., Any],
                operation: Callable[..., Any],
                args: tuple, error: PSSError | None = None,
                retry: bool = True, resent: int = 0) -> Any:
        """One call on the degrade ladder: the breaker consulted, the
        operation run by :meth:`_attempt`, and ``refused(reason,
        failure)`` answering when either gives up (``failure`` None if
        the breaker did).  ``error`` is what a steady call's crossing
        raised, if it did: the breaker is then closed with nothing
        counted, so consulting it would change nothing."""
        if error is None and not self._breaker.allow():
            return refused("breaker_open", None)
        try:
            result = self._attempt(operation, args, error, retry, resent)
        except _DEGRADABLE as failure:
            return refused(self._degrade(failure), failure)
        self._breaker.record_success()
        self._steady = not self._last_was_fallback
        return result

    def _degrade(self, error: "QuotaExceededError | TransportFault",
                 trip_breaker: bool = True) -> str:
        """Count a failed operation; returns the reason it degrades
        for.  Only a transport fault trips the breaker, and only on
        the synchronous path (``trip_breaker``): a shed or a quota
        rejection is a healthy transport refusing load."""
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
            self._trace_client("fallback", detail)
        return [self.fallback_score(features) for features in rows]

    def _drop_update(self, reason: str,
                     failure: QuotaExceededError | TransportFault | None
                     ) -> None:
        # a record lost with a crossing was counted by _attempt
        if failure is None or failure.lost_records == 0:
            self.stats.dropped_updates += 1

    def _drop_reset(self, reason: str, failure: PSSError | None) -> None:
        self.stats.dropped_resets += 1

    def _attempt(self, operation: Callable[..., Any], args: tuple,
                 error: PSSError | None = None, retry: bool = True,
                 resent: int = 0) -> Any:
        """Run ``operation(*args)``, retried with exponential backoff
        while it raises a transport fault, up to ``max_attempts``
        attempts (one without ``retry``); what the last one raised is
        raised.  ``error`` is what a first attempt already raised.
        Update records lost with any failed attempt are counted here,
        gone whether or not a later attempt succeeds - but the
        ``resent`` ones a retry sends again, lost only with the last."""
        config = self.resilience
        attempts = config.max_attempts if retry else 1
        attempt = 0
        while True:
            if error is None:
                try:
                    return operation(*args)
                except PSSError as failure:
                    error = failure
            attempt += 1
            last = (not isinstance(error, TransportFault)
                    or attempt >= attempts)
            self.stats.dropped_updates += (
                error.lost_records if last
                else max(error.lost_records - resent, 0))
            if last:
                raise error
            self.stats.retries += 1
            backoff = (config.backoff_base_ns
                       * config.backoff_multiplier ** (attempt - 1))
            self.stats.backoff_ns += backoff
            if self._tracer.enabled:
                self._trace_client("retry", {
                    "attempt": attempt, "errno": error.errno_name,
                    "backoff_ns": backoff})
            error = None

    def _trace_client(self, kind: str, detail: dict) -> None:
        self._tracer.record(kind, domain=self._obs_domain, transport="client",
                            ts_ns=self._clock(), detail=detail)


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one client.

    ``threshold`` consecutive failures trip it OPEN; after ``cooldown``
    degraded calls it HALF-OPENs and lets one probe through, which
    closes it (the transport healed) or re-opens it.
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
        # Observability: set by PSSClient.attach_observability so
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
