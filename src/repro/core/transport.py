"""Transports: how a client crosses into the service (paper Section 3.3).

The paper's key latency observation is that predictions can be served
read-only through a vDSO mapping (4.19 ns) while updates must cross via a
syscall (68 ns), and that pooling updates into batches "amortizes the
boundary crossing".  This module reproduces that cost structure with a
simulated-nanosecond account so experiments can compare:

* :class:`SyscallTransport` - every operation pays the syscall cost
  (the paper's "PSS-syscall" configuration in Figure 5).
* :class:`VdsoTransport`    - predictions pay only the vDSO read cost;
  updates are pooled in a local buffer and flushed as one syscall per
  batch (the paper's default "PSS" configuration).

Transports do not interpret features or results; they only move calls and
charge time.  A transport wraps one
:class:`~repro.core.kernel.domain.DomainHandle` - the domain's
read-only page (its version word) and its syscall, the one kernel
object the paper's client library talks to.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

from repro.core.config import LatencyModel
from repro.core.errors import (
    AdmissionError,
    FeatureError,
    ShardDownError,
    TransportClosedError,
    TransportError,
    TransportFault,
)
from repro.core.stats import LatencyAccount
from repro.obs.spanned import named, spanned
from repro.obs.trace import NULL_TRACER, SpanHandleLike

if TYPE_CHECKING:
    from repro.core.faults import FaultInjector
    from repro.core.kernel.domain import DomainHandle

#: the operations a transport opens a span around
SPAN_OPS = ("predict", "predict_batch", "update", "reset", "flush")

#: ``detail`` of the one event a vDSO read emits once its score-cache
#: probe has decided; shared, so a traced read allocates no dict
_CACHE_HIT = {"cache": "hit"}
_CACHE_MISS = {"cache": "miss"}

#: ``detail`` of the one event a buffered vDSO update emits, by
#: direction; shared the same way (records point at these: read-only)
_BUFFERED_UP = {"direction": True, "buffered": True}
_BUFFERED_DOWN = {"direction": False, "buffered": True}


def _refused(detail: dict | None, error: Exception) -> dict:
    """``detail`` of a refused vDSO read's event: ``detail`` plus what
    refused it as ``outcome``, ``"error:<Type>"`` (a span's status)."""
    return {**(detail or {}), "outcome": f"error:{type(error).__name__}"}


class Transport:
    """Base transport: owns the latency model, account, and fault hooks."""

    #: human-readable name used in reports ("vdso" / "syscall")
    name = "base"
    #: update records buffered and not yet delivered: only a transport
    #: that buffers (vDSO) ever has any
    pending_updates = 0

    def __init__(self, target: "DomainHandle",
                 latency: LatencyModel | None = None,
                 account: LatencyAccount | None = None) -> None:
        self._target = target
        self._latency = latency or LatencyModel()
        self.account = account or LatencyAccount()
        #: what a vDSO read of this transport costs, counted per read
        self.account.read_ns = self._latency.vdso_predict_ns
        self._injector: FaultInjector | None = None
        self._closed = False
        #: structured event tracer; NULL_TRACER keeps the hot path to a
        #: single ``enabled`` attribute check when tracing is off
        self._bind_tracer(NULL_TRACER)
        self._obs_domain = target.domain_name
        #: the domain's published version word, bound once and loaded -
        #: no call - wherever a generation is needed
        self._version = target.version
        # What every traced crossing would otherwise rebuild: the span
        # names and the account's simulated clock, bound once.  (The
        # shard label is not: a reshard moves the domain, so records
        # read ``account.shard_label``, which the hosting shard keeps.)
        self._span_names = {op: f"{self.name}.{op}" for op in SPAN_OPS}
        self._clock = self.account.clock

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def injector(self) -> FaultInjector | None:
        return self._injector

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Attach a :class:`repro.obs.Tracer` and/or a
        :class:`repro.obs.MetricsRegistry` to this transport.

        The tracer receives typed events for every crossing (timestamps
        are the account's cumulative simulated ns); the registry gets
        latency histograms via :meth:`LatencyAccount.attach_metrics`.
        An already-attached fault injector starts tracing its decisions
        through the same tracer.
        """
        if tracer is not None:
            self._bind_tracer(tracer)
            if self._injector is not None:
                self._injector.tracer = tracer
        if metrics is not None:
            self.account.attach_metrics(
                metrics, domain=self._obs_domain, transport=self.name)

    def _bind_tracer(self, tracer) -> None:
        """Hold ``tracer``, and bind what the hot sites record through:
        its ``emit`` (the event ring's append), its event numbers and
        its open-span stack, so a watched event is one tuple appended
        in place, stamped with the innermost open span's id."""
        self._tracer = tracer
        self._emit = tracer.emit
        self._next_event = tracer.next_number
        self._open_spans = tracer.span_stack

    def attach_injector(self, injector: FaultInjector | None) -> None:
        """Attach (or, with None, detach) a fault injector.

        Every subsequent crossing consults the injector; detaching mid
        run models a transport that healed.
        """
        self._injector = injector
        if injector is not None and self._tracer.enabled:
            injector.tracer = self._tracer

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransportClosedError(
                f"{self.name} transport used after close()"
            )

    def predict(self, features: Sequence[int]) -> int:
        raise NotImplementedError

    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        raise NotImplementedError

    def update(self, features: Sequence[int], direction: bool) -> None:
        raise NotImplementedError

    def _trace(self, kind: str, dur_ns: float = 0.0,
               detail: dict | None = None,
               generation: int | None = None) -> None:
        """Record one event on this transport's track (pre-checked for
        ``enabled`` by callers on the hot path; safe either way),
        stamped with ``generation`` or else the version word's value.
        """
        if generation is None:
            generation = self._version.value
        account = self.account
        spans = self._open_spans
        self._emit((
            self._next_event(), account.total_ns, kind, self._obs_domain,
            self.name, dur_ns, generation, detail, account.shard_label,
            spans[-1].span_id if spans else 0))

    def _op_span(self, op: str, detail: dict | None = None):
        """Span covering one boundary crossing on this transport's
        timeline (the account clock makes durations simulated ns, so
        the span is exactly what the crossing charged)."""
        return self._tracer.span(
            self._span_names[op], self._obs_domain, self.name,
            self.account.shard_label, None, detail, self._clock)

    def _charge_crossing(self, kind: str, cost: float,
                         detail: dict | None = None,
                         op: str | None = None) -> None:
        """First half of a syscall crossing: charge ``cost`` and trace
        the crossing as a ``kind`` event (accounted under ``op`` when
        that differs from the event kind)."""
        self.account.charge_syscall(cost)
        self.account.charge_op(op or kind, cost)
        if self._tracer.enabled:
            self._trace(kind, dur_ns=cost, detail=detail)

    def _roll_crossing(self, injector: FaultInjector, kind: str) -> None:
        """Second half, for callers with an injector attached: roll its
        dice for the crossing just charged, tracing and raising the
        fault when one comes up (the failed crossing still cost its
        syscall)."""
        fault = injector.syscall_fault()
        if fault is not None:
            if self._tracer.enabled:
                self._trace("fault", detail={"op": kind,
                                             "errno": fault.errno_name})
            raise fault

    @spanned(named(_op_span, "reset"))
    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        """Resets always cross via syscall: they write kernel state."""
        self._ensure_open()
        self._charge_crossing("reset", self._latency.syscall_ns,
                              {"reset_all": reset_all})
        self.flush()
        if self._injector is not None:
            self._roll_crossing(self._injector, "reset")
        self._target.reset(features, reset_all)

    def flush(self) -> None:
        """Deliver any buffered updates (no-op for unbuffered transports)."""
        self._ensure_open()

    def close(self) -> None:
        """Flush and detach; any later predict/update/reset/flush raises
        :class:`~repro.core.errors.TransportClosedError`.  Idempotent."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            self.account.detach_metrics()


class SyscallTransport(Transport):
    """Every predict/update is an individual syscall.

    This is the paper's ablation point: correct but slow, because the
    prediction sits on the application's critical path.
    """

    name = "syscall"

    @spanned(named(Transport._op_span, "predict"))
    def predict(self, features: Sequence[int]) -> int:
        self._ensure_open()
        self._charge_crossing("predict", self._latency.syscall_ns)
        if self._injector is not None:
            self._roll_crossing(self._injector, "predict")
        # canonical_features, written out: a read's one canonicalisation
        return self._target.predict(
            features if type(features) is tuple else tuple(features))

    @spanned(named(Transport._op_span, "predict_batch", "rows"))
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """One syscall round-trip for the whole batch.

        The crossing is priced like a batched update flush - one syscall
        plus one record cost per row - which is the whole point: at
        batch=N the per-prediction boundary cost drops from
        ``syscall_ns`` to ``syscall_ns / N + batch_record_ns``.  Scores
        and model-side stats are bit-identical to the scalar loop.

        Fault semantics intentionally diverge from the scalar loop and
        are the documented contract: the injector's syscall dice roll
        *once per batch*, not once per row, because there is only one
        crossing to fail - a fault loses the whole batch (no partial
        scores), and a fault sequence observed under scalar predicts
        will not line up with one observed under batching.
        """
        self._ensure_open()
        rows = [f if type(f) is tuple else tuple(f) for f in feature_rows]
        if not rows:
            return []
        cost = (self._latency.syscall_ns
                + self._latency.batch_record_ns * len(rows))
        self._charge_crossing("predict_batch", cost,
                              {"rows": len(rows)}, op="predict")
        if self._injector is not None:
            self._roll_crossing(self._injector, "predict_batch")
        return self._target.predict_batch(rows)

    @spanned(named(Transport._op_span, "update"))
    def update(self, features: Sequence[int], direction: bool) -> None:
        self._ensure_open()
        syscall_ns = self._latency.syscall_ns
        self.account.charge_syscall(syscall_ns)
        self.account.charge_op("update", syscall_ns)
        if self._injector is not None:
            self._roll_crossing(self._injector, "update")
        # Only a crossing that got through delivered its record, and
        # only then is there an update to trace.
        self.account.update_records += 1
        if self._tracer.enabled:
            self._trace("update", dur_ns=syscall_ns,
                        detail={"direction": direction})
        self._target.update(features, direction)


class VdsoTransport(Transport):
    """Read-only vDSO fast path for predictions, batched syscall updates.

    A vDSO "can be only used in a read-only manner", so ``predict`` is a
    direct memory read at vDSO cost, while ``update`` records are pooled
    in a local buffer - "a local buffer aggregates updates and allows us
    to amortize the boundary crossing" (paper Section 3.3) - and flushed,
    in arrival order, once ``batch_size`` are held (or on an explicit
    :meth:`flush`).

    Predictions are memoized in a score cache keyed on the value of the
    handle's version word: a feature vector predicted again while the
    weights have not changed is answered from the cache without
    re-evaluating the model - exactly the paper's read-only mapping,
    where repeated reads of unchanged kernel state cost only the read.
    Cached answers are bit-identical (the weights did not move), still
    charge the vDSO read cost, and still count in the domain's
    prediction stats.  Any weight mutation bumps the word and
    invalidates the whole cache.

    While a fault injector that can inject stale reads is attached, the
    score cache is bypassed: the injector's stale-read dice must roll on
    every read (determinism), injected staleness must not be masked by a
    memoized fresh score, and stale answers must never poison the cache.
    An injector with a zero stale-read rate leaves the fast path intact -
    its stale dice consume no randomness, so caching cannot perturb the
    fault sequence.

    Note the behavioural consequence the paper accepts: between flushes the
    model has not yet seen the buffered feedback, so learning lags by up to
    ``batch_size`` updates.  The transport ablation benchmark measures this
    latency/freshness trade-off.
    """

    name = "vdso"

    #: feature vectors remembered for stale-read injection
    STALE_CACHE_ENTRIES = 512

    #: bound on the generation-keyed score cache
    SCORE_CACHE_ENTRIES = 1024

    def __init__(self, target: "DomainHandle",
                 latency: LatencyModel | None = None,
                 account: LatencyAccount | None = None,
                 batch_size: int = 32) -> None:
        if batch_size < 1:
            raise TransportError(
                f"batch capacity must be positive, got {batch_size}")
        super().__init__(target, latency, account)
        #: the buffered update records, (features, direction) in arrival
        #: order, and how many fill the buffer
        self._records: list[tuple[tuple[int, ...], bool]] = []
        self._batch_size = batch_size
        # Both caches are FIFO-bounded OrderedDicts: ``popitem(last=False)``
        # evicts the same victim as ``pop(next(iter(cache)))`` on a plain
        # dict but in O(1), where the plain-dict spelling rescans an
        # ever-growing tombstone prefix under churn (hits never reorder -
        # these are insertion-order caches, not LRU).
        #: last fresh score per feature vector, kept only under injection
        self._stale_cache: OrderedDict[tuple[int, ...], int] = OrderedDict()
        #: fresh score per feature vector, valid for one weight
        #: generation; written only with a score the service returned
        self._score_cache: OrderedDict[tuple[int, ...], int] = OrderedDict()
        self._score_cache_generation = -1
        #: what a hit accounts to the domain
        self._cached_recorder = target.record_cached_prediction
        #: what a read that is not a hit calls: a vDSO read never
        #: enters the kernel, so it takes the handle's predict without
        #: the ``kernel.predict`` span
        self._read = target.predict_mapped

    @property
    def pending_updates(self) -> int:
        """Updates buffered but not yet delivered to the service."""
        return len(self._records)

    @property
    def score_cache_size(self) -> int:
        """Entries currently held by the generation-keyed score cache."""
        return len(self._score_cache)

    def predict(self, features: Sequence[int]) -> int:
        """One vDSO read.

        A read never enters the kernel, so it opens no span, hit or
        miss: watched, its ``predict`` event - ``dur_ns`` the 4.19 the
        read was charged, ``detail.cache`` saying which it was - is its
        one record, emitted when the read settles: a hit once its
        answer is accounted, a read that calls the service (a miss, or
        one that bypasses the cache) once that call returns - so what a
        follower recorded answering it comes first.  A refused read's
        event names the refusal in ``detail.outcome``
        (``"error:<Type>"``), then the error is re-raised.  Which it is
        depends on the probe, never on ``tracer.enabled``.

        What the caller already holds is not re-derived: the closed
        test and the key's tuple test are written out - the tuple test
        is the read's one canonicalisation, the client passes the row
        as given - the read's two counts and its score-cache probe are
        counted on the account in place, and the version word is loaded
        once - it keys the score
        cache and is stamped on the event this read emits.
        """
        if self._closed:
            self._ensure_open()
        account = self.account
        traced = self._tracer.enabled
        vdso_ns = self._latency.vdso_predict_ns
        account.vdso_ns += vdso_ns
        account.vdso_calls += 1
        generation = self._version.value
        key = features if type(features) is tuple else tuple(features)
        injector = self._injector
        if injector is not None and injector.plan.stale_read_rate > 0.0:
            if not traced:
                return self._predict_injected(key)
            try:
                score = self._predict_injected(key)
            except Exception as error:
                self._trace("predict", vdso_ns, _refused(None, error),
                            generation)
                raise
            self._trace("predict", vdso_ns, None, generation)
            return score
        cache = self._score_cache
        if generation != self._score_cache_generation:
            if cache:
                cache.clear()
            self._score_cache_generation = generation
        else:
            score = cache.get(key)
            if score is not None:
                account.cache_hits += 1
                if not traced:
                    self._cached_recorder(score)
                    return score
                try:
                    self._cached_recorder(score)
                except Exception as error:
                    self._trace("predict", vdso_ns,
                                _refused(_CACHE_HIT, error), generation)
                    raise
                # _trace, written out: this event is all that watching
                # a hit costs.
                spans = self._open_spans
                self._emit((
                    self._next_event(), account.vdso_ns + account.syscall_ns,
                    "predict", self._obs_domain, self.name, vdso_ns,
                    generation, _CACHE_HIT, account.shard_label,
                    spans[-1].span_id if spans else 0))
                return score
        account.cache_misses += 1
        if traced:
            try:
                score = self._read(key)
            except Exception as error:
                self._trace("predict", vdso_ns,
                            _refused(_CACHE_MISS, error), generation)
                raise
            # _trace, written out, as for a hit: the miss's one record.
            spans = self._open_spans
            self._emit((
                self._next_event(), account.vdso_ns + account.syscall_ns,
                "predict", self._obs_domain, self.name, vdso_ns,
                generation, _CACHE_MISS, account.shard_label,
                spans[-1].span_id if spans else 0))
        else:
            score = self._read(key)
        if len(cache) >= self.SCORE_CACHE_ENTRIES:
            cache.popitem(last=False)
        cache[key] = score
        return score

    @spanned(named(Transport._op_span, "predict_batch", "rows"))
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Batch of vDSO reads with one service call for the misses.

        Every row keeps the scalar path's exact per-read semantics -
        one vDSO charge, one score-cache probe with the same hit/miss
        counters, the one ``predict`` trace event saying which it was,
        the same FIFO eviction
        sequence, one stale-read die while staleness injection is armed
        - so scores, stats, and the injector's randomness stream are
        bit-identical to ``[predict(r) for r in feature_rows]``.  What
        batching amortizes is the service side: cache misses are
        collected and resolved through one
        :meth:`~repro.core.kernel.domain.DomainHandle.predict_batch`
        call, which scores them in a single pass over the weights.

        *Resolve, then replay*: at the first miss, every distinct
        vector among the rows still to come that the cache does not
        hold is scored by that one call, *before anything is written*;
        the walk then carries on with those answers in hand and writes
        each where the scalar miss would have, so the cache only ever
        holds real scores and a refused or faulted call (quota, shard
        down, a bad row) has nothing to undo.  It raises at the first
        miss: reads past it are neither charged nor traced.  A repeat
        of a resolved row is the cache hit it would have been; a miss
        the call did not cover - a row the batch itself evicted, on a
        batch larger than the cache - takes the scalar service call.
        (Resolution waits for the first miss because CPython does not
        cache tuple hashes: an all-hit batch pays nothing for it.)
        """
        self._ensure_open()
        rows = [f if type(f) is tuple else tuple(f) for f in feature_rows]
        account = self.account
        vdso_ns = self._latency.vdso_predict_ns
        traced = self._tracer.enabled
        injector = self._injector
        if injector is not None and injector.plan.stale_read_rate > 0.0:
            # Staleness injection bypasses the score cache and must
            # roll its dice once per read, in row order: no batching.
            out = []
            for key in rows:
                account.vdso_ns += vdso_ns
                account.vdso_calls += 1
                if traced:
                    self._trace("predict", dur_ns=vdso_ns)
                out.append(self._predict_injected(key))
            return out
        cache = self._score_cache
        # Predictions never move weights, so one load of the word covers
        # the whole batch: the cache check and the event of every row
        # (the scalar path re-loads an unchanged value per call).
        generation = self._version.value
        if generation != self._score_cache_generation:
            if cache:
                cache.clear()
            self._score_cache_generation = generation
        recorder = self._cached_recorder
        limit = self.SCORE_CACHE_ENTRIES
        scores: list[int] = []
        #: the misses' scores, each handed out once
        fresh: dict[tuple[int, ...], int] | None = None
        for key in rows:
            account.vdso_ns += vdso_ns
            account.vdso_calls += 1
            score = cache.get(key)
            if score is not None:
                account.cache_hits += 1
                if traced:
                    self._trace("predict", vdso_ns, _CACHE_HIT, generation)
                recorder(score)
                scores.append(score)
                continue
            account.cache_misses += 1
            if traced:
                self._trace("predict", vdso_ns, _CACHE_MISS, generation)
            if fresh is None:
                missing = [row for row in dict.fromkeys(rows[len(scores):])
                           if row not in cache]
                fresh = dict(zip(missing,
                                 self._target.predict_batch(missing)))
            score = fresh.pop(key, None)
            if score is None:
                score = self._read(key)
            if len(cache) >= limit:
                cache.popitem(last=False)
            cache[key] = score
            scores.append(score)
        return scores

    def _predict_injected(self, key: tuple[int, ...]) -> int:
        # A read-only mapping can lag the kernel's weight writes: a
        # stale read answers from the last score observed for this
        # feature vector.  Reads never fail - staleness is the vDSO's
        # only failure mode.
        if self._injector.stale_read():
            stale = self._stale_cache.get(key)
            if stale is not None:
                if self._tracer.enabled:
                    self._trace("stale_read")
                return stale
        score = self._read(key)
        if key not in self._stale_cache \
                and len(self._stale_cache) >= self.STALE_CACHE_ENTRIES:
            self._stale_cache.popitem(last=False)
        self._stale_cache[key] = score
        return score

    def close(self) -> None:
        """Flush buffered updates, then drop the score and stale-read
        caches with the connection: a closed mapping must not keep
        answers alive past the handle they were read through."""
        try:
            super().close()
        finally:
            self._score_cache.clear()
            self._stale_cache.clear()
            self._score_cache_generation = -1

    def update(self, features: Sequence[int], direction: bool) -> None:
        """Buffer one update record; the record that fills the buffer
        flushes it.

        Buffering crosses nothing, so it opens no span: watched, the
        ``update{buffered: true}`` event is its one record, and the
        flush it may trigger is rooted at ``vdso.flush``.  It is also
        the whole cost of most updates, so it is kept to the closed
        check, the tuple test, one append and one length test.
        """
        if self._closed:
            self._ensure_open()
        records = self._records
        records.append((
            features if type(features) is tuple else tuple(features),
            direction))
        if self._tracer.enabled:
            # _trace, written out: this event is all that watching a
            # buffered update costs.
            account = self.account
            spans = self._open_spans
            self._emit((
                self._next_event(), account.vdso_ns + account.syscall_ns,
                "update", self._obs_domain, self.name, 0.0,
                self._version.value,
                _BUFFERED_UP if direction else _BUFFERED_DOWN,
                account.shard_label, spans[-1].span_id if spans else 0))
        if len(records) >= self._batch_size:
            self.flush()

    def _flush_span(self) -> SpanHandleLike | None:
        """A flush is a crossing, and gets a span, only when records
        are buffered."""
        records = len(self._records)
        if not records:
            return None
        return self._op_span("flush", {"records": records})

    @spanned(_flush_span)
    def flush(self) -> None:
        self._ensure_open()
        records, self._records = self._records, []
        if not records:
            return
        cost = (self._latency.syscall_ns
                + self._latency.batch_record_ns * len(records))
        self.account.charge_op("flush", cost)
        delivered = len(records)
        fault = None
        injector = self._injector
        if injector is not None:
            # Rolled here rather than through _roll_crossing: what the
            # flush traces (and charges as delivered) depends on the
            # outcome, and delivery of a partial batch still happens.
            fault = injector.syscall_fault()
            if fault is not None:
                delivered = 0
                fault.lost_records = len(records)
            else:
                delivered = injector.flush_outcome(len(records))
                if delivered < len(records):
                    fault = TransportFault(
                        "EAGAIN", lost_records=len(records) - delivered,
                        message=(
                            f"batch flush delivered {delivered} of "
                            f"{len(records)} records"
                        ),
                    )
        self.account.charge_syscall(cost, records=delivered)
        if self._tracer.enabled:
            self._trace("flush", dur_ns=cost,
                        detail={"records": len(records),
                                "delivered": delivered})
            if fault is not None:
                self._trace("fault", detail={
                    "op": "flush", "errno": fault.errno_name,
                    "lost_records": fault.lost_records,
                })
        # A refusal drops the rest of what crossed and says how many
        # on the error (DomainHandle.update_batch).
        refused: AdmissionError | ShardDownError | FeatureError | None = None
        if delivered:
            try:
                self._target.update_batch(records[:delivered])
            except (AdmissionError, ShardDownError, FeatureError) as exc:
                refused = exc
        if fault is not None:
            # The undelivered suffix is gone: updates are hints, and the
            # batch buffer was already drained when the crossing failed.
            if refused is not None:
                fault.lost_records += refused.lost_records
            raise fault
        if refused is not None:
            if self._tracer.enabled \
                    and not isinstance(refused, FeatureError):
                self._trace("fault", detail={
                    "op": "flush",
                    "errno": (refused.errno_name
                              if isinstance(refused, ShardDownError)
                              else "EDQUOT"),
                    "lost_records": refused.lost_records,
                })
            raise refused


def make_transport(kind: str, target: "DomainHandle",
                   latency: LatencyModel | None = None,
                   batch_size: int = 32) -> Transport:
    """Factory mapping a config string to a transport instance."""
    if kind == "vdso":
        return VdsoTransport(target, latency, batch_size=batch_size)
    if kind == "syscall":
        return SyscallTransport(target, latency)
    raise TransportError(f"unknown transport kind {kind!r}")
