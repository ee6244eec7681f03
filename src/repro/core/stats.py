"""Accounting for predictions, feedback, and boundary-crossing latency.

Two concerns live here:

* :class:`PredictionStats` - per-domain counts of predictions and feedback,
  enough to compute the accuracy proxy the scenarios report.
* :class:`LatencyAccount` - simulated nanoseconds spent crossing the
  user/kernel boundary, broken down by transport path.  The paper's headline
  latency claim (4.19 ns vDSO vs 68 ns syscall) is reproduced by comparing
  these accounts across transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.metrics import (
    OP_NS,
    SCORE_CACHE_HITS_TOTAL,
    SCORE_CACHE_MISSES_TOTAL,
    SYSCALL_NS,
    VDSO_READ_NS,
)


@dataclass
class PredictionStats:
    """Counts of service activity for one domain."""

    predictions: int = 0
    positive_predictions: int = 0
    updates: int = 0
    rewards: int = 0
    penalties: int = 0
    resets: int = 0
    #: predictions answered by a client-side score cache without
    #: re-evaluating the model (the weights had not changed)
    cached_predictions: int = 0
    #: predictions served by a follower replica while the owning
    #: shard's primary was down (bounded-stale answers)
    failover_predictions: int = 0

    def record_prediction(self, score: int, threshold: int) -> None:
        self.predictions += 1
        if score >= threshold:
            self.positive_predictions += 1

    def record_predictions(self, scores: Sequence[int],
                           threshold: int) -> None:
        """A whole batch's :meth:`record_prediction`, in one call."""
        self.predictions += len(scores)
        self.positive_predictions += sum(
            [score >= threshold for score in scores])

    def record_cached_prediction(self, score: int, threshold: int) -> None:
        """A prediction served from a generation-keyed score cache.

        Counted as a normal prediction too, so accuracy proxies and
        activity totals stay identical whether or not the fast path hit
        (:meth:`record_prediction`, written out: this is a score-cache
        hit's last frame).
        """
        self.predictions += 1
        if score >= threshold:
            self.positive_predictions += 1
        self.cached_predictions += 1

    def record_failover_prediction(self, score: int,
                                   threshold: int) -> None:
        """A prediction a follower replica served during an outage.

        Counted as a normal prediction too: failover is transparent to
        accuracy proxies and activity totals.
        """
        self.record_prediction(score, threshold)
        self.failover_predictions += 1

    def record_update(self, direction: bool) -> None:
        self.updates += 1
        if direction:
            self.rewards += 1
        else:
            self.penalties += 1

    def record_updates(self, directions: Sequence[bool]) -> None:
        """A whole batch's :meth:`record_update`, in one call."""
        rewards = sum([1 for direction in directions if direction])
        self.updates += len(directions)
        self.rewards += rewards
        self.penalties += len(directions) - rewards

    def record_reset(self) -> None:
        self.resets += 1

    @property
    def negative_predictions(self) -> int:
        return self.predictions - self.positive_predictions

    @property
    def reward_rate(self) -> float:
        """Fraction of feedback that was positive (accuracy proxy)."""
        if not self.updates:
            return 0.0
        return self.rewards / self.updates

    def merge(self, other: "PredictionStats") -> None:
        """Accumulate another stats block into this one."""
        self.predictions += other.predictions
        self.positive_predictions += other.positive_predictions
        self.updates += other.updates
        self.rewards += other.rewards
        self.penalties += other.penalties
        self.resets += other.resets
        self.cached_predictions += other.cached_predictions
        self.failover_predictions += other.failover_predictions


@dataclass
class LatencyAccount:
    """Simulated nanoseconds charged per boundary-crossing category.

    Means and counts are always maintained; attaching a
    :class:`repro.obs.metrics.MetricsRegistry` via :meth:`attach_metrics`
    additionally files every charge into log-bucketed latency histograms
    (p50/p90/p99/max) - the distribution view the mean-only seed
    accounting could not express.  Unattached accounts pay one ``None``
    check per charge.

    A varying charge (a syscall, a flush, a batch crossing) is pushed
    into its histograms as it happens.  A vDSO *read* is not: every
    read of one transport is charged the same constant, and the score
    cache's hit / miss series *are* :attr:`cache_hits` /
    :attr:`cache_misses`, so a read only lengthens the account's
    pending run (one compare, one increment) and the registry files the
    run when it is next read (:meth:`_file_reads`, enlisted through
    :meth:`MetricsRegistry.file_before_read
    <repro.obs.metrics.MetricsRegistry.file_before_read>`).  Only what
    is order-free waits: integer counters, and a run of one repeated
    value, which :meth:`Histogram.observe_run
    <repro.obs.metrics.Histogram.observe_run>` adds one by one so
    ``sum`` is the float the per-read pushes made.  A charge that could
    land between the reads of a run in the same histogram files the run
    first; two accounts that share one label set *and* charge different
    read costs are the one case whose ``sum`` can differ from the
    pushed one, in its last bits.
    """

    vdso_ns: float = 0.0
    syscall_ns: float = 0.0
    vdso_calls: int = 0
    syscalls: int = 0
    #: update records delivered (across however many syscalls)
    update_records: int = 0
    #: predictions answered by the transport's score cache (no service call)
    cache_hits: int = 0
    #: predictions that had to evaluate the model (cacheable path only)
    cache_misses: int = 0
    #: simulated ns charged, broken down by operation kind
    op_ns: dict[str, float] = field(default_factory=dict)
    #: call counts, broken down by operation kind
    op_calls: dict[str, int] = field(default_factory=dict)

    #: obs label of the shard hosting the account's domain, "" while no
    #: shard tracks the account: what its transport stamps on records
    #: and :meth:`attach_metrics` files under.  The shard sets it, at
    #: registration and on every handoff (:meth:`file_under`).  A class
    #: attribute like those below, not a dataclass field: placement is
    #: not what two accounts compare equal on.
    shard_label = ""

    # Metrics attachment state (class attributes, not dataclass fields:
    # an unattached account stays a plain counter block).
    _hist_vdso = None
    _hist_syscall = None
    _metrics = None
    _metric_labels = None
    #: the pending run of vDSO reads: the ns each was charged (None:
    #: no run, the next read starts one) and how many there were
    _read_ns = None
    _reads = 0
    #: whether the registry already holds this account's ``_collect``
    _enlisted = False
    #: how much of ``cache_hits`` / ``cache_misses`` the registry holds
    _hits_filed = 0
    _misses_filed = 0

    def attach_metrics(self, registry, domain: str = "",
                       transport: str = "") -> None:
        """Mirror every future charge into ``registry`` histograms.

        Creates ``pss_vdso_read_ns`` and ``pss_syscall_ns`` histograms
        labeled ``{domain, transport, shard}`` - ``shard`` the account's
        :attr:`shard_label`; an account no shard tracks has none to
        name - plus per-operation ``pss_op_ns{op=...}`` histograms
        (resolved lazily per op kind).
        """
        if self._metrics is not None:
            self._file_reads()   # what the old series are owed
            self._enlisted = False
        self._metrics = registry
        self._metric_labels = {"domain": domain, "transport": transport}
        if self.shard_label:
            self._metric_labels["shard"] = self.shard_label
        self._hist_vdso = registry.histogram(
            VDSO_READ_NS, **self._metric_labels
        )
        self._hist_syscall = registry.histogram(
            SYSCALL_NS, **self._metric_labels
        )
        self._op_hists = {}
        self._cache_hit_counter = registry.counter(
            SCORE_CACHE_HITS_TOTAL, **self._metric_labels
        )
        self._cache_miss_counter = registry.counter(
            SCORE_CACHE_MISSES_TOTAL, **self._metric_labels
        )
        # Only what happens from here on is this registry's.
        self._hits_filed = self.cache_hits
        self._misses_filed = self.cache_misses

    def file_under(self, shard_label: str) -> None:
        """The account's domain is hosted by that shard from here on:
        records and, attached, series name it.  What was charged so far
        stays filed under the shard that served it."""
        self.shard_label = shard_label
        labels = self._metric_labels
        if labels is not None:   # attached: on to the new shard's series
            self.attach_metrics(self._metrics, labels["domain"],
                                labels["transport"])

    def charge_vdso(self, ns: float) -> None:
        self.vdso_ns += ns
        self.vdso_calls += 1
        if self._hist_vdso is not None:
            if self._reads:
                self._file_reads()
            self._hist_vdso.observe(ns)

    def charge_syscall(self, ns: float, records: int = 0) -> None:
        self.syscall_ns += ns
        self.syscalls += 1
        self.update_records += records
        if self._hist_syscall is not None:
            self._hist_syscall.observe(ns)

    def charge_op(self, op: str, ns: float) -> None:
        """Attribute ``ns`` of already-charged crossing time to one op kind.

        Transports call this alongside :meth:`charge_vdso` /
        :meth:`charge_syscall`, so ``op_ns`` is a *breakdown* of
        :attr:`total_ns` by operation, not additional time.
        """
        self.op_ns[op] = self.op_ns.get(op, 0.0) + ns
        self.op_calls[op] = self.op_calls.get(op, 0) + 1
        if self._metrics is not None:
            if self._reads and op == "predict":
                self._file_reads()
            self._op_hist(op).observe(ns)

    def _op_hist(self, op: str):
        hist = self._op_hists.get(op)
        if hist is None:
            hist = self._op_hists[op] = self._metrics.histogram(
                OP_NS, op=op, **self._metric_labels
            )
        return hist

    def charge_vdso_predict(self, ns: float) -> None:
        """One vDSO read: :meth:`charge_vdso` and
        ``charge_op("predict")`` of the same ``ns``, in one call."""
        self.vdso_ns += ns
        self.vdso_calls += 1
        self.op_ns["predict"] = self.op_ns.get("predict", 0.0) + ns
        self.op_calls["predict"] = self.op_calls.get("predict", 0) + 1
        if self._metrics is not None:
            if ns == self._read_ns:
                self._reads += 1
            else:
                self._start_read_run(ns)

    def _start_read_run(self, ns: float) -> None:
        """The first read since the registry was last read, or the
        first at a new cost: file the run before it, start the next,
        and make sure the registry will ask for it."""
        self._file_reads()
        self._read_ns = ns
        self._reads = 1
        if not self._enlisted:
            self._enlisted = True
            self._metrics.file_before_read(self._collect)

    def _collect(self) -> None:
        """What the registry calls before it is read."""
        self._enlisted = False
        self._file_reads()

    def _file_reads(self) -> None:
        """Hand the registry what the reads since the last filing owe
        it: the pending run into ``pss_vdso_read_ns`` and
        ``pss_op_ns{op="predict"}``, the hit / miss counts since."""
        reads, ns = self._reads, self._read_ns
        # Cleared first: resolving the op histogram reads the registry,
        # which files whatever is pending.
        self._reads, self._read_ns = 0, None
        if reads:
            self._hist_vdso.observe_run(ns, reads)
            self._op_hist("predict").observe_run(ns, reads)
        hits, misses = self.cache_hits, self.cache_misses
        if hits != self._hits_filed:
            self._cache_hit_counter.inc(hits - self._hits_filed)
            self._hits_filed = hits
        if misses != self._misses_filed:
            self._cache_miss_counter.inc(misses - self._misses_filed)
            self._misses_filed = misses

    def record_cache_hit(self) -> None:
        """Count one score-cache hit; ``pss_score_cache_hits_total``
        catches up when the read it belongs to is filed."""
        self.cache_hits += 1

    def record_cache_miss(self) -> None:
        self.cache_misses += 1

    def merge(self, other: "LatencyAccount") -> None:
        """Accumulate another account into this one (multi-client runs).

        Counterpart of :meth:`PredictionStats.merge`; histograms are not
        merged here - attach the same registry to every account instead.
        """
        self.vdso_ns += other.vdso_ns
        self.syscall_ns += other.syscall_ns
        self.vdso_calls += other.vdso_calls
        self.syscalls += other.syscalls
        self.update_records += other.update_records
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        if self._metrics is not None:
            # Merged-in probes were never this registry's to count.
            self._hits_filed += other.cache_hits
            self._misses_filed += other.cache_misses
        for op, ns in other.op_ns.items():
            self.op_ns[op] = self.op_ns.get(op, 0.0) + ns
        for op, calls in other.op_calls.items():
            self.op_calls[op] = self.op_calls.get(op, 0) + calls

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cacheable predictions served without the service."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def mean_op_ns(self, op: str) -> float:
        """Average simulated ns per call of one operation kind."""
        calls = self.op_calls.get(op, 0)
        return self.op_ns.get(op, 0.0) / calls if calls else 0.0

    def clock(self) -> float:
        """Cumulative simulated ns: this account's clock.  A method so
        a transport or client can bind ``account.clock`` once as the
        clock of every span it opens; :attr:`total_ns` is the same
        value as a property."""
        return self.vdso_ns + self.syscall_ns

    total_ns = property(clock)

    @property
    def mean_vdso_ns(self) -> float:
        return self.vdso_ns / self.vdso_calls if self.vdso_calls else 0.0

    @property
    def mean_syscall_ns(self) -> float:
        return self.syscall_ns / self.syscalls if self.syscalls else 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "vdso_ns": self.vdso_ns,
            "syscall_ns": self.syscall_ns,
            "total_ns": self.total_ns,
            "vdso_calls": self.vdso_calls,
            "syscalls": self.syscalls,
            "update_records": self.update_records,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "ops": {
                op: {
                    "calls": self.op_calls.get(op, 0),
                    "ns": self.op_ns.get(op, 0.0),
                }
                for op in sorted(set(self.op_calls) | set(self.op_ns))
            },
        }


@dataclass
class ResilienceStats:
    """Degraded-mode accounting for one resilient client.

    Counts what the retry/breaker/fallback machinery did, so experiments
    can report how much of a run was served degraded and what the faults
    cost.  ``backoff_ns`` is simulated application-side wait time (it is
    not boundary-crossing time, so it is kept out of the
    :class:`LatencyAccount`).
    """

    predictions: int = 0
    fallback_predictions: int = 0
    retries: int = 0
    transport_failures: int = 0
    dropped_updates: int = 0
    dropped_resets: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    backoff_ns: float = 0.0
    #: operations the admission layer refused (quota exhausted); served
    #: degraded immediately - quota errors are never retried
    quota_rejections: int = 0
    #: async submits refused by serve-mode back-pressure (queue full or
    #: a paging SLO under enforcement); served by the static fallback
    #: without retry - shedding exists precisely to avoid more load
    shed_requests: int = 0

    @property
    def degraded_fraction(self) -> float:
        """Share of predictions answered by the static fallback."""
        if not self.predictions:
            return 0.0
        return self.fallback_predictions / self.predictions

    @property
    def any_activity(self) -> bool:
        """Whether this stats block recorded anything at all."""
        return bool(
            self.predictions or self.retries or self.transport_failures
            or self.dropped_updates or self.dropped_resets
            or self.breaker_opens or self.breaker_closes
            or self.quota_rejections or self.shed_requests
        )

    def merge(self, other: "ResilienceStats") -> None:
        """Accumulate another resilient client's stats into this one."""
        self.predictions += other.predictions
        self.fallback_predictions += other.fallback_predictions
        self.retries += other.retries
        self.transport_failures += other.transport_failures
        self.dropped_updates += other.dropped_updates
        self.dropped_resets += other.dropped_resets
        self.breaker_opens += other.breaker_opens
        self.breaker_closes += other.breaker_closes
        self.backoff_ns += other.backoff_ns
        self.quota_rejections += other.quota_rejections
        self.shed_requests += other.shed_requests


@dataclass
class DomainReport:
    """Bundled per-domain stats as returned by the service introspection."""

    name: str
    model: str
    stats: PredictionStats = field(default_factory=PredictionStats)
    latency: LatencyAccount = field(default_factory=LatencyAccount)
    #: weight-generation counter at report time (see Domain.generation)
    generation: int = 0
    #: shard hosting the domain (0 on single-shard services)
    shard: int = 0
    #: feature-vector -> selected-indices cache activity (model side)
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    #: aggregated resilient-client stats for this domain (None when no
    #: resilient client ever connected)
    resilience: ResilienceStats | None = None
    #: latency histogram summaries per boundary path, populated when the
    #: owning service has a metrics registry attached: maps a path name
    #: ("vdso_read_ns" / "syscall_ns") to a Histogram.snapshot() dict
    #: with count/mean/min/max/p50/p90/p99
    latency_percentiles: dict[str, dict[str, float]] = \
        field(default_factory=dict)

    @property
    def index_cache_hit_rate(self) -> float:
        lookups = self.index_cache_hits + self.index_cache_misses
        return self.index_cache_hits / lookups if lookups else 0.0

    @property
    def cached_prediction_rate(self) -> float:
        """Share of predictions served from client-side score caches."""
        if not self.stats.predictions:
            return 0.0
        return self.stats.cached_predictions / self.stats.predictions
