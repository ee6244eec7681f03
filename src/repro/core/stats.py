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

from repro.core.config import VDSO_PREDICT_LATENCY_NS
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

    Attached to a :class:`repro.obs.metrics.MetricsRegistry`
    (:meth:`attach_metrics`), it also files its charges into
    log-bucketed latency histograms.

    A vDSO *read* is two counts: every read of one transport costs the
    same :attr:`read_ns`, so the transport adds that to the clock
    (:attr:`vdso_ns`, a running sum) and one to :attr:`vdso_calls` in
    place, as it counts its score-cache probe in :attr:`cache_hits` /
    :attr:`cache_misses`.  What the reads cost elsewhere is count x
    cost: the ``predict`` entries of :attr:`op_ns` / :attr:`op_calls`
    add ``reads * read_ns`` when read, and an attached account files
    the reads and probes since its last filing whenever the registry
    is read (:meth:`_file`, one of the registry's filers).
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
    #: what one vDSO read costs: the transport's
    #: ``LatencyModel.vdso_predict_ns``
    read_ns: float = VDSO_PREDICT_LATENCY_NS
    #: what was charged per call (:meth:`charge_op`) or merged in from
    #: other accounts: read through :attr:`op_ns` / :attr:`op_calls`,
    #: which add this account's own reads
    _op_ns: dict[str, float] = field(default_factory=dict, init=False,
                                     repr=False)
    _op_calls: dict[str, int] = field(default_factory=dict, init=False,
                                      repr=False)
    #: the part of :attr:`vdso_calls` merged in, already in ``_op_ns``
    _merged_reads: int = field(default=0, init=False, repr=False)

    #: obs label of the shard hosting the account's domain ("": none),
    #: which its records and series carry; set by the shard
    #: (:meth:`file_under`).  Like the metrics state below, a class
    #: attribute: not what two accounts compare equal on.
    shard_label = ""

    _hist_vdso = None
    _hist_syscall = None
    _metrics = None
    _metric_labels = None
    #: how much of ``vdso_calls`` / ``cache_hits`` / ``cache_misses``
    #: the registry holds
    _reads_filed = 0
    _hits_filed = 0
    _misses_filed = 0

    def _with_reads(self, filed: dict, per_read):
        """``filed`` plus this account's own reads, ``per_read`` each."""
        breakdown = dict(filed)
        reads = self.vdso_calls - self._merged_reads
        if reads:
            breakdown["predict"] = breakdown.get("predict", 0) \
                + reads * per_read
        return breakdown

    @property
    def op_ns(self) -> dict[str, float]:
        """Simulated ns charged, broken down by operation kind."""
        return self._with_reads(self._op_ns, self.read_ns)

    @property
    def op_calls(self) -> dict[str, int]:
        """Call counts, broken down by operation kind."""
        return self._with_reads(self._op_calls, 1)

    def attach_metrics(self, registry, domain: str = "",
                       transport: str = "") -> None:
        """Mirror every future charge into ``registry`` histograms.

        Creates ``pss_vdso_read_ns`` and ``pss_syscall_ns`` histograms
        labeled ``{domain, transport, shard}`` - ``shard`` the account's
        :attr:`shard_label`; an account no shard tracks has none to
        name - plus per-operation ``pss_op_ns{op=...}`` histograms
        (resolved lazily per op kind).  The account is one of the
        registry's filers until it attaches elsewhere or detaches.
        """
        old = self._metrics
        if old is not None:
            # What is owed is the old series', not the new ones'.
            self._file()
            if registry is not old:
                old.remove_filer(self._file)
        self._metrics = registry
        labels = self._metric_labels = {"domain": domain,
                                        "transport": transport}
        if self.shard_label:
            labels["shard"] = self.shard_label
        self._hist_vdso = registry.histogram(VDSO_READ_NS, **labels)
        self._hist_syscall = registry.histogram(SYSCALL_NS, **labels)
        self._op_hists = {}
        self._cache_hit_counter = registry.counter(SCORE_CACHE_HITS_TOTAL,
                                                   **labels)
        self._cache_miss_counter = registry.counter(
            SCORE_CACHE_MISSES_TOTAL, **labels)
        # Only what happens from here on is this registry's.
        self._reads_filed = self.vdso_calls
        self._hits_filed = self.cache_hits
        self._misses_filed = self.cache_misses
        if registry is not old:
            registry.add_filer(self._file)

    def detach_metrics(self) -> None:
        """File what is owed and leave the registry (the transport
        closed: nothing more is charged)."""
        registry = self._metrics
        if registry is not None:
            self._file()
            registry.remove_filer(self._file)
            self._metrics = self._metric_labels = self._hist_syscall = None

    def file_under(self, shard_label: str) -> None:
        """The account's domain is hosted by that shard from here on:
        records and, attached, series name it.  What was charged so far
        stays filed under the shard that served it."""
        self.shard_label = shard_label
        labels = self._metric_labels
        if labels is not None:   # attached: on to the new shard's series
            self.attach_metrics(self._metrics, labels["domain"],
                                labels["transport"])

    def charge_syscall(self, ns: float, records: int = 0) -> None:
        self.syscall_ns += ns
        self.syscalls += 1
        self.update_records += records
        if self._hist_syscall is not None:
            self._hist_syscall.observe(ns)

    def charge_op(self, op: str, ns: float) -> None:
        """Attribute ``ns`` of already-charged crossing time to one op kind.

        Transports call this alongside :meth:`charge_syscall`, so
        ``op_ns`` is a *breakdown* of :attr:`total_ns` by operation,
        not additional time.
        """
        op_ns, op_calls = self._op_ns, self._op_calls
        op_ns[op] = op_ns.get(op, 0.0) + ns
        op_calls[op] = op_calls.get(op, 0) + 1
        if self._metrics is not None:
            self._op_hist(op).observe(ns)

    def _op_hist(self, op: str):
        hist = self._op_hists.get(op)
        if hist is None:
            hist = self._op_hists[op] = self._metrics.histogram(
                OP_NS, op=op, **self._metric_labels)
        return hist

    def _file(self) -> None:
        """What the registry calls before it is read: the reads since
        the last filing, ``reads * read_ns`` into ``pss_vdso_read_ns``
        and ``pss_op_ns{op="predict"}``, and the probes since."""
        reads = self.vdso_calls - self._reads_filed
        hits = self.cache_hits - self._hits_filed
        misses = self.cache_misses - self._misses_filed
        # Marked filed first: resolving the op histogram reads the
        # registry, which calls this again.
        self._reads_filed = self.vdso_calls
        self._hits_filed = self.cache_hits
        self._misses_filed = self.cache_misses
        if reads:
            self._hist_vdso.observe_run(self.read_ns, reads)
            self._op_hist("predict").observe_run(self.read_ns, reads)
        if hits:
            self._cache_hit_counter.inc(hits)
        if misses:
            self._cache_miss_counter.inc(misses)

    def merge(self, other: "LatencyAccount") -> None:
        """Accumulate another account into this one (multi-client runs).

        Counterpart of :meth:`PredictionStats.merge`; histograms are not
        merged here - attach the same registry to every account instead.
        The other's reads come in at its own count x cost.
        """
        self.vdso_ns += other.vdso_ns
        self.syscall_ns += other.syscall_ns
        self.vdso_calls += other.vdso_calls
        self.syscalls += other.syscalls
        self.update_records += other.update_records
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self._merged_reads += other.vdso_calls
        # Merged-in reads and probes were never a registry's to count.
        self._reads_filed += other.vdso_calls
        self._hits_filed += other.cache_hits
        self._misses_filed += other.cache_misses
        op_ns, op_calls = self._op_ns, self._op_calls
        for op, ns in other.op_ns.items():
            op_ns[op] = op_ns.get(op, 0.0) + ns
        for op, calls in other.op_calls.items():
            op_calls[op] = op_calls.get(op, 0) + calls

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cacheable predictions served without the service."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def mean_op_ns(self, op: str) -> float:
        """Average simulated ns per call of one operation kind."""
        calls = self.op_calls.get(op, 0)
        return self.op_ns[op] / calls if calls else 0.0

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
        op_ns, op_calls = self.op_ns, self.op_calls
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
            "ops": {op: {"calls": op_calls[op], "ns": op_ns[op]}
                    for op in sorted(op_ns)},
        }


@dataclass
class ResilienceStats:
    """Degraded-mode accounting for a client (or, shared, a domain's).

    Counts what the retry/breaker/fallback machinery did, so experiments
    can report how much of a run was served degraded and what the faults
    cost (the reads served are the domain's :class:`PredictionStats`).
    ``backoff_ns`` is simulated application-side wait time (it is not
    boundary-crossing time, so it is kept out of the
    :class:`LatencyAccount`).
    """

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
    def any_activity(self) -> bool:
        """Whether this stats block recorded anything at all."""
        return bool(
            self.retries or self.transport_failures
            or self.dropped_updates or self.dropped_resets
            or self.breaker_opens or self.breaker_closes
            or self.quota_rejections or self.shed_requests
        )

    def merge(self, other: "ResilienceStats") -> None:
        """Accumulate another client's stats into this one."""
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
    #: aggregated client degrade stats for this domain (None when no
    #: client of it ever degraded)
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
