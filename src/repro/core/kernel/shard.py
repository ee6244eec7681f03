"""One shard of the service kernel: a slice of the domain space.

A :class:`Shard` owns the domains the slot ring (:class:`~repro.core
.kernel.sharding.SlotRing`) placed on it plus the per-shard accounting
the sharded-state serving literature argues for: aggregate
:class:`~repro.core.stats.PredictionStats` and a merged
:class:`~repro.core.stats.LatencyAccount` over every client the shard
served, so tail latency and load skew are observable per shard rather
than only per domain.  Each shard's state is independently
checkpointable (see :mod:`repro.core.kernel.checkpoint`).

Beyond the bookkeeping, a shard is the kernel's failure domain: it can
carry K read-only follower replicas (:class:`~repro.core.kernel
.replica.ShardReplica`), and when its primary is fault-injected
``down``, predictions fail over to the freshest follower holding the
domain while writes refuse with :class:`~repro.core.errors
.ShardDownError` until a promotion revives it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import ShardDownError
from repro.core.kernel.domain import Domain
from repro.core.stats import LatencyAccount, PredictionStats
from repro.obs.metrics import (
    FAILOVER_PREDICTIONS_TOTAL,
    MetricsRegistry,
)
from repro.obs.spanned import spanned
from repro.obs.trace import NULL_TRACER, SpanHandleLike, TracerLike

if TYPE_CHECKING:
    from repro.core.kernel.replica import ShardReplica


class Shard:
    """Container for the domains and accounting of one shard."""

    def __init__(self, shard_id: int, tracer: TracerLike | None = None,
                 num_replicas: int = 0,
                 metrics: MetricsRegistry | None = None) -> None:
        self.shard_id = shard_id
        #: ``str(shard_id)``, the form trace and metric labels carry,
        #: built once
        self.label = str(shard_id)
        self.domains: dict[str, Domain] = {}
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else NULL_TRACER)
        self.metrics = metrics
        #: latency accounts of every client transport opened on this
        #: shard's domains, keyed by domain name so a migrating domain
        #: takes its accounts along (account objects stay owned by
        #: their transports)
        self._accounts: dict[str, list[LatencyAccount]] = {}
        #: True while the primary is crashed: domains' in-memory state
        #: was destroyed, reads fail over to replicas, writes refuse
        self.down = False
        #: read-only follower replicas of this shard's domains
        self.replicas: list[ShardReplica] = []
        if num_replicas > 0:
            from repro.core.kernel.replica import ShardReplica

            self.replicas = [
                ShardReplica(shard_id, replica_id)
                for replica_id in range(num_replicas)
            ]
        #: predictions served by followers while the primary was down
        self.failover_predictions = 0
        self._failover_cursor = 0

    def __len__(self) -> int:
        return len(self.domains)

    def __contains__(self, name: str) -> bool:
        return name in self.domains

    def domain_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.domains))

    def register_account(self, account: LatencyAccount,
                         domain_name: str = "") -> None:
        """Track one client transport's latency account for shard
        reporting (the account object stays owned by the transport)
        and tell it which shard it now files under."""
        self._accounts.setdefault(domain_name, []).append(account)
        account.file_under(self.label)

    def merged_stats(self) -> PredictionStats:
        """Aggregate prediction stats across this shard's domains."""
        total = PredictionStats()
        for domain in self.domains.values():
            total.merge(domain.stats)
        return total

    def merged_latency(self) -> LatencyAccount:
        """Aggregate boundary-crossing account across this shard's
        clients (zeros when no client ever connected)."""
        total = LatencyAccount()
        for accounts in self._accounts.values():
            for account in accounts:
                total.merge(account)
        return total

    def dirty_signature(self) -> tuple[tuple[str, int, int, int, int], ...]:
        """Cheap change detector for incremental checkpointing.

        Changes whenever any hosted domain's weights or stats may have:
        the set of domains, each domain's generation, and its activity
        counters.  Two equal signatures mean a checkpoint written at the
        first is still current at the second.
        """
        return tuple(
            (name, domain.generation, domain.stats.predictions,
             domain.stats.updates, domain.stats.resets)
            for name, domain in sorted(self.domains.items())
        )

    # -- domain handoff (create, remove, migrate) --------------------------

    def adopt(self, domain: Domain,
              accounts: list[LatencyAccount] | None = None) -> None:
        """Take ownership of a new or migrating domain and its client
        accounts.  The one place placement changes: the domain's
        ``shard`` is everything the kernel reads, and each account -
        what an open client stamps its records and files its series
        with - is told here, so nothing outlives a handoff stale."""
        self.domains[domain.name] = domain
        domain.shard = self
        for account in accounts or ():
            self.register_account(account, domain.name)

    def evict(self, name: str) -> tuple[Domain, list[LatencyAccount]]:
        """Release a removed or migrating domain together with its
        accounts."""
        domain = self.domains.pop(name)
        domain.shard = None
        return domain, self._accounts.pop(name, [])

    # -- failover ----------------------------------------------------------

    def replica_lag(self) -> int:
        """Worst follower lag (in generations) across this shard's
        replicas; 0 when unreplicated or fully synced."""
        return max(
            (replica.lag(self) for replica in self.replicas), default=0
        )

    def _failover_span(self, domain: Domain,
                       features: tuple[int, ...] | list[int]
                       ) -> SpanHandleLike:
        return self.tracer.span("kernel.failover", domain=domain.name,
                                transport="replica", shard=self.label)

    @spanned(_failover_span, tracer="tracer")
    def failover_predict(self, domain: Domain,
                         features: tuple[int, ...] | list[int]) -> int:
        """Serve one prediction from a follower while the primary is
        down, round-robin across the replicas holding the domain.

        The answer is bounded-stale: at most the follower's lag behind
        the last synced generation.  Raises
        :class:`~repro.core.errors.ShardDownError` when no follower
        holds the domain (e.g. it was created after the last sync).
        """
        candidates = [
            replica for replica in self.replicas
            if domain.name in replica.followers
        ]
        if not candidates:
            raise ShardDownError(self.shard_id, domain.name)
        replica = candidates[self._failover_cursor % len(candidates)]
        self._failover_cursor += 1
        follower = replica.followers[domain.name]
        score = follower.predict(features)
        domain.stats.record_failover_prediction(
            score, domain.config.threshold
        )
        self.failover_predictions += 1
        if self.tracer.enabled:
            self.tracer.record(
                "failover", domain=domain.name, transport="replica",
                generation=follower.generation,
                detail={"replica": replica.replica_id,
                        "lag": max(0, domain.generation
                                   - follower.generation)},
                shard=self.label,
            )
        if self.metrics is not None:
            self.metrics.counter(
                FAILOVER_PREDICTIONS_TOTAL, shard=self.label
            ).inc()
        return score
