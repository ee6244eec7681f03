"""The sharded, multi-tenant service kernel.

:class:`ShardedService` is the kernel (:data:`~repro.core.service
.PredictionService` is its paper-shaped alias): it places every domain
on one of ``num_shards`` shards via stable hashing
(:class:`~repro.core.kernel.sharding.SlotRing`), keeps per-shard
stats and latency accounting
(:class:`~repro.core.kernel.shard.Shard`), and runs every client-facing
entry point through an optional :class:`~repro.core.kernel.admission
.AdmissionController` enforcing per-tenant quotas.

Sharding is transparent to clients: placement only decides which
shard's bookkeeping a domain lands in, so an N-shard service scores
exactly as a 1-shard one and as the frozen reference in
``tests/core/reference_impl.py``; what it buys is independently
checkpointable state slices and per-shard observability.  A read on a
crashed shard fails over in :meth:`Domain.predict` /
:meth:`Domain.predict_batch`, the one place that rule is written, and
a write on one is refused by :meth:`Domain.refuse_write`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.core.config import (
    PSSConfig,
    ResilienceConfig,
    ServiceConfig,
)
from repro.core.errors import ConfigError, DomainError
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.domain import Domain, DomainHandle
from repro.core.kernel.shard import Shard
from repro.core.kernel.sharding import SlotRing
from repro.core.models import create_model
from repro.core.plans import PlanCompiler, plan_signature
from repro.core.policy import (
    REMOVED,
    ClientIdentity,
    DomainPolicy,
    open_policy,
)
from repro.core.stats import DomainReport, ResilienceStats
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    MIGRATED_SLOTS_TOTAL,
    REPLICA_LAG_GENERATIONS,
    SHARD_CRASHES_TOTAL,
    SYSCALL_NS,
    VDSO_READ_NS,
)
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:
    from repro.core.client import Fallback, PSSClient
    from repro.core.faults import FaultInjector, FaultPlan
    from repro.core.kernel.migrate import MigrationReport, SlotMigrator


class ShardedService:
    """Container and dispatcher for prediction domains, in N shards.

    Passing a :class:`repro.obs.Tracer` and/or
    :class:`repro.obs.MetricsRegistry` turns on white-box observability:
    every client opened through :meth:`connect` is wired to them, and
    :meth:`reports` aggregates latency histogram percentiles and
    client degrade stats per domain.  Every trace record and metric
    series about a domain carries a ``shard`` label naming the shard
    that hosts it at that moment, on a service of any size.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 tracer: TracerLike | None = None,
                 metrics: MetricsRegistry | None = None,
                 num_shards: int = 1,
                 admission: AdmissionController | None = None,
                 num_replicas: int = 0) -> None:
        self.config = config or ServiceConfig()
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else NULL_TRACER)
        self.metrics = metrics
        self.admission = admission
        if num_replicas < 0:
            raise ConfigError(
                f"num_replicas must be >= 0, got {num_replicas}"
            )
        #: follower replicas attached to every shard (current and
        #: future - shards grown by a reshard get the same K)
        self.num_replicas = num_replicas
        #: the slot ring: which shard owns (or would own) each name
        self.ring = SlotRing(num_shards)
        self._shards: list[Shard] = []
        self.grow_shards(num_shards)
        self._active_migration: SlotMigrator | None = None
        #: per-domain aggregate client degrade stats (shared by every
        #: client connect() opens on that domain)
        self._resilience_stats: dict[str, ResilienceStats] = {}
        #: PRETZEL-style plan cache: every domain this kernel creates
        #: binds its weights through this compiler, so identical-shape
        #: domains - across shards and tenants - share one read-only
        #: :class:`~repro.core.plans.SpecializedPlan` (see
        #: docs/PERFORMANCE.md); hit/miss stats surface in
        #: :meth:`shard_summaries`
        self.plans = PlanCompiler(self.tracer)

    # -- shard topology ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.ring.num_shards

    @property
    def shards(self) -> tuple[Shard, ...]:
        return tuple(self._shards)

    def shard(self, shard_id: int) -> Shard:
        try:
            return self._shards[shard_id]
        except IndexError:
            raise DomainError(
                f"unknown shard {shard_id} "
                f"(service has {self.num_shards})"
            ) from None

    def shard_of(self, name: str) -> int:
        """The shard id that owns (or would own) domain ``name``."""
        return self.ring.shard_of(name)

    def _domain_count(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # -- live resharding ---------------------------------------------------

    def begin_reshard(self, new_shard_count: int,
                      injector: FaultInjector | None = None
                      ) -> SlotMigrator:
        """Start an incremental live migration to ``new_shard_count``.

        Returns the :class:`~repro.core.kernel.migrate.SlotMigrator`;
        the caller drives it one slot handoff per ``step()``, with the
        service fully live (and routing consistent) in between.  At
        most one migration may be active at a time.
        """
        from repro.core.kernel.migrate import SlotMigrator

        if self._active_migration is not None \
                and not self._active_migration.done:
            raise DomainError(
                "a reshard is already in progress "
                f"({self._active_migration.pending_slots} slots pending)"
            )
        migrator = SlotMigrator(self, new_shard_count, injector=injector)
        self._active_migration = migrator
        return migrator

    def reshard(self, new_shard_count: int) -> MigrationReport:
        """Run a complete live migration to ``new_shard_count``.

        Equivalent to driving :meth:`begin_reshard` to completion with
        no traffic interleaved; every handoff still follows the
        generation-verified slot protocol, so scores are bit-identical
        before and after.
        """
        for shard in self._shards:
            if shard.down:
                raise DomainError(
                    f"cannot reshard while shard {shard.shard_id} is "
                    f"down; promote it first"
                )
        migrator = self.begin_reshard(new_shard_count)
        while not migrator.done:
            migrator.step()
        return migrator.report()

    def grow_shards(self, new_shard_count: int) -> None:
        """Extend the shard list: at construction, and for a growing
        migration (migrator hook; the ring still routes every slot to
        its old owner until the individual handoffs commit)."""
        for shard_id in range(len(self._shards), new_shard_count):
            self._shards.append(Shard(
                shard_id, tracer=self.tracer,
                num_replicas=self.num_replicas, metrics=self.metrics))

    def finish_reshard(self, new_shard_count: int) -> None:
        """Finalize a completed migration (migrator hook): truncate
        doomed shards (they are empty - their last slot was handed
        off)."""
        if new_shard_count < len(self._shards):
            for shard in self._shards[new_shard_count:]:
                if shard.domains:  # pragma: no cover - protocol guard
                    raise DomainError(
                        f"shard {shard.shard_id} still hosts "
                        f"{len(shard)} domains at reshard finalization"
                    )
            del self._shards[new_shard_count:]
        if self.metrics is not None \
                and self._active_migration is not None:
            self.metrics.counter(MIGRATED_SLOTS_TOTAL).inc(
                self._active_migration.moved_slots
            )

    # -- crash / failover / replication ------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """Fault-inject a primary crash: destroy the shard's in-memory
        model state and mark it down.

        Domains stay registered (stats and identity survive, as
        directory metadata would); every model restarts cold with a
        generation above all pre-crash values, so stale score caches
        self-invalidate.  Reads fail over to follower replicas
        (:meth:`Domain.predict`); writes raise :class:`ShardDownError`
        until a :class:`~repro.core.kernel.replica.ReplicaPromoter`
        revives the shard.
        """
        shard = self.shard(shard_id)
        if shard.down:
            raise DomainError(f"shard {shard_id} is already down")
        for name in sorted(shard.domains):
            shard.domains[name].install(None)
        shard.down = True
        if self.tracer.enabled:
            self.tracer.record(
                "shard_crash", transport="kernel",
                detail={"domains": len(shard)},
                shard=shard.label,
            )
        if self.metrics is not None:
            self.metrics.counter(
                SHARD_CRASHES_TOTAL, shard=shard.label
            ).inc()

    def sync_replicas(self, injector: FaultInjector | None = None) -> int:
        """Refresh every up shard's follower replicas (a flush /
        generation boundary); returns total followers refreshed.

        Down shards are skipped: their primaries hold post-crash cold
        state, and syncing would destroy the very follower snapshots a
        promotion needs.
        """
        refreshed = 0
        for shard in self._shards:
            if shard.down or not shard.replicas:
                continue
            for replica in shard.replicas:
                refreshed += replica.sync(
                    shard, injector=injector, tracer=self.tracer
                )
            if self.metrics is not None:
                self.metrics.gauge(
                    REPLICA_LAG_GENERATIONS, shard=shard.label
                ).set(float(shard.replica_lag()))
        return refreshed

    # -- domain management -------------------------------------------------

    def create_domain(self, name: str,
                      config: PSSConfig | None = None,
                      model: str = "perceptron",
                      policy: DomainPolicy | None = None,
                      identity: ClientIdentity | None = None) -> Domain:
        """Register a new prediction domain on its owning shard.

        ``identity`` is the tenant charged by admission control; direct
        kernel-side callers (tests, persistence restore) pass None and
        are never charged.

        Raises:
            DomainError: if the name is taken or the service is full.
            QuotaExceededError: if the identity's domain quota is spent.
        """
        shard = self._shards[self.ring.shard_of(name)]
        if name in shard:
            raise DomainError(f"domain {name!r} already exists")
        if self._domain_count() >= self.config.max_domains:
            raise DomainError(
                f"service is full ({self.config.max_domains} domains)"
            )
        if self.admission is not None and identity is not None:
            self.admission.admit_domain(identity, name)
        domain_config = config or PSSConfig()
        domain = Domain(name=name, config=domain_config,
                        model=create_model(model, domain_config),
                        model_name=model, policy=policy or open_policy(),
                        created_by=identity)
        shard.adopt(domain)
        domain.bind(self.plans)
        return domain

    def domain(self, name: str) -> Domain:
        try:
            return self._shards[self.ring.shard_of(name)].domains[name]
        except KeyError:
            raise DomainError(f"unknown domain {name!r}") from None

    def has_domain(self, name: str) -> bool:
        return name in self._shards[self.ring.shard_of(name)]

    def remove_domain(self, name: str) -> None:
        shard = self._shards[self.ring.shard_of(name)]
        if name not in shard:
            raise DomainError(f"unknown domain {name!r}")
        domain, _accounts = shard.evict(name)
        # whoever still holds a handle is refused from here on
        domain.policy = REMOVED
        if self.admission is not None and domain.created_by is not None:
            self.admission.release_domain(domain.created_by)
        # What was kept about it by name goes with it: a domain created
        # under the name later is another domain, with neither this
        # one's resilience aggregate nor its follower snapshots.
        self._resilience_stats.pop(name, None)
        for host in self._shards:
            for replica in host.replicas:
                replica.followers.pop(name, None)

    def domain_names(self) -> tuple[str, ...]:
        return tuple(sorted(
            name for shard in self._shards for name in shard.domains
        ))

    # -- client access -----------------------------------------------------

    def handle(self, name: str,
               identity: ClientIdentity | None = None,
               config: PSSConfig | None = None,
               model: str = "perceptron") -> DomainHandle:
        """Policy-checked handle on a domain - created implicitly, as
        the identity's, when the service is configured to."""
        who = identity or ClientIdentity()
        domain = self._shards[self.ring.shard_of(name)].domains.get(name)
        if domain is None:
            if not self.config.implicit_domains:
                raise DomainError(f"unknown domain {name!r}")
            domain = self.create_domain(name, config=config, model=model,
                                        identity=who)
        return DomainHandle(domain, who, admission=self.admission)

    def connect(self, name: str,
                identity: ClientIdentity | None = None,
                transport: str = "vdso",
                config: PSSConfig | None = None,
                model: str = "perceptron",
                batch_size: int | None = None,
                resilience: ResilienceConfig | None = None,
                fallback: Fallback = 0,
                fault_plan: FaultPlan | FaultInjector | None = None
                ) -> PSSClient:
        """Open a :class:`repro.core.client.PSSClient` on a domain.

        This is the normal entry point for applications: it wires the
        policy-checked handle through the requested transport (vDSO by
        default, matching the paper's deployment).  The client degrades
        instead of raising: ``resilience`` (a :class:`~repro.core.config
        .ResilienceConfig`) sets its retries and circuit breaker, and
        ``fallback`` (a static score or ``features -> score`` callable)
        answers the reads it gives up on; every client of a domain
        shares one :class:`ResilienceStats` block.  ``fault_plan`` (a
        :class:`~repro.core.faults.FaultPlan` or ready-made
        :class:`~repro.core.faults.FaultInjector`) attaches fault
        injection to the client's transport.
        """
        # Local import: client builds on service, not the other way around.
        from repro.core.client import PSSClient

        handle = self.handle(name, identity, config, model)
        client = PSSClient(
            handle,
            transport_kind=transport,
            latency=self.config.latency,
            batch_size=(batch_size if batch_size is not None
                        else self.domain(name).config.update_batch_size),
            resilience=resilience,
            fallback=fallback,
            stats=self._resilience_stats.setdefault(name,
                                                    ResilienceStats()),
        )
        self._shards[handle.shard_id].register_account(
            client.latency, name)
        if self.tracer.enabled or self.metrics is not None:
            client.attach_observability(
                tracer=self.tracer if self.tracer.enabled else None,
                metrics=self.metrics,
            )
        if fault_plan is not None:
            from repro.core.faults import FaultInjector

            client.attach_fault_injector(
                fault_plan if isinstance(fault_plan, FaultInjector)
                else FaultInjector(fault_plan))
        return client

    # -- by-name execution (the serving lanes) -------------------------------

    def predict(self, name: str, features: Sequence[int]) -> int:
        """In-kernel predict: no latency, policy, charge or span."""
        return self.domain(name).predict(features)

    def predict_batch(
        self, requests: Sequence[tuple[str, Sequence[int]]]
    ) -> list[int | Exception]:
        """:meth:`predict` per ``(name, features)`` row, in order: the
        row's score or what it raised.  A served predict is one row."""
        outcomes: list[int | Exception] = []
        for name, features in requests:
            try:
                outcomes.append(self.domain(name).predict(features))
            except Exception as error:
                outcomes.append(error)
        return outcomes

    def update(self, name: str, features: Sequence[int],
               direction: bool) -> None:
        """In-kernel update, refused while the shard is down."""
        domain = self.domain(name)
        shard = domain.shard
        if shard is not None and shard.down:
            domain.refuse_write()
        domain.update(features, direction)

    # -- introspection -------------------------------------------------------

    def reports(self) -> list[DomainReport]:
        """Per-domain activity reports, sorted by domain name.

        When the service carries a metrics registry, each report also
        gets latency-histogram percentile summaries (vDSO reads and
        syscalls, merged across every transport that served the domain);
        domains whose clients degraded (retried, fell back, dropped a
        hint ...) additionally carry their aggregated
        :class:`ResilienceStats`.
        """
        reports: list[DomainReport] = []
        for name in self.domain_names():
            report = self.domain(name).report()
            resilience = self._resilience_stats.get(name)
            if resilience is not None and resilience.any_activity:
                report.resilience = resilience
            if self.metrics is not None:
                for path, metric in (("vdso_read_ns", VDSO_READ_NS),
                                     ("syscall_ns", SYSCALL_NS)):
                    merged = self.metrics.merged_histogram(
                        metric, domain=name
                    )
                    if merged.count:
                        report.latency_percentiles[path] = \
                            merged.snapshot()
            reports.append(report)
        return reports

    def shard_summaries(self) -> list[dict[str, Any]]:
        """Per-shard load view for shard-scaling reports.

        One dict per shard: domain count, slots owned on the ring,
        aggregate prediction/update volume, the merged
        boundary-crossing account, liveness and failover counters, and
        - when the service carries a metrics registry - vDSO/syscall
        latency percentile snapshots merged over the shard's domains.
        Replicated shards additionally report their worst follower lag
        (``replica_lag``, in generations).
        """
        summaries: list[dict[str, Any]] = []
        for shard in self._shards:
            stats = shard.merged_stats()
            latency = shard.merged_latency()
            summary: dict[str, Any] = {
                "shard": shard.shard_id,
                "domains": len(shard),
                "domain_names": shard.domain_names(),
                "slots": len(self.ring.slots_of(shard.shard_id)),
                "predictions": stats.predictions,
                "updates": stats.updates,
                "latency": latency,
                "latency_percentiles": {},
                "down": shard.down,
                "failover_predictions": shard.failover_predictions,
            }
            if shard.replicas:
                summary["replicas"] = len(shard.replicas)
                summary["replica_lag"] = shard.replica_lag()
            if len(self.plans):
                # Distinct model shapes hosted here; the service-wide
                # compiler sharing stats ride along on every row (the
                # cache itself is kernel-global, not per shard).
                summary["plans"] = len({
                    plan_signature(domain.config)
                    for domain in shard.domains.values()
                })
                summary["plan_cache"] = self.plans.stats()
            if self.metrics is not None:
                for path, metric in (("vdso_read_ns", VDSO_READ_NS),
                                     ("syscall_ns", SYSCALL_NS)):
                    merged = Histogram()
                    for name in shard.domain_names():
                        merged.merge(self.metrics.merged_histogram(
                            metric, domain=name))
                    if merged.count:
                        summary["latency_percentiles"][path] = \
                            merged.snapshot()
            summaries.append(summary)
        return summaries
