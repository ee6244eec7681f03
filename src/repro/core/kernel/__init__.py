"""The layered service kernel: shards, admission, domains, checkpoints.

Layer diagram (see ``docs/ARCHITECTURE.md``)::

    ShardedService            the kernel: routing + admission + obs
      ├─ SlotRing             name -> slot -> shard placement, N
      │                       virtual slots migratable one at a time
      ├─ AdmissionController  per-tenant quotas (domains/updates/predicts)
      ├─ SlotMigrator         live reshard: slot-granular handoff
      └─ Shard[0..N)          domains + per-shard stats/latency
           ├─ Domain          model + config + policy + stats
           └─ ShardReplica[K] read-only followers (failover reads)
                ▲
          DomainHandle        policy- & admission-checked view
                ▲
          Transports          vDSO / syscall cost model
                ▲
          PSSClient / ResilientClient

:data:`~repro.core.service.PredictionService` is the paper-shaped
alias of :class:`ShardedService`.  Recovery paths:
:class:`ShardedCheckpointManager` (per-shard snapshots + manifest) and
:class:`ReplicaPromoter` (zero-downtime promotion of a crashed shard
from its freshest followers).
"""

from repro.core.kernel.admission import (
    AdmissionController,
    TenantQuota,
    TenantUsage,
    UNLIMITED,
)
from repro.core.kernel.checkpoint import (
    MANIFEST_NAME,
    RecoveryResult,
    ShardView,
    ShardedCheckpointManager,
    shard_file_name,
)
from repro.core.kernel.domain import Domain, DomainHandle
from repro.core.kernel.migrate import MigrationReport, SlotMigrator
from repro.core.kernel.replica import (
    FollowerDomain,
    PromotionReport,
    ReplicaPromoter,
    ShardReplica,
)
from repro.core.kernel.service import ShardedService
from repro.core.kernel.shard import Shard
from repro.core.kernel.sharding import (
    DEFAULT_SLOTS,
    SlotMove,
    SlotRing,
)

__all__ = [
    "AdmissionController",
    "TenantQuota",
    "TenantUsage",
    "UNLIMITED",
    "MANIFEST_NAME",
    "RecoveryResult",
    "ShardView",
    "ShardedCheckpointManager",
    "shard_file_name",
    "Domain",
    "DomainHandle",
    "MigrationReport",
    "SlotMigrator",
    "FollowerDomain",
    "PromotionReport",
    "ReplicaPromoter",
    "ShardReplica",
    "ShardedService",
    "Shard",
    "DEFAULT_SLOTS",
    "SlotMove",
    "SlotRing",
]
