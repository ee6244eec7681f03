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
          PSSClient           degrades instead of raising

:data:`~repro.core.service.PredictionService` is the paper-shaped
alias of :class:`ShardedService`.  This package exports the request
path; live resharding (:mod:`.migrate`), follower replicas and
promotion (:mod:`.replica`) and per-shard checkpoints
(:mod:`.checkpoint`: :class:`~.checkpoint.ShardedCheckpointManager`)
are imported from their own modules, by the code that uses them.
"""

from repro.core.kernel.admission import (
    AdmissionController,
    TenantQuota,
    TenantUsage,
    UNLIMITED,
)
from repro.core.kernel.domain import Domain, DomainHandle
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
    "Domain",
    "DomainHandle",
    "ShardedService",
    "Shard",
    "DEFAULT_SLOTS",
    "SlotMove",
    "SlotRing",
]
