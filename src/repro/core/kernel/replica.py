"""Read-only follower replicas and zero-downtime promotion.

The paper serves predictions through a read-only vDSO mapping of
kernel-published state; a :class:`ShardReplica` extends that idea one
level up: it is a vDSO-style *snapshot follower* of a whole shard - a
read-only copy of every hosted domain's model, refreshed only on
flush/generation boundaries (:meth:`ShardReplica.sync`).  Between
refreshes a follower lags its primary by a bounded number of weight
generations (:meth:`ShardReplica.lag` reports exactly how many), which
is the documented staleness window failover answers live in.

Replicas never learn: they hold :class:`FollowerDomain` snapshots that
only ``predict``.  The state machine (``tests/test_machine.py``)
compares every follower with the model its primary last synced after
every step.

:class:`ReplicaPromoter` closes the loop: when a shard's primary is
fault-injected down (its in-memory models destroyed), promotion loads
the freshest follower snapshot of each domain back into the *live*
:class:`~repro.core.kernel.domain.Domain` objects - in place, so every
open :class:`~repro.core.kernel.domain.DomainHandle` and client stays
valid - bumps the weight generation past every pre-crash value (open
score caches invalidate themselves), marks the shard up, and rolls a
fresh per-shard checkpoint.  Traffic never stops: reads fail over to
followers during the outage and writes resume on the promoted state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.errors import DomainError
from repro.core.kernel.domain import Domain
from repro.core.models import PredictorModel, create_model
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:
    from repro.core.faults import FaultInjector
    from repro.core.kernel.checkpoint import ShardedCheckpointManager
    from repro.core.kernel.service import ShardedService
    from repro.core.kernel.shard import Shard


class FollowerDomain:
    """A read-only snapshot of one domain at a generation boundary."""

    __slots__ = ("name", "generation", "model")

    def __init__(self, name: str, generation: int,
                 model: PredictorModel) -> None:
        self.name = name
        #: the primary's weight generation this snapshot reflects
        self.generation = generation
        self.model = model

    def predict(self, features: Sequence[int]) -> int:
        """Score ``features`` against the snapshot (never mutates it)."""
        return self.model.predict(features)


class ShardReplica:
    """One read-only follower of a shard's domains.

    ``sync`` refreshes only the followers whose primary generation
    moved (a clean shard costs nothing, like the dirty-signature gate
    on checkpoints); an attached injector's ``replica_lag`` dice can
    skip individual refreshes, leaving that follower behind.
    """

    def __init__(self, shard_id: int, replica_id: int) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.followers: dict[str, FollowerDomain] = {}
        self.lagged_refreshes = 0

    def _snapshot(self, domain: Domain) -> FollowerDomain:
        model = create_model(domain.model_name, domain.config)
        model.load_state(domain.model.to_state())
        return FollowerDomain(domain.name, domain.generation, model)

    def sync(self, shard: "Shard",
             injector: "FaultInjector | None" = None,
             tracer: TracerLike | None = None) -> int:
        """Refresh this follower set from the primary; returns how many
        followers were actually refreshed.

        Must be called on a flush/generation boundary of an *up* shard:
        syncing from a crashed primary would overwrite good follower
        state with the post-crash cold models, so the service-level
        :meth:`~repro.core.kernel.service.ShardedService.sync_replicas`
        skips down shards entirely.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        refreshed = 0
        for name in sorted(shard.domains):
            domain = shard.domains[name]
            follower = self.followers.get(name)
            if follower is not None \
                    and follower.generation == domain.generation:
                continue
            if injector is not None and injector.replica_lag():
                self.lagged_refreshes += 1
                continue
            self.followers[name] = self._snapshot(domain)
            refreshed += 1
        dropped = [
            name for name in self.followers if name not in shard.domains
        ]
        for name in dropped:
            del self.followers[name]
        if tracer.enabled and (refreshed or dropped):
            tracer.record(
                "replica_sync", transport="replica",
                detail={"replica": self.replica_id,
                        "refreshed": refreshed,
                        "dropped": len(dropped)},
                shard=str(self.shard_id),
            )
        return refreshed

    def lag(self, shard: "Shard") -> int:
        """Worst-case staleness of this follower, in generations.

        A domain the follower has never seen counts its full primary
        generation (the follower would answer from nothing).
        """
        worst = 0
        for name, domain in shard.domains.items():
            follower = self.followers.get(name)
            behind = (domain.generation if follower is None
                      else max(0, domain.generation - follower.generation))
            worst = max(worst, behind)
        return worst


@dataclass
class PromotionReport:
    """What one zero-downtime promotion restored."""

    shard_id: int
    #: domains revived from a follower snapshot
    restored: int
    #: domains no follower held (they restart cold)
    cold: int
    #: whether a rolling per-shard checkpoint was written afterwards
    checkpointed: bool


class ReplicaPromoter:
    """Promotes follower state into a crashed shard, under live traffic.

    Promotion installs follower state into the existing
    :class:`Domain` objects (:meth:`Domain.install`), so every open
    handle, client, and transport keeps working across the outage and
    any score cache keyed on a pre-crash generation is invalid.
    """

    def __init__(self, service: "ShardedService",
                 checkpoints: "ShardedCheckpointManager | None" = None,
                 tracer: TracerLike | None = None) -> None:
        self.service = service
        self.checkpoints = checkpoints
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else service.tracer)

    def _freshest(self, shard: "Shard",
                  name: str) -> FollowerDomain | None:
        best: FollowerDomain | None = None
        for replica in shard.replicas:
            follower = replica.followers.get(name)
            if follower is None:
                continue
            if best is None or follower.generation > best.generation:
                best = follower
        return best

    def promote(self, shard_id: int) -> PromotionReport:
        """Revive ``shard_id`` from its freshest followers.

        Raises :class:`~repro.core.errors.DomainError` when the shard
        is not down - promotion over a healthy primary would roll its
        state back to the last sync.
        """
        shard = self.service.shard(shard_id)
        if not shard.down:
            raise DomainError(
                f"shard {shard_id} is not down; refusing to promote "
                f"over a live primary"
            )
        restored = 0
        cold = 0
        for name in sorted(shard.domains):
            domain = shard.domains[name]
            follower = self._freshest(shard, name)
            if follower is None:
                cold += 1
                continue
            domain.install(follower.model.to_state())
            restored += 1
        shard.down = False
        if self.tracer.enabled:
            self.tracer.record(
                "replica_promote", transport="replica",
                detail={"restored": restored, "cold": cold},
                shard=str(shard_id),
            )
        checkpointed = False
        if self.checkpoints is not None:
            self.checkpoints.checkpoint_shard(shard_id)
            checkpointed = True
        return PromotionReport(shard_id=shard_id, restored=restored,
                               cold=cold, checkpointed=checkpointed)
