"""Incremental live resharding: one slot handoff at a time.

``ShardedService.reshard`` used to be impossible without a full
checkpoint round-trip through a fresh service.  With the slot ring
(:mod:`repro.core.kernel.sharding`) a reshard is just a planned list of
:class:`~repro.core.kernel.sharding.SlotMove`\\ s, and this module
executes that plan *under live traffic*: a :class:`SlotMigrator` is a
stepwise state machine whose :meth:`~SlotMigrator.step` hands off the
domains of exactly one slot, so a driver can interleave arbitrary
client work between steps and the service is never paused.

The handoff protocol per slot is generation-consistent:

1. **start** - the slot's domains are identified on the source shard,
   which keeps serving them (reads and writes) untouched; their weight
   generations are recorded.
2. **transfer** - each domain object (with its client latency
   accounts) moves from the source to the destination shard.  The
   *same* objects move, so open handles and clients stay valid and
   scores are trivially bit-identical across the handoff;
   :meth:`Shard.adopt` is where the domain and its accounts learn
   their new shard, so what they emit next is filed under it.
3. **verify** - the recorded generations are compared against the
   transferred domains; a mismatch would mean a write raced the
   transfer and aborts the slot (impossible in this synchronous
   kernel, but the check is what makes the protocol safe to port to a
   concurrent one).
4. **commit** - only now does :meth:`SlotRing.apply` flip the slot's
   owner, atomically redirecting routing to the destination.

A step can *stall* instead of committing: when the attached
:class:`~repro.core.faults.FaultInjector` rolls a ``migration_stall``,
or when the slot's source or destination shard is crashed (the slot is
retried on a later step, typically after a promotion revived the
shard).  Stalls never lose state - the slot simply stays with its
current owner, which keeps serving it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import DomainError
from repro.core.kernel.sharding import SlotMove
from repro.obs.spanned import spanned
from repro.obs.trace import SpanHandleLike

if TYPE_CHECKING:
    from repro.core.faults import FaultInjector
    from repro.core.kernel.service import ShardedService


@dataclass
class MigrationReport:
    """What one completed reshard actually moved."""

    new_shard_count: int
    moved_slots: int
    moved_domains: int
    stalls: int


class SlotMigrator:
    """Executes one reshard plan, one slot per :meth:`step`.

    Constructed via :meth:`ShardedService.begin_reshard`; at most one
    migrator is active per service.  Growing extends the shard list
    (and the ring's shard count) immediately so committed slots route
    to live shards; shrinking keeps the doomed shards serving until
    their last slot is handed off, then truncates.
    """

    def __init__(self, service: "ShardedService", new_shard_count: int,
                 injector: "FaultInjector | None" = None) -> None:
        self.service = service
        self.new_shard_count = new_shard_count
        self.injector = injector
        self.tracer = service.tracer
        ring = service.ring
        self._moves: deque[SlotMove] = deque(
            ring.plan_reshard(new_shard_count)
        )
        self.moved_slots = 0
        self.moved_domains = 0
        self.stalls = 0
        self.done = False
        if new_shard_count > service.num_shards:
            service.grow_shards(new_shard_count)
            ring.set_num_shards(new_shard_count)
        if not self._moves:
            self._finalize()

    @property
    def pending_slots(self) -> int:
        """Slots still awaiting handoff."""
        return len(self._moves)

    def _stall(self, move: SlotMove, reason: str) -> bool:
        self.stalls += 1
        if self.tracer.enabled:
            self.tracer.record(
                "migration_stall", transport="migrator",
                detail={"slot": move.slot, "source": move.source,
                        "dest": move.dest, "reason": reason},
                shard=str(move.source),
            )
        return False

    def _step_span(self) -> SpanHandleLike | None:
        """Span for the handoff :meth:`step` is about to attempt (a
        finished migration attempts none)."""
        if self.done:
            return None
        move = self._moves[0]
        return self.tracer.span("migrate.step", transport="migrator",
                                shard=str(move.source),
                                detail={"slot": move.slot,
                                        "source": move.source,
                                        "dest": move.dest})

    @spanned(_step_span, tracer="tracer")
    def step(self) -> bool:
        """Attempt the next slot handoff.

        Returns True once the whole migration is complete, False while
        slots remain - including when this step stalled (injected
        stall, or the slot's source/destination shard is down; the
        slot retries on a later step).  The service keeps serving
        either way, so drivers interleave ``step()`` with live traffic
        until it reports done.
        """
        if self.done:
            return True
        move = self._moves[0]
        if self.injector is not None and self.injector.migration_stall():
            return self._stall(move, "injected")
        source = self.service.shard(move.source)
        dest = self.service.shard(move.dest)
        if source.down or dest.down:
            return self._stall(move, "shard_down")
        ring = self.service.ring
        names = sorted(
            name for name in source.domains
            if ring.slot_of(name) == move.slot
        )
        if self.tracer.enabled:
            self.tracer.record(
                "migration_start", transport="migrator",
                detail={"slot": move.slot, "source": move.source,
                        "dest": move.dest, "domains": len(names)},
                shard=str(move.source),
            )
        generations = {
            name: source.domains[name].generation for name in names
        }
        for name in names:
            domain, accounts = source.evict(name)
            dest.adopt(domain, accounts)
        for name in names:
            if dest.domains[name].generation != generations[name]:
                raise DomainError(
                    f"generation of {name!r} moved during the slot "
                    f"{move.slot} handoff; aborting the commit"
                )
        ring.apply(move)
        self._moves.popleft()
        self.moved_slots += 1
        self.moved_domains += len(names)
        if self.tracer.enabled:
            self.tracer.record(
                "migration_commit", transport="migrator",
                detail={"slot": move.slot, "source": move.source,
                        "dest": move.dest, "domains": len(names)},
                shard=str(move.dest),
            )
        if not self._moves:
            self._finalize()
        return self.done

    def _finalize(self) -> None:
        ring = self.service.ring
        if self.new_shard_count < ring.num_shards:
            ring.set_num_shards(self.new_shard_count)
        self.service.finish_reshard(self.new_shard_count)
        self.done = True

    def report(self) -> MigrationReport:
        return MigrationReport(
            new_shard_count=self.new_shard_count,
            moved_slots=self.moved_slots,
            moved_domains=self.moved_domains,
            stalls=self.stalls,
        )
