"""Slot/ring domain placement for the service kernel.

Placement must be a pure function of the domain name and the shard
count: two services built with the same ``num_shards`` must agree on
where every domain lives (otherwise per-shard checkpoints could not be
restored into a fresh service), and placement must never depend on
registration order (otherwise restarting with a different workload
interleaving would silently migrate state).

The scheme is the classic slot ring: every name hashes *once* (CRC-32
over the UTF-8 name - stable across Python processes and versions,
unlike the builtin salted ``hash``) onto one of :data:`DEFAULT_SLOTS`
virtual slots, and a slots -> shards table says which shard owns each
slot.  A fresh ring assigns slot ``s`` to shard ``s % num_shards``, so
initial placement is still a pure function of (name, num_shards).

What the indirection buys over hashing straight to a shard id is
**minimal-movement resharding**: changing the shard count only
reassigns the slots that must move.  :meth:`SlotRing.plan_reshard`
produces the move list with two guarantees the live-migration tests
pin down:

* a slot whose owner survives the reshard is never remapped unless the
  ring has to shed it to a *new* shard (growing) - shrinking moves
  exactly the slots of the removed shards, nothing else;
* growing ``k -> k+1`` relocates at most ``ceil(num_slots / (k+1))``
  slots (each new shard receives only its balanced share).

The ring itself is pure bookkeeping; actually moving the domains of a
slot between shards - under live traffic, with generation-verified
handoff - is :class:`repro.core.kernel.migrate.SlotMigrator`'s job.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

from repro.core.errors import ConfigError

#: virtual slots on the ring; the granularity of live migration
DEFAULT_SLOTS = 64


class SlotMove(NamedTuple):
    """One planned slot reassignment: ``slot`` leaves ``source`` for
    ``dest``.  Applying the move is what commits the handoff."""

    slot: int
    source: int
    dest: int


class SlotRing:
    """N virtual slots and the slots -> shards ownership table.

    ``num_slots`` must be at least ``num_shards`` (otherwise some shard
    could never own a slot and the ring could not balance).
    """

    def __init__(self, num_shards: int,
                 num_slots: int = DEFAULT_SLOTS) -> None:
        if num_shards < 1:
            raise ConfigError(
                f"num_shards must be positive, got {num_shards}"
            )
        if num_slots < num_shards:
            raise ConfigError(
                f"num_slots ({num_slots}) must be >= num_shards "
                f"({num_shards})"
            )
        self.num_slots = num_slots
        self.num_shards = num_shards
        self._owners = [slot % num_shards for slot in range(num_slots)]

    def slot_of(self, name: str) -> int:
        """The virtual slot ``name`` hashes onto (pure, stable)."""
        return zlib.crc32(name.encode("utf-8")) % self.num_slots

    def owner_of(self, slot: int) -> int:
        """The shard currently owning ``slot``."""
        return self._owners[slot]

    def shard_of(self, name: str) -> int:
        """The shard id owning ``name`` via its slot (one shard owns
        every slot, so nothing is hashed).  :meth:`slot_of` is written
        out - one frame where the chain is two: every by-name kernel
        entry of a served request routes here."""
        if self.num_shards == 1:
            return 0
        return self._owners[
            zlib.crc32(name.encode("utf-8")) % self.num_slots]

    def slots_of(self, shard_id: int) -> tuple[int, ...]:
        """Every slot currently owned by ``shard_id``, ascending."""
        return tuple(
            slot for slot, owner in enumerate(self._owners)
            if owner == shard_id
        )

    def _target_size(self, shard_id: int, num_shards: int) -> int:
        """Balanced slot count for ``shard_id`` among ``num_shards``."""
        base, extra = divmod(self.num_slots, num_shards)
        return base + (1 if shard_id < extra else 0)

    def plan_reshard(self, new_shard_count: int) -> list[SlotMove]:
        """Deterministic minimal-movement plan to ``new_shard_count``.

        Growing donates slots only from over-target surviving shards to
        the new shards; shrinking reassigns only the removed shards'
        slots, each to the least-loaded survivor.  An equal count plans
        nothing.  The plan is computed against the *current* table, so
        it composes with prior reshards.
        """
        if new_shard_count < 1:
            raise ConfigError(
                f"num_shards must be positive, got {new_shard_count}"
            )
        if new_shard_count > self.num_slots:
            raise ConfigError(
                f"cannot reshard to {new_shard_count} shards with only "
                f"{self.num_slots} slots"
            )
        old = self.num_shards
        if new_shard_count == old:
            return []
        sizes = [0] * max(old, new_shard_count)
        for owner in self._owners:
            sizes[owner] += 1
        moves: list[SlotMove] = []
        if new_shard_count > old:
            for dest in range(old, new_shard_count):
                need = self._target_size(dest, new_shard_count)
                for slot, owner in enumerate(self._owners):
                    if need == 0:
                        break
                    if owner >= old or any(m.slot == slot for m in moves):
                        continue
                    if sizes[owner] <= self._target_size(
                            owner, new_shard_count):
                        continue
                    moves.append(SlotMove(slot, owner, dest))
                    sizes[owner] -= 1
                    sizes[dest] += 1
                    need -= 1
        else:
            for slot, owner in enumerate(self._owners):
                if owner < new_shard_count:
                    continue
                survivors = range(new_shard_count)
                dest = min(survivors, key=lambda s: (sizes[s], s))
                moves.append(SlotMove(slot, owner, dest))
                sizes[owner] -= 1
                sizes[dest] += 1
        return moves

    def apply(self, move: SlotMove) -> None:
        """Commit one planned move: flip the slot's owner to ``dest``.

        This is the single point where routing changes - callers commit
        it only after the slot's domains have been handed off.
        """
        if self._owners[move.slot] != move.source:
            raise ConfigError(
                f"slot {move.slot} is owned by "
                f"{self._owners[move.slot]}, not {move.source}"
            )
        self._owners[move.slot] = move.dest

    def set_num_shards(self, new_shard_count: int) -> None:
        """Finalize a reshard once every planned move was applied."""
        highest = max(self._owners)
        if highest >= new_shard_count:
            raise ConfigError(
                f"cannot shrink to {new_shard_count} shards: slot table "
                f"still references shard {highest}"
            )
        self.num_shards = new_shard_count
