"""Property tests for the slot-ring placement scheme.

The ring's contract is *minimal movement*: a reshard relocates only
the slots it must — growing k -> k+1 moves at most ceil(slots/(k+1))
slots and never remaps a slot whose owner survives with capacity to
spare; shrinking moves exactly the doomed shards' slots.  Placement
itself is a pure function of the domain name, so routing is stable
across processes and reshard plans are deterministic.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.kernel.sharding import DEFAULT_SLOTS, SlotRing


class TestRingBasics:
    def test_fresh_assignment_is_balanced_modulo(self):
        ring = SlotRing(4, num_slots=64)
        for slot in range(64):
            assert ring.owner_of(slot) == slot % 4
        for shard in range(4):
            assert len(ring.slots_of(shard)) == 16

    def test_slot_of_is_stable_and_in_range(self):
        ring = SlotRing(3)
        for name in ("hle-genome", "jit-atax", "reclaim", ""):
            slot = ring.slot_of(name)
            assert 0 <= slot < DEFAULT_SLOTS
            assert ring.slot_of(name) == slot

    def test_shard_of_matches_owner_of_slot(self):
        ring = SlotRing(5)
        for i in range(50):
            name = f"domain-{i}"
            assert ring.shard_of(name) == ring.owner_of(
                ring.slot_of(name)
            )

    def test_router_single_shard_shortcut(self):
        ring = SlotRing(1)
        assert all(ring.shard_of(f"d{i}") == 0 for i in range(20))

    def test_router_routes_as_its_ring_does(self):
        """``shard_of`` writes the slot hash out (one frame per
        routing); it must stay ``owner_of(slot_of(name))``, also after
        slots move - and through 1 shard, where nothing is hashed."""
        ring = SlotRing(1, num_slots=16)
        names = [f"domain-{i}" for i in range(50)] + ["", "dömäin"]
        for count in (3, 5, 1, 2):
            moves = ring.plan_reshard(count)
            if count > ring.num_shards:
                ring.set_num_shards(count)
            for move in moves:
                ring.apply(move)
                assert [ring.shard_of(name) for name in names] \
                    == [ring.owner_of(ring.slot_of(name))
                        for name in names]
            ring.set_num_shards(count)
            spread = {ring.shard_of(name) for name in names}
            assert spread == {0} if count == 1 else len(spread) > 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SlotRing(0)
        with pytest.raises(ConfigError):
            SlotRing(2, num_slots=0)
        with pytest.raises(ConfigError):
            SlotRing(3, num_slots=2)  # fewer slots than shards


class TestReshardPlans:
    @given(old=st.integers(1, 12), slots=st.sampled_from([16, 64, 128]))
    @settings(max_examples=60, deadline=None)
    def test_grow_by_one_is_minimal_movement(self, old, slots):
        if slots < old + 1:
            return
        ring = SlotRing(old, num_slots=slots)
        before = {slot: ring.owner_of(slot) for slot in range(slots)}
        moves = ring.plan_reshard(old + 1)
        # Bound: at most ceil(slots / (k+1)) slots relocate.
        assert len(moves) <= math.ceil(slots / (old + 1))
        targets = [divmod(slots, old + 1)[0]] * (old + 1)
        for shard in range(slots % (old + 1)):
            targets[shard] += 1
        sizes = {
            shard: len(ring.slots_of(shard)) for shard in range(old)
        }
        for move in moves:
            # Every move feeds the new shard, from a surviving donor
            # that still meets its own target after donating.
            assert move.dest == old
            assert move.source == before[move.slot]
            sizes[move.source] -= 1
            assert sizes[move.source] >= targets[move.source]

    @given(old=st.integers(1, 10), new=st.integers(1, 10),
           slots=st.sampled_from([32, 64]))
    @settings(max_examples=80, deadline=None)
    def test_surviving_slots_never_remapped(self, old, new, slots):
        if max(old, new) > slots:
            return
        ring = SlotRing(old, num_slots=slots)
        before = {slot: ring.owner_of(slot) for slot in range(slots)}
        moves = ring.plan_reshard(new)
        for move in moves:
            if new > old:
                # Growing: moves only feed the brand-new shards.
                assert move.dest >= old
            else:
                # Shrinking: only doomed shards' slots move.
                assert move.source >= new
        moved = {move.slot for move in moves}
        for slot in range(slots):
            if slot not in moved:
                # An unmoved slot keeps an owner that survives.
                assert before[slot] < min(old, new)

    @given(old=st.integers(2, 10), slots=st.sampled_from([32, 64]))
    @settings(max_examples=60, deadline=None)
    def test_shrink_moves_exactly_doomed_slots(self, old, slots):
        new = old - 1
        ring = SlotRing(old, num_slots=slots)
        doomed = set(ring.slots_of(old - 1))
        moves = ring.plan_reshard(new)
        assert {move.slot for move in moves} == doomed
        for move in moves:
            assert move.source == old - 1
            assert 0 <= move.dest < new

    @given(old=st.integers(1, 8), new=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_plans_are_deterministic(self, old, new):
        first = SlotRing(old).plan_reshard(new)
        second = SlotRing(old).plan_reshard(new)
        assert first == second

    def test_noop_plan_is_empty(self):
        ring = SlotRing(4)
        assert ring.plan_reshard(4) == []


class TestApply:
    def test_apply_commits_one_slot(self):
        ring = SlotRing(2, num_slots=16)
        move = ring.plan_reshard(3)[0]
        assert ring.owner_of(move.slot) == move.source
        ring.apply(move)
        assert ring.owner_of(move.slot) == move.dest

    def test_apply_rejects_stale_move(self):
        ring = SlotRing(2, num_slots=16)
        move = ring.plan_reshard(3)[0]
        ring.apply(move)
        with pytest.raises(ConfigError):
            ring.apply(move)  # owner already flipped

    def test_set_num_shards_rejects_orphans(self):
        ring = SlotRing(4, num_slots=16)
        with pytest.raises(ConfigError):
            ring.set_num_shards(2)  # shards 2 and 3 still own slots

    def test_full_grow_plan_reaches_balance(self):
        ring = SlotRing(2, num_slots=64)
        for move in ring.plan_reshard(4):
            ring.apply(move)
        ring.set_num_shards(4)
        sizes = sorted(len(ring.slots_of(s)) for s in range(4))
        assert sizes == [16, 16, 16, 16]
