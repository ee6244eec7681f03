"""Follower replication, failover, and zero-downtime promotion.

What these tests pin down: followers are pure snapshots refreshed on
sync boundaries (bounded staleness, measurable as ``lag``); a crashed
shard serves reads from its freshest followers and refuses writes; a
promotion restores the freshest follower state in place - handles and
clients stay valid, generations stay strictly monotonic - and no
update acknowledged before the last sync is ever lost.
"""

from functools import partial

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.errors import (
    DomainError,
    FeatureError,
    ShardDownError,
    TransportFault,
)
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel.checkpoint import ShardedCheckpointManager
from repro.core.kernel.replica import ReplicaPromoter
from repro.core.persistence import (
    load_service,
    save_service,
    snapshot_service,
)

CONFIG = PSSConfig(num_features=1)

NAMES = [f"domain-{i}" for i in range(8)]


def populate(service, updates=4):
    for name in NAMES:
        service.create_domain(name, config=CONFIG)
        for i in range(updates):
            service.handle(name).update([i], bool(i % 2))


class TestSyncAndLag:
    def test_sync_refreshes_every_follower_once(self):
        service = PredictionService(num_shards=2, num_replicas=2)
        populate(service)
        refreshed = service.sync_replicas()
        assert refreshed == 2 * len(NAMES)
        for shard in service.shards:
            assert shard.replica_lag() == 0

    def test_clean_resync_costs_nothing(self):
        service = PredictionService(num_shards=2, num_replicas=1)
        populate(service)
        service.sync_replicas()
        # No generation moved: the generation gate skips every follower.
        assert service.sync_replicas() == 0

    def test_lag_counts_generations_behind(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        for _ in range(3):
            service.handle(NAMES[0]).update([1], True)
        shard = service.shard(0)
        assert shard.replica_lag() == 3
        service.sync_replicas()
        assert shard.replica_lag() == 0

    def test_unseen_domain_counts_full_generation(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        # Never synced: every follower would answer from nothing.
        assert service.shard(0).replica_lag() \
            == max(service.domain(n).generation for n in NAMES)

    def test_injected_lag_skips_refreshes(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        injector = FaultInjector(FaultPlan(seed=3, replica_lag_rate=1.0))
        assert service.sync_replicas(injector=injector) == 0
        replica = service.shard(0).replicas[0]
        assert replica.lagged_refreshes == len(NAMES)
        assert service.shard(0).replica_lag() > 0

    def test_dropped_domains_leave_the_follower_set(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        service.remove_domain(NAMES[0])
        service.handle(NAMES[1]).update([1], True)
        service.sync_replicas()
        followers = service.shard(0).replicas[0].followers
        assert NAMES[0] not in followers

    def test_a_recreated_domain_never_sees_its_predecessors_follower(self):
        """A follower goes with its domain: the one created under the
        name since is unseen by any follower, so a crash refuses its
        reads and a promotion leaves it cold - it is neither served nor
        given what the removed domain had learned."""
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        service.remove_domain(NAMES[0])
        successor = service.create_domain(NAMES[0], config=CONFIG)
        service.crash_shard(0)
        with pytest.raises(ShardDownError):
            service.handle(NAMES[0]).predict([1])
        ReplicaPromoter(service).promote(0)
        assert successor.model.weights.nonzero_count() == 0

    def test_replicated_summaries_report_lag(self):
        service = PredictionService(num_shards=2, num_replicas=2)
        populate(service)
        service.sync_replicas()
        for summary in service.shard_summaries():
            assert summary["replicas"] == 2
            assert summary["replica_lag"] == 0
            assert summary["down"] is False


class TestCrashAndFailover:
    def crashed_service(self, num_replicas=2):
        service = PredictionService(num_shards=1,
                                    num_replicas=num_replicas)
        populate(service)
        service.sync_replicas()
        service.crash_shard(0)
        return service

    def test_crash_is_idempotent_guarded(self):
        service = self.crashed_service()
        with pytest.raises(DomainError):
            service.crash_shard(0)

    def test_reads_fail_over_to_followers(self):
        live = PredictionService(num_shards=1, num_replicas=2)
        populate(live)
        expected = [live.handle(name).predict([1]) for name in NAMES]

        crashed = self.crashed_service()
        # Failover answers equal the primary's state at the sync
        # boundary - which is exactly the pre-crash trained state.
        got = [crashed.handle(name).predict([1]) for name in NAMES]
        assert got == expected
        assert crashed.shard(0).failover_predictions == len(NAMES)
        assert crashed.domain(NAMES[0]).stats.failover_predictions > 0

    def test_failover_round_robins_across_replicas(self):
        service = self.crashed_service(num_replicas=2)
        for i in range(4):
            service.handle(NAMES[0]).predict([1])
        shard = service.shard(0)
        assert shard._failover_cursor == 4

    def test_writes_refuse_while_down(self):
        """By name (the served write) or on a handle, nothing is
        applied: replicas are read-only."""
        service = self.crashed_service()
        handle = service.handle(NAMES[0])
        for write in (partial(service.update, NAMES[0]), handle.update,
                      handle.reset):
            with pytest.raises(ShardDownError) as excinfo:
                write([1], True)
            assert isinstance(excinfo.value, TransportFault)
            assert excinfo.value.errno_name == "EHOSTDOWN"
        assert service.domain(NAMES[0]).stats.updates == 4

    def test_unreplicated_crash_refuses_reads_too(self):
        service = PredictionService(num_shards=1, num_replicas=0)
        populate(service)
        service.crash_shard(0)
        with pytest.raises(ShardDownError):
            service.handle(NAMES[0]).predict([1])

    def test_crash_bumps_generations_past_survivors(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        before = {n: service.domain(n).generation for n in NAMES}
        service.crash_shard(0)
        for name in NAMES:
            assert service.domain(name).generation > before[name]


def lagging_crash(num_replicas=2):
    """One crashed shard whose two followers hold different states
    (the second missed the last sync), so that which follower answers
    - the round robin - shows in the scores."""
    service = PredictionService(num_shards=1, num_replicas=num_replicas)
    populate(service)
    service.sync_replicas()
    shard = service.shard(0)
    for name in NAMES:
        service.handle(name).update([1], True)
        service.handle(name).update([2], False)
    if shard.replicas:
        shard.replicas[0].sync(shard)
    service.crash_shard(0)
    return service


READ_ROWS = [(1,), (1,), (2,), (3,)]
#: every way a read reaches a domain, each asked for READ_ROWS
READS = {
    "Domain.predict": lambda service, name: [
        service.domain(name).predict(row) for row in READ_ROWS],
    "Domain.predict_batch": lambda service, name:
        service.domain(name).predict_batch(READ_ROWS),
    "DomainHandle.predict": lambda service, name: [
        service.handle(name).predict(row) for row in READ_ROWS],
    "DomainHandle.predict_batch": lambda service, name:
        service.handle(name).predict_batch(READ_ROWS),
    "vdso miss": lambda service, name: [
        service.connect(name)._transport.predict(row) for row in READ_ROWS],
    "ShardedService.predict": lambda service, name: [
        service.predict(name, row) for row in READ_ROWS],
    "ShardedService.predict_batch, 1 row": lambda service, name: [
        service.predict_batch([(name, row)])[0] for row in READ_ROWS],
    "ShardedService.predict_batch": lambda service, name:
        service.predict_batch([(name, row) for row in READ_ROWS]),
}


class TestOneCrashRule:
    """Every read path meets a crashed shard through the one rule in
    ``Domain``: the same follower answers, counted the same way, as
    the scalar handle read on a twin service."""

    @pytest.mark.parametrize("path", READS)
    def test_every_read_fails_over_alike(self, path):
        service, twin = lagging_crash(), lagging_crash()
        name = NAMES[3]
        got = READS[path](service, name)
        want = [twin.handle(name).predict(row) for row in READ_ROWS]
        assert got == want
        assert want[0] != want[1]   # the two followers disagree
        assert service.domain(name).stats == twin.domain(name).stats
        shard, other = service.shard(0), twin.shard(0)
        assert shard.failover_predictions == other.failover_predictions \
            == len(READ_ROWS)
        assert shard._failover_cursor == other._failover_cursor

    def test_a_malformed_row_costs_only_itself(self):
        """The by-name batch on a crashed shard is the scalar loop: the
        rows around a malformed one are served, and counted, once."""
        service, twin = lagging_crash(), lagging_crash()
        name = NAMES[3]
        rows = [(1,), (1,), (1, 2), (2,), (1,)]
        got = service.predict_batch([(name, row) for row in rows])
        want = []
        for row in rows:
            try:
                want.append(twin.handle(name).predict(row))
            except FeatureError as error:
                want.append(type(error))
        assert [type(outcome) if isinstance(outcome, Exception)
                else outcome for outcome in got] == want
        assert service.domain(name).stats == twin.domain(name).stats
        assert service.shard(0)._failover_cursor \
            == twin.shard(0)._failover_cursor

    @pytest.mark.parametrize("path", READS)
    def test_no_follower_refuses(self, path):
        service = lagging_crash(num_replicas=0)
        try:
            got = READS[path](service, NAMES[3])
        except ShardDownError:
            return
        assert all(isinstance(outcome, ShardDownError) for outcome in got)
        assert service.domain(NAMES[3]).stats.predictions == 0


class TestPromotion:
    def test_promotion_restores_freshest_follower(self):
        service = PredictionService(num_shards=1, num_replicas=2)
        populate(service)
        service.sync_replicas()
        expected = snapshot_service(service)["domains"]
        pre_crash = [service.handle(name).predict([1]) for name in NAMES]

        service.crash_shard(0)
        report = ReplicaPromoter(service).promote(0)
        assert report.restored == len(NAMES)
        assert report.cold == 0
        assert not service.shard(0).down
        # Model state rolls to the sync boundary: bit-identical weights
        # (modulo the generation counters promotion must advance).
        restored = snapshot_service(service)["domains"]
        for name in NAMES:
            assert restored[name]["model_state"]["weights"]["rows"] \
                == expected[name]["model_state"]["weights"]["rows"]
        assert [service.handle(name).predict([1])
                for name in NAMES] == pre_crash

    def test_promotion_requires_a_down_shard(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        with pytest.raises(DomainError):
            ReplicaPromoter(service).promote(0)

    def test_generations_stay_strictly_monotonic(self, tmp_path):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        checkpoints = ShardedCheckpointManager(service, tmp_path / "ck")
        checkpoints.checkpoint()
        save_service(service, tmp_path / "snapshot.json")
        history = {n: [service.domain(n).generation] for n in NAMES}

        def step(action):
            action()
            for name in NAMES:
                history[name].append(service.domain(name).generation)

        step(lambda: service.crash_shard(0))
        step(lambda: ReplicaPromoter(service).promote(0))
        step(checkpoints.recover)
        step(lambda: load_service(service, tmp_path / "snapshot.json"))
        for name in NAMES:
            first, crashed, promoted, recovered, loaded = history[name]
            assert first < crashed < promoted < recovered < loaded

    def test_domains_unseen_by_any_follower_restart_cold(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        service.create_domain("late-arrival", config=CONFIG)
        service.crash_shard(0)
        report = ReplicaPromoter(service).promote(0)
        assert report.restored == len(NAMES)
        assert report.cold == 1

    def test_promotion_rolls_a_shard_checkpoint(self, tmp_path):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        checkpoints = ShardedCheckpointManager(service, tmp_path)
        service.crash_shard(0)
        report = ReplicaPromoter(service, checkpoints=checkpoints) \
            .promote(0)
        assert report.checkpointed
        assert checkpoints.checkpoints_written == 1
        restored = PredictionService(num_shards=1)
        assert ShardedCheckpointManager(restored, tmp_path).recover() == 1

    def test_down_shards_never_checkpointed(self, tmp_path):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        checkpoints = ShardedCheckpointManager(service, tmp_path)
        checkpoints.checkpoint()
        good = (tmp_path / "shard-0000.json").read_text()
        service.crash_shard(0)
        # The primary now holds cold post-crash state; a checkpoint
        # here would overwrite the last good snapshot with it.
        assert checkpoints.checkpoint() == 0
        assert (tmp_path / "shard-0000.json").read_text() == good


class TestLostUpdateWindow:
    def test_no_acknowledged_update_lost_across_crash(self):
        """The headline invariant, in miniature: every update synced to
        a follower survives crash + promotion; only the documented
        window (updates after the last sync) is lost."""
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        service.sync_replicas()
        synced = snapshot_service(service)["domains"]
        # Updates in the post-sync window: legitimately lost on crash.
        for name in NAMES:
            service.handle(name).update([2], True)
        service.crash_shard(0)
        ReplicaPromoter(service).promote(0)
        restored = snapshot_service(service)["domains"]
        for name in NAMES:
            assert restored[name]["model_state"]["weights"]["rows"] \
                == synced[name]["model_state"]["weights"]["rows"]
        # Writes resume on the promoted state.
        for name in NAMES:
            service.handle(name).update([3], False)

    def test_vdso_client_survives_crash_and_promotion(self):
        service = PredictionService(num_shards=1, num_replicas=1)
        populate(service)
        client = service.connect(NAMES[0], batch_size=1)
        client.update([1], True)
        service.sync_replicas()
        score_before = client.predict([1])

        service.crash_shard(0)
        # The open client reads through failover transparently...
        assert client.predict([1]) == score_before
        # ...and its writes are dropped on the shard-down fault.
        client.update([2], True)
        assert client.stats.transport_failures == 1

        ReplicaPromoter(service).promote(0)
        assert client.predict([1]) == score_before
        client.update([2], True)
