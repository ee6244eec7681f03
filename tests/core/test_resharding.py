"""Live resharding: incremental slot handoff under traffic.

The migration contract: the service is never paused (traffic
interleaves with ``step()``), routing is consistent at every point,
and scores are bit-identical to a service that never resharded -
the *same* domain objects move, so there is nothing to drift.
"""

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.errors import DomainError
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel.checkpoint import ShardedCheckpointManager
from repro.core.kernel.replica import ReplicaPromoter
from repro.core.persistence import snapshot_service
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import MetricsRegistry, Tracer
from tests.obs.shard_labels import mixed_label_spans

CONFIG = PSSConfig(num_features=1)

NAMES = [f"domain-{i}" for i in range(12)]


def populate(service, updates=3):
    for name in NAMES:
        service.create_domain(name, config=CONFIG)
        for i in range(updates):
            service.handle(name).update([i], bool(i % 2))


def traffic(service, round_index):
    for offset, name in enumerate(NAMES):
        feature = (round_index + offset) % 5
        service.handle(name).update([feature], offset % 2 == 0)
        service.handle(name).predict([feature])


class TestFullReshard:
    def test_grow_preserves_state_and_routing(self):
        service = PredictionService(num_shards=2)
        populate(service)
        before = snapshot_service(service)["domains"]
        report = service.reshard(4)
        assert service.num_shards == 4
        assert report.new_shard_count == 4
        assert report.moved_slots > 0
        assert snapshot_service(service)["domains"] == before
        for name in NAMES:
            domain = service.domain(name)
            assert domain.shard_id == service.shard_of(name)
            assert domain.shard_label == str(domain.shard_id)

    def test_shrink_truncates_doomed_shards(self):
        service = PredictionService(num_shards=4)
        populate(service)
        before = snapshot_service(service)["domains"]
        service.reshard(2)
        assert service.num_shards == 2
        assert len(service.shards) == 2
        assert snapshot_service(service)["domains"] == before
        for name in NAMES:
            assert service.domain(name).shard_id == service.shard_of(name)

    def test_slots_sum_to_ring_after_reshard(self):
        service = PredictionService(num_shards=2)
        populate(service)
        service.reshard(3)
        summaries = service.shard_summaries()
        assert sum(s["slots"] for s in summaries) == service.ring.num_slots
        assert all(s["slots"] > 0 for s in summaries)

    def test_noop_reshard_moves_nothing(self):
        service = PredictionService(num_shards=3)
        populate(service)
        report = service.reshard(3)
        assert report.moved_slots == 0
        assert report.moved_domains == 0


class TestLiveMigration:
    def test_interleaved_traffic_is_bit_identical(self):
        baseline = PredictionService(num_shards=2)
        live = PredictionService(num_shards=2)
        populate(baseline)
        populate(live)
        migrator = live.begin_reshard(4)
        round_index = 0
        while not migrator.done:
            # One slot handoff, then a full round of live traffic on
            # both services - the migrating one must not diverge.
            migrator.step()
            traffic(baseline, round_index)
            traffic(live, round_index)
            round_index += 1
        assert live.num_shards == 4
        assert snapshot_service(live)["domains"] \
            == snapshot_service(baseline)["domains"]
        scores = [
            (baseline.handle(name).predict([0]),
             live.handle(name).predict([0]))
            for name in NAMES
        ]
        assert all(a == b for a, b in scores)

    def test_handles_stay_valid_across_migration(self):
        service = PredictionService(num_shards=2)
        populate(service)
        handle = service.handle(NAMES[0])
        before = handle.predict([1])
        service.reshard(4)
        # The same domain object moved shards; the open handle still
        # reaches it and sees identical state.
        assert handle.predict([1]) == before
        handle.update([1], True)
        assert service.domain(NAMES[0]).stats.updates > 0

    def test_concurrent_reshard_refused(self):
        service = PredictionService(num_shards=2)
        populate(service)
        service.begin_reshard(4)
        with pytest.raises(DomainError):
            service.begin_reshard(3)

    def test_next_reshard_allowed_once_done(self):
        service = PredictionService(num_shards=2)
        populate(service)
        migrator = service.begin_reshard(4)
        while not migrator.done:
            migrator.step()
        service.reshard(3)
        assert service.num_shards == 3

    def test_injected_stalls_retry_until_done(self):
        service = PredictionService(num_shards=2)
        populate(service)
        injector = FaultInjector(
            FaultPlan(seed=7, migration_stall_rate=0.5)
        )
        migrator = service.begin_reshard(4, injector=injector)
        steps = 0
        while not migrator.done:
            migrator.step()
            steps += 1
            assert steps < 1000
        assert migrator.stalls > 0
        assert injector.stats.migration_stalls == migrator.stalls
        report = migrator.report()
        assert report.stalls == migrator.stalls
        assert report.moved_slots == steps - migrator.stalls

    def test_stall_on_down_shard_until_promotion(self):
        service = PredictionService(num_shards=2, num_replicas=1)
        populate(service)
        service.sync_replicas()
        service.crash_shard(0)
        migrator = service.begin_reshard(4)
        pending = migrator.pending_slots
        for _ in range(3):
            # Every step stalls while a migration endpoint is down.
            assert not migrator.step()
        assert migrator.stalls >= 1
        assert migrator.pending_slots <= pending
        ReplicaPromoter(service).promote(0)
        while not migrator.step():
            pass
        assert service.num_shards == 4
        for name in NAMES:
            assert service.domain(name).shard_id == service.shard_of(name)

    def test_reshard_refused_while_shard_down(self):
        service = PredictionService(num_shards=2, num_replicas=1)
        populate(service)
        service.sync_replicas()
        service.crash_shard(1)
        with pytest.raises(DomainError):
            service.reshard(4)


class TestCheckpointAcrossReshard:
    def test_manager_follows_live_topology(self, tmp_path):
        service = PredictionService(num_shards=2)
        populate(service)
        manager = ShardedCheckpointManager(service, tmp_path)
        manager.checkpoint()
        service.reshard(4)
        traffic(service, 0)
        # Post-reshard checkpoint covers grown shards and the new
        # manifest records the new topology.
        manager.checkpoint()
        manifest = manager.read_manifest()
        assert manifest["num_shards"] == 4

        restored = PredictionService(num_shards=4)
        result = ShardedCheckpointManager(restored, tmp_path).recover()
        assert result.skipped == ()
        assert snapshot_service(restored)["domains"] \
            == snapshot_service(service)["domains"]

    def test_recovery_into_different_shard_count(self, tmp_path):
        service = PredictionService(num_shards=2)
        populate(service)
        service.reshard(3)
        ShardedCheckpointManager(service, tmp_path).checkpoint()

        restored = PredictionService(num_shards=5)
        ShardedCheckpointManager(restored, tmp_path).recover()
        assert snapshot_service(restored)["domains"] \
            == snapshot_service(service)["domains"]
        for name in NAMES:
            assert restored.domain(name).shard_id \
                == restored.shard_of(name)


# -- placement is one fact: whatever was opened before a reshard files
# -- under the shard that hosts its domain now -------------------------

#: how the i-th domain's client, opened before any reshard, connects
CLIENT_KINDS = (
    {"transport": "vdso", "batch_size": 2},
    {"transport": "syscall"},
)
#: emitters that act for one shard: a record of theirs about a hosted
#: domain always names it (client-side kinds - retry, fallback, the
#: breaker - happen in the application and name none)
SHARD_SIDE = {"vdso", "syscall", "kernel", "serving", "replica"}


class OpenStack:
    """A watched service with a client per domain and a pipeline, all
    opened up front, and one round of traffic through all of them."""

    def __init__(self, num_shards, names=NAMES[:6]):
        self.names = names
        self.tracer, self.metrics = Tracer(), MetricsRegistry()
        self.service = PredictionService(
            num_shards=num_shards, tracer=self.tracer,
            metrics=self.metrics)
        self.clients = [
            self.service.connect(name, config=CONFIG,
                                 **CLIENT_KINDS[i % len(CLIENT_KINDS)])
            for i, name in enumerate(names)
        ]
        self.pipeline = ServingPipeline(self.service, ServingConfig())

    def round(self, index):
        """Reads, writes (flushed), a batch and a served request per
        domain; returns every score."""
        scores = []
        for offset, (name, client) in enumerate(
                zip(self.names, self.clients)):
            row = [(index + offset) % 5]
            scores.append(client.predict(row))
            client.update(row, offset % 2 == 0)
            client.update([index % 3], True)    # fills the buffer of 2
            scores.extend(client.predict_batch([row, [index % 3]]))
            served = self.pipeline.submit(name, row)
            self.pipeline.submit(name, row, op="update", direction=True)
            self.pipeline.run()
            scores.append(served.result())
        return scores

    def series(self):
        """Every counter / histogram series and how much it holds."""
        held = {key: counter.value
                for key, counter in self.metrics.counters()}
        held.update((key, histogram.count)
                    for key, histogram in self.metrics.histograms())
        return held


def assert_filed_under_current_owners(stack, before):
    """Everything ``stack`` emitted since ``before`` (its ``series()``
    then; the tracer was cleared then) names the shard hosting its
    domain now."""
    service = stack.service
    owner = {name: str(service.shard_of(name)) for name in stack.names}
    for record in (*stack.tracer.events(), *stack.tracer.spans()):
        if record.domain not in owner:
            continue
        if record.shard or record.transport in SHARD_SIDE:
            assert record.shard == owner[record.domain], record
    assert mixed_label_spans(
        [span.as_dict() for span in stack.tracer.spans()]) == []
    for key, held in stack.series().items():
        labels = dict(key[1])
        if before.get(key) == held or "shard" not in labels:
            continue
        if "domain" in labels:
            assert labels["shard"] == owner[labels["domain"]], key
        else:   # a lane's own series: some hosted domain's shard
            assert labels["shard"] in owner.values(), key


class TestPlacementIsOneFact:
    def test_a_migrated_domains_open_clients_emit_under_its_new_shard(
            self):
        """The 2 -> 3 reshard of the issue, spelled out: the domains
        that moved file events, transport spans and metric series under
        the shard they moved to."""
        stack = OpenStack(2, NAMES)
        stack.round(0)
        was = {name: stack.service.shard_of(name) for name in NAMES}
        stack.service.reshard(3)
        moved = [name for name in NAMES
                 if stack.service.shard_of(name) != was[name]]
        assert moved
        stack.tracer.clear()
        before = stack.series()
        stack.round(1)
        assert_filed_under_current_owners(stack, before)
        for name in moved:
            labels = {e.shard for e in stack.tracer.events()
                      if e.domain == name and e.transport in SHARD_SIDE}
            assert labels == {str(stack.service.shard_of(name))}
