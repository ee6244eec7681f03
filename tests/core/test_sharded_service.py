"""The sharded kernel: routing, per-shard accounting, and checkpoints."""

import json

import pytest

from repro.core import (
    AdmissionController,
    ClientIdentity,
    ConfigError,
    PredictionService,
    PSSConfig,
    TenantQuota,
)
from repro.core.errors import DomainError
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel import SlotRing
from repro.core.kernel.checkpoint import (
    ShardedCheckpointManager,
    shard_file_name,
)
from repro.core.persistence import snapshot_service
from repro.obs import Tracer

CONFIG = PSSConfig(num_features=1)

NAMES = [f"domain-{i}" for i in range(16)]


def populate(service, names=NAMES, updates=0):
    for name in names:
        service.create_domain(name, config=CONFIG)
        for i in range(updates):
            service.handle(name).update([i], True)


class TestShardRouter:
    """Routing a name to its shard: ``SlotRing.shard_of``, which is
    all ``ShardedService.shard_of`` is."""

    def test_rejects_nonpositive_shard_counts(self):
        for bad in (0, -1):
            with pytest.raises(ConfigError):
                SlotRing(bad)
            with pytest.raises(ConfigError):
                PredictionService(num_shards=bad)

    def test_single_shard_routes_everything_to_zero(self):
        ring = SlotRing(1)
        assert {ring.shard_of(name) for name in NAMES} == {0}
        service = PredictionService()
        assert {service.shard_of(name) for name in NAMES} == {0}

    def test_placement_is_stable_and_in_range(self):
        service = PredictionService(num_shards=4)
        first = [service.shard_of(name) for name in NAMES]
        assert first == [SlotRing(4).shard_of(name) for name in NAMES]
        assert all(0 <= shard < 4 for shard in first)
        # 16 names over 4 shards should not all collapse onto one.
        assert len(set(first)) > 1


class TestShardedServiceTopology:
    def test_domains_land_on_their_routed_shard(self):
        service = PredictionService(num_shards=4)
        populate(service)
        for name in NAMES:
            domain = service.domain(name)
            assert domain.shard_id == service.shard_of(name)
            assert name in service.shard(domain.shard_id)
            assert domain.shard_label == str(domain.shard_id)

    def test_unknown_shard_raises(self):
        service = PredictionService(num_shards=2)
        with pytest.raises(DomainError):
            service.shard(2)

    def test_remove_domain_releases_admission_quota(self):
        admission = AdmissionController()
        tenant = ClientIdentity(uid=1, program="t")
        admission.set_quota(tenant, TenantQuota(max_domains=1))
        service = PredictionService(num_shards=4, admission=admission)
        service.handle("a", identity=tenant, config=CONFIG)
        service.remove_domain("a")
        assert admission.usage_for(tenant).domains == 0
        service.handle("b", identity=tenant, config=CONFIG)

    def test_shard_summaries_shape_and_totals(self):
        service = PredictionService(num_shards=4)
        populate(service, updates=2)
        for name in NAMES:
            service.handle(name).predict([1])
        summaries = service.shard_summaries()
        assert [s["shard"] for s in summaries] == [0, 1, 2, 3]
        assert sum(s["domains"] for s in summaries) == len(NAMES)
        assert sum(s["predictions"] for s in summaries) == len(NAMES)
        assert sum(s["updates"] for s in summaries) == 2 * len(NAMES)
        for summary in summaries:
            assert summary["domains"] == len(summary["domain_names"])

    def test_reports_carry_shard_ids(self):
        service = PredictionService(num_shards=4)
        populate(service)
        for report in service.reports():
            assert report.shard == service.shard_of(report.name)


class TestShardedCheckpoints:
    def trained_service(self, num_shards=4):
        service = PredictionService(num_shards=num_shards)
        populate(service, updates=3)
        return service

    def test_round_trip(self, tmp_path):
        source = self.trained_service()
        ShardedCheckpointManager(source, tmp_path).checkpoint()
        assert (tmp_path / "manifest.json").exists()

        restored = PredictionService(num_shards=4)
        count = ShardedCheckpointManager(restored, tmp_path).recover()
        assert count == len([
            s for s in source.shard_summaries() if s["domains"]
        ])
        assert snapshot_service(restored)["domains"] \
            == snapshot_service(source)["domains"]

    def test_recover_from_empty_directory_is_cold_start(self, tmp_path):
        service = PredictionService(num_shards=4)
        manager = ShardedCheckpointManager(service, tmp_path)
        assert manager.recover() == 0
        assert service.domain_names() == ()

    def test_corrupt_shard_file_costs_only_that_shard(self, tmp_path):
        source = self.trained_service()
        ShardedCheckpointManager(source, tmp_path).checkpoint()
        occupied = [s["shard"] for s in source.shard_summaries()
                    if s["domains"]]
        victim = occupied[0]
        path = tmp_path / shard_file_name(victim)
        path.write_text(path.read_text()[:-20] + "garbage")

        restored = PredictionService(num_shards=4)
        manager = ShardedCheckpointManager(restored, tmp_path)
        assert manager.recover() == len(occupied) - 1
        assert manager.corrupt_detected == 1
        assert manager.last_error
        lost = set(source.shard(victim).domain_names())
        assert set(restored.domain_names()) == set(NAMES) - lost

    def test_recovery_result_names_skipped_shards(self, tmp_path):
        source = self.trained_service()
        ShardedCheckpointManager(source, tmp_path).checkpoint()
        occupied = [s["shard"] for s in source.shard_summaries()
                    if s["domains"]]
        victim = occupied[0]
        path = tmp_path / shard_file_name(victim)
        path.write_text(path.read_text()[:-20] + "garbage")

        restored = PredictionService(num_shards=4)
        result = ShardedCheckpointManager(restored, tmp_path).recover()
        # Still an int for existing callers...
        assert result == len(occupied) - 1
        assert result.restored == len(occupied) - 1
        # ...but the lost shard is named, never silently dropped.
        assert result.skipped == (shard_file_name(victim),)
        assert len(result.errors) == 1
        assert shard_file_name(victim) in result.errors[0] \
            or "checksum" in result.errors[0]

    def test_skipped_shard_emits_corrupt_trace(self, tmp_path):
        source = self.trained_service()
        ShardedCheckpointManager(source, tmp_path).checkpoint()
        occupied = [s["shard"] for s in source.shard_summaries()
                    if s["domains"]]
        victim = occupied[0]
        (tmp_path / shard_file_name(victim)).unlink()

        tracer = Tracer()
        restored = PredictionService(num_shards=4, tracer=tracer)
        result = ShardedCheckpointManager(restored, tmp_path).recover()
        assert result.skipped == (shard_file_name(victim),)
        corrupt = [e for e in tracer.events()
                   if e.kind == "checkpoint.corrupt"]
        assert len(corrupt) == 1
        (event,) = corrupt
        assert event.shard == str(victim)
        assert event.detail["file"] == shard_file_name(victim)
        assert "missing" in event.detail["reason"]

    @pytest.mark.parametrize("damage", [
        "shard file byte", "manifest byte", "entry without file",
        "shards not a table", "corrupted on write"])
    def test_damage_is_a_recorded_skip(self, tmp_path, damage):
        """Each of the first four raised out of ``recover()``
        (UnicodeDecodeError twice, KeyError, AttributeError) where the
        one-file manager returns False; a file corrupted on its way to
        disk (its manifest CRC vouches for the damaged bytes, so only
        the snapshot's own checks see it) was traced as two skips.  A
        damaged shard costs that shard, a damaged manifest restores
        nothing, and either is counted, traced and named once."""
        source = self.trained_service()
        written = damage == "corrupted on write"
        ShardedCheckpointManager(
            source, tmp_path,
            injector=FaultInjector(FaultPlan(corruption_rate=1.0))
            if written else None).checkpoint()
        occupied = [s["shard"] for s in source.shard_summaries()
                    if s["domains"]]
        victim = shard_file_name(occupied[0])
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if damage == "entry without file":
            del manifest["shards"][str(occupied[0])]["file"]
            victim = f"shard {occupied[0]}"
        elif damage == "shards not a table":
            manifest["shards"] = []
        manifest_path.write_text(json.dumps(manifest))
        if damage.endswith("byte"):
            path = tmp_path / (victim if damage == "shard file byte"
                               else "manifest.json")
            data = bytearray(path.read_bytes())
            data[len(data) // 2] = 0xFF
            path.write_bytes(data)

        tracer = Tracer()
        restored = PredictionService(num_shards=4, tracer=tracer)
        manager = ShardedCheckpointManager(restored, tmp_path)
        result = manager.recover()
        lost_manifest = damage in ("manifest byte", "shards not a table")
        if lost_manifest:
            assert result == 0 and result.skipped == ("manifest.json",)
            assert restored.domain_names() == ()
        elif written:
            assert result == 0
            assert result.skipped == tuple(map(shard_file_name, occupied))
            assert restored.domain_names() == ()
        else:
            assert result == len(occupied) - 1
            assert result.skipped == (victim,)
            lost = set(source.shard(occupied[0]).domain_names())
            assert set(restored.domain_names()) == set(NAMES) - lost
        assert manager.corrupt_detected == len(result.skipped)
        assert manager.last_error == result.errors[-1]
        corrupt = [event.detail["file"] for event in tracer.events()
                   if event.kind == "checkpoint.corrupt"]
        assert corrupt == list(result.skipped)
        restores = [(event.shard, event.detail) for event in tracer.events()
                    if event.kind == "checkpoint_restore"]
        assert len(restores) == result.restored
        assert all(shard and detail == {"ok": True}
                   for shard, detail in restores)

    def test_clean_recovery_skips_nothing(self, tmp_path):
        source = self.trained_service()
        ShardedCheckpointManager(source, tmp_path).checkpoint()
        restored = PredictionService(num_shards=4)
        result = ShardedCheckpointManager(restored, tmp_path).recover()
        assert result.skipped == ()
        assert result.errors == ()

    def test_dirty_signature_gates_rewrites(self, tmp_path):
        source = self.trained_service()
        manager = ShardedCheckpointManager(source, tmp_path)
        first = manager.checkpoint()
        assert first == len([
            s for s in source.shard_summaries() if s["domains"]
        ])
        # Nothing moved: every shard is clean.
        assert manager.checkpoint() == 0
        # Touch one domain: only its shard is rewritten.
        source.handle(NAMES[0]).update([9], False)
        assert manager.checkpoint() == 1

    def test_tick_checkpoints_on_interval_boundaries(self, tmp_path):
        source = self.trained_service()
        manager = ShardedCheckpointManager(source, tmp_path, interval=10)
        assert not manager.tick(9)
        assert manager.tick(1)
        assert manager.checkpoints_written > 0

    def test_recovery_across_shard_count_change(self, tmp_path):
        source = self.trained_service(num_shards=8)
        ShardedCheckpointManager(source, tmp_path).checkpoint()

        restored = PredictionService(num_shards=2)
        ShardedCheckpointManager(restored, tmp_path).recover()
        assert snapshot_service(restored)["domains"] \
            == snapshot_service(source)["domains"]
        # Restored domains sit where the 2-shard router says, not where
        # the 8-shard manifest wrote them.
        for name in NAMES:
            assert restored.domain(name).shard_id == restored.shard_of(name)

    def test_manifest_records_topology(self, tmp_path):
        source = self.trained_service()
        ShardedCheckpointManager(source, tmp_path).checkpoint()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"] == 1
        assert manifest["num_shards"] == 4
        for shard_id, entry in manifest["shards"].items():
            assert entry["domains"] == len(source.shard(int(shard_id)))
