"""Tests for crash recovery via the checkpoint manager.

One service, one shard: its checkpoint is ``shard-0000.json`` plus the
manifest, and ``recover()`` counts the shard files it restored.
"""

import json

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.errors import PersistenceError
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel.checkpoint import (
    MANIFEST_NAME,
    ShardedCheckpointManager,
    shard_file_name,
)
from repro.core.persistence import snapshot_service

SHARD_FILE = shard_file_name(0)


def workload_step(service, i):
    service.update("hle", [i % 8, 1], i % 2 == 0)
    service.update("jit", [i % 4, 2, 3], i % 3 == 0)
    service.predict("hle", [i % 8, 1])


def fresh_service():
    service = PredictionService()
    service.create_domain("hle", config=PSSConfig(num_features=2))
    service.create_domain("jit", config=PSSConfig(num_features=3))
    return service


class TestCheckpointManager:
    def test_interval_validation(self, tmp_path):
        with pytest.raises(PersistenceError):
            ShardedCheckpointManager(fresh_service(), tmp_path, interval=0)

    def test_ticks_trigger_periodic_checkpoints(self, tmp_path):
        service = fresh_service()
        manager = ShardedCheckpointManager(service, tmp_path, interval=10)
        fired = []
        for i in range(35):
            workload_step(service, i)   # every boundary finds it dirty
            fired.append(manager.tick())
        assert sum(fired) == 3
        assert manager.checkpoints_written == 3
        assert (tmp_path / SHARD_FILE).exists()

    def test_bulk_ticks_do_not_skip_checkpoints(self, tmp_path):
        manager = ShardedCheckpointManager(fresh_service(), tmp_path,
                                           interval=10)
        assert manager.tick(count=25)
        assert manager.checkpoints_written == 1

    def test_recover_from_missing_file_is_clean_cold_start(self, tmp_path):
        manager = ShardedCheckpointManager(fresh_service(), tmp_path)
        assert manager.recover() == 0
        assert manager.corrupt_detected == 0
        assert manager.last_error is None

    def test_kill_and_recreate_mid_workload(self, tmp_path):
        service = fresh_service()
        manager = ShardedCheckpointManager(service, tmp_path, interval=50)
        for i in range(340):  # dies mid-interval: last checkpoint at 300
            workload_step(service, i)
            manager.tick()
        # The simulated crash: the service object is gone; a new one
        # recovers from the last on-disk checkpoint.
        at_checkpoint = snapshot_service(service)  # for reference only
        del service

        reborn = PredictionService()
        recovered = ShardedCheckpointManager(reborn, tmp_path, interval=50)
        assert recovered.recover() == 1
        assert reborn.domain_names() == ("hle", "jit")
        # Weights and stats match the checkpoint exactly... not the 40
        # post-checkpoint steps - those died with the process.
        restored = snapshot_service(reborn)
        assert restored != at_checkpoint
        assert restored == json.loads((tmp_path / SHARD_FILE).read_text())
        # ...and the reborn service keeps learning from where it was.
        for i in range(10):
            workload_step(reborn, i)

    def test_recover_preserves_every_domain_weight(self, tmp_path):
        service = fresh_service()
        for i in range(200):
            workload_step(service, i)
        ShardedCheckpointManager(service, tmp_path).checkpoint()

        reborn = PredictionService()
        assert ShardedCheckpointManager(reborn, tmp_path).recover() == 1
        for i in range(16):
            features = [i % 8, 1]
            assert reborn.predict("hle", features) == \
                service.predict("hle", features)
            features = [i % 4, 2, 3]
            assert reborn.predict("jit", features) == \
                service.predict("jit", features)

    def test_corrupt_checkpoint_detected_not_restored(self, tmp_path):
        service = fresh_service()
        for i in range(100):
            workload_step(service, i)
        ShardedCheckpointManager(service, tmp_path).checkpoint()
        # Bit-flip the payload on disk.
        path = tmp_path / SHARD_FILE
        text = path.read_text()
        middle = len(text) // 2
        flipped = chr(ord(text[middle]) ^ 0x2)
        path.write_text(text[:middle] + flipped + text[middle + 1:])

        reborn = PredictionService()
        reborn.create_domain("prior", config=PSSConfig(num_features=1))
        before = snapshot_service(reborn)
        manager = ShardedCheckpointManager(reborn, tmp_path)
        result = manager.recover()
        assert result == 0 and result.skipped == (SHARD_FILE,)
        assert manager.corrupt_detected == 1
        assert manager.last_error is not None
        # The service is untouched: it starts from scratch instead of
        # trusting corrupt weights.
        assert snapshot_service(reborn) == before

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        manager = ShardedCheckpointManager(fresh_service(), tmp_path,
                                           interval=1)
        manager.checkpoint()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [MANIFEST_NAME, SHARD_FILE]


class TestInjectedCorruption:
    def test_injector_corrupts_checkpoints_deterministically(self, tmp_path):
        def run(seed):
            directory = tmp_path / f"ckpt-{seed}"
            service = fresh_service()
            for i in range(100):
                workload_step(service, i)
            injector = FaultInjector(
                FaultPlan(seed=seed, corruption_rate=1.0)
            )
            ShardedCheckpointManager(service, directory,
                                     injector=injector).checkpoint()
            return (directory / SHARD_FILE).read_text()

        assert run(seed=0) == run(seed=0)

    def test_corrupted_write_is_caught_on_recover(self, tmp_path):
        service = fresh_service()
        for i in range(100):
            workload_step(service, i)
        injector = FaultInjector(FaultPlan(seed=1, corruption_rate=1.0))
        manager = ShardedCheckpointManager(service, tmp_path,
                                           injector=injector)
        manager.checkpoint()
        assert injector.stats.corrupted_snapshots == 1

        reborn = PredictionService()
        recovered = ShardedCheckpointManager(reborn, tmp_path)
        # The flip may hit JSON structure or payload; either way the
        # restore must refuse rather than adopt damaged weights.
        assert recovered.recover() == 0
        assert recovered.corrupt_detected == 1
        assert reborn.domain_names() == ()
