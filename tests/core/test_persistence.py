"""Tests for snapshot/restore (cross-invocation learning)."""

import json

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.errors import PersistenceError
from repro.core.persistence import (
    load_service,
    restore_service,
    save_service,
    snapshot_service,
)


def trained_service():
    s = PredictionService()
    s.create_domain("hle", config=PSSConfig(num_features=2))
    s.create_domain("jit", config=PSSConfig(num_features=3),
                    model="naive-bayes")
    for _ in range(20):
        s.handle("hle").update([3, 4], True)
        s.handle("jit").update([1, 2, 3], False)
    return s


class TestSnapshotRoundTrip:
    def test_predictions_survive_round_trip(self):
        s = trained_service()
        snapshot = snapshot_service(s)
        fresh = PredictionService()
        restore_service(fresh, snapshot)
        for name, row in (("hle", [3, 4]), ("jit", [1, 2, 3])):
            assert fresh.handle(name).predict(row) \
                == s.handle(name).predict(row)

    def test_config_and_model_name_restored(self):
        s = trained_service()
        fresh = PredictionService()
        restore_service(fresh, snapshot_service(s))
        assert fresh.domain("jit").model_name == "naive-bayes"
        assert fresh.domain("jit").config.num_features == 3

    def test_stats_restored_when_included(self):
        s = trained_service()
        fresh = PredictionService()
        restore_service(fresh, snapshot_service(s, include_stats=True))
        assert fresh.domain("hle").stats.updates == 20

    def test_stats_omitted_when_excluded(self):
        s = trained_service()
        fresh = PredictionService()
        restore_service(fresh, snapshot_service(s, include_stats=False))
        assert fresh.domain("hle").stats.updates == 0

    def test_snapshot_is_json_serializable(self):
        snapshot = snapshot_service(trained_service())
        text = json.dumps(snapshot)
        assert json.loads(text) == snapshot

    def test_restore_replaces_existing_domain(self):
        s = trained_service()
        snapshot = snapshot_service(s)
        target = PredictionService()
        target.create_domain("hle", config=PSSConfig(num_features=2))
        for _ in range(50):
            target.handle("hle").update([3, 4], False)
        restore_service(target, snapshot)
        assert target.handle("hle").predict([3, 4]) > 0  # trained positive


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        s = trained_service()
        path = tmp_path / "pss.json"
        save_service(s, path)
        fresh = PredictionService()
        load_service(fresh, path)
        assert fresh.handle("hle").predict([3, 4]) > 0

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_service(PredictionService(), tmp_path / "missing.json")

    def test_load_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError):
            load_service(PredictionService(), path)


class TestSnapshotValidation:
    def test_wrong_version_rejected(self):
        with pytest.raises(PersistenceError):
            restore_service(
                PredictionService(), {"version": 99, "domains": {}}
            )

    def test_missing_keys_rejected(self):
        snapshot = {"version": 1, "domains": {"d": {"config": {}}}}
        with pytest.raises(PersistenceError):
            restore_service(PredictionService(), snapshot)

    def test_malformed_config_rejected(self):
        snapshot = {
            "version": 1,
            "domains": {
                "d": {
                    "config": {"num_features": 99},
                    "model_name": "perceptron",
                    "model_state": {},
                }
            },
        }
        with pytest.raises(PersistenceError):
            restore_service(PredictionService(), snapshot)


class TestCrossInvocationLearning:
    def test_second_invocation_starts_warm(self, tmp_path):
        """The Figure 6 pattern: run N+1 inherits run N's weights."""
        path = tmp_path / "state.json"

        # Run 1: cold start, learn that [8, 9] should be True.
        run1 = PredictionService()
        run1.create_domain("d", config=PSSConfig(num_features=2))
        assert run1.handle("d").predict([8, 9]) == 0  # cold
        for _ in range(15):
            run1.handle("d").update([8, 9], True)
        save_service(run1, path)

        # Run 2: a fresh process restores and is immediately warm.
        run2 = PredictionService()
        load_service(run2, path)
        assert run2.handle("d").predict([8, 9]) > 0


class TestCorruptionDetection:
    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        save_service(trained_service(), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(PersistenceError):
            load_service(PredictionService(), path)

    def test_bit_flip_in_payload_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        save_service(trained_service(), path)
        snapshot = json.loads(path.read_text())
        # Flip one weight inside the domain payload: the JSON still
        # parses, only the checksum can tell.
        rows = snapshot["domains"]["hle"]["model_state"]["weights"]["rows"]
        rows[0][0] += 1
        path.write_text(json.dumps(snapshot))
        with pytest.raises(PersistenceError, match="checksum"):
            load_service(PredictionService(), path)

    def test_garbage_bytes_rejected_as_persistence_error(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(PersistenceError):
            load_service(PredictionService(), path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        save_service(trained_service(), path)
        snapshot = json.loads(path.read_text())
        snapshot["version"] = 99
        path.write_text(json.dumps(snapshot))
        with pytest.raises(PersistenceError, match="version"):
            load_service(PredictionService(), path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError):
            load_service(PredictionService(), path)

    def test_legacy_snapshot_without_checksum_still_loads(self):
        s = trained_service()
        snapshot = snapshot_service(s)
        del snapshot["checksum"]
        fresh = PredictionService()
        restore_service(fresh, snapshot)
        assert fresh.handle("hle").predict([3, 4]) \
            == s.handle("hle").predict([3, 4])


class TestAtomicRestore:
    def prior_service(self):
        s = PredictionService()
        s.create_domain("hle", config=PSSConfig(num_features=2))
        for _ in range(10):
            s.handle("hle").update([1, 2], True)
        return s

    def test_failed_restore_leaves_prior_state(self):
        prior = self.prior_service()
        before = snapshot_service(prior)
        bad = snapshot_service(trained_service())
        # Corrupt the *second* domain so a non-atomic restore would
        # already have replaced the first before noticing.  Drop the
        # checksum so the staging logic (not the checksum) is what saves
        # us.
        bad["domains"]["jit"]["model_name"] = "no-such-model"
        del bad["checksum"]
        with pytest.raises(PersistenceError):
            restore_service(prior, bad)
        assert snapshot_service(prior) == before

    def test_checksum_failure_leaves_prior_state(self):
        prior = self.prior_service()
        before = snapshot_service(prior)
        bad = snapshot_service(trained_service())
        bad["checksum"] = (bad["checksum"] + 1) % 2**32
        with pytest.raises(PersistenceError):
            restore_service(prior, bad)
        assert snapshot_service(prior) == before
