"""Tests for the PredictionService, domains, and client handles."""

import pytest

from repro.core import (
    ClientIdentity,
    DomainError,
    PredictionService,
    PSSConfig,
    ServiceConfig,
)


class TestDomainManagement:
    def test_create_and_lookup(self):
        s = PredictionService()
        s.create_domain("a", config=PSSConfig(num_features=3))
        assert s.has_domain("a")
        assert s.domain("a").config.num_features == 3

    def test_duplicate_create_raises(self):
        s = PredictionService()
        s.create_domain("a")
        with pytest.raises(DomainError):
            s.create_domain("a")

    def test_unknown_domain_raises(self):
        s = PredictionService()
        with pytest.raises(DomainError):
            s.domain("missing")

    def test_remove(self):
        s = PredictionService()
        s.create_domain("a")
        s.remove_domain("a")
        assert not s.has_domain("a")
        with pytest.raises(DomainError):
            s.remove_domain("a")

    def test_domain_names_sorted(self):
        s = PredictionService()
        for name in ("zeta", "alpha", "mid"):
            s.create_domain(name)
        assert s.domain_names() == ("alpha", "mid", "zeta")

    def test_max_domains_enforced(self):
        s = PredictionService(ServiceConfig(max_domains=2))
        s.create_domain("a")
        s.create_domain("b")
        with pytest.raises(DomainError):
            s.create_domain("c")

    def test_implicit_creation_via_connect(self):
        s = PredictionService()
        client = s.connect("auto", config=PSSConfig(num_features=1))
        assert s.has_domain("auto")
        assert client.predict([5]) == 0

    def test_implicit_creation_disabled(self):
        s = PredictionService(ServiceConfig(implicit_domains=False))
        with pytest.raises(DomainError):
            s.connect("auto")


class TestPaperSignatureAPI:
    """The three calls, on a domain's handle: predict / update / reset."""

    def test_predict_update_reset_cycle(self):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=2))
        h = s.handle("d")
        assert h.predict([1, 2]) == 0
        for _ in range(10):
            h.update([1, 2], True)
        assert h.predict([1, 2]) > 0
        h.reset([1, 2], reset_all=True)
        assert h.predict([1, 2]) == 0

    def test_selective_reset(self):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=1))
        h = s.handle("d")
        for _ in range(10):
            h.update([1], True)
            h.update([999], False)
        h.reset([1], reset_all=False)
        assert h.predict([999]) < 0


class TestClient:
    def test_predict_bool_uses_domain_threshold(self):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=1, threshold=5))
        c = s.connect("d")
        assert c.predict_bool([1]) is False  # score 0 < threshold 5

    def test_reward_penalize_shortcuts(self):
        s = PredictionService()
        c = s.connect("d", config=PSSConfig(num_features=1), batch_size=1)
        for _ in range(10):
            c.reward([4])
        assert c.predict([4]) > 0
        for _ in range(30):
            c.penalize([4])
        assert c.predict([4]) < 0

    def test_context_manager_flushes(self):
        s = PredictionService()
        with s.connect("d", config=PSSConfig(num_features=1),
                       batch_size=100) as c:
            c.reward([1])
            assert c.pending_updates == 1
        assert s.domain("d").stats.updates == 1

    def test_two_clients_share_learning(self):
        """The system-service advantage: state is shared across clients."""
        s = PredictionService()
        a = s.connect("shared", config=PSSConfig(num_features=1),
                      batch_size=1)
        b = s.connect("shared")
        for _ in range(10):
            a.reward([7])
        assert b.predict([7]) > 0

    def test_syscall_transport_selectable(self):
        s = PredictionService()
        c = s.connect("d", config=PSSConfig(num_features=1),
                      transport="syscall")
        c.predict([1])
        assert c.transport_name == "syscall"
        assert c.latency.syscalls == 1
        assert c.latency.vdso_calls == 0

    def test_default_batch_size_comes_from_domain_config(self):
        s = PredictionService()
        config = PSSConfig(num_features=1, update_batch_size=3)
        c = s.connect("d", config=config)
        c.reward([1])
        c.reward([1])
        assert c.pending_updates == 2
        c.reward([1])  # hits batch size 3 -> auto flush
        assert c.pending_updates == 0


class TestStatsAndReports:
    def test_stats_track_activity(self):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=1))
        h = s.handle("d")
        h.predict([1])
        h.update([1], True)
        h.update([1], False)
        h.reset([1], reset_all=False)
        stats = s.domain("d").stats
        assert stats.predictions == 1
        assert stats.updates == 2
        assert stats.rewards == 1
        assert stats.penalties == 1
        assert stats.resets == 1
        assert stats.reward_rate == 0.5

    def test_reports_sorted_and_complete(self):
        s = PredictionService()
        s.create_domain("b", model="majority")
        s.create_domain("a")
        reports = s.reports()
        assert [r.name for r in reports] == ["a", "b"]
        assert reports[1].model == "majority"


class TestAlternativeModels:
    @pytest.mark.parametrize("model", [
        "perceptron", "linear", "naive-bayes", "stumps", "majority",
    ])
    def test_all_builtin_models_learn_a_constant_direction(self, model):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=2), model=model)
        h = s.handle("d")
        for _ in range(40):
            h.update([5, 6], True)
        assert h.predict([5, 6]) > 0

    @pytest.mark.parametrize("model", ["always-true", "always-false"])
    def test_constant_models(self, model):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=1), model=model)
        score = s.handle("d").predict([1])
        assert (score > 0) == (model == "always-true")

    def test_unknown_model_raises(self):
        from repro.core.errors import ModelError
        s = PredictionService()
        with pytest.raises(ModelError):
            s.create_domain("d", model="oracle")


class TestWeightGeneration:
    def test_starts_at_zero_and_bumps_on_mutation(self):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=2))
        domain, h = s.domain("d"), s.handle("d")
        assert domain.generation == 0
        h.predict([1, 2])
        assert domain.generation == 0  # reads never bump
        h.update([1, 2], True)
        generation_after_update = domain.generation
        assert generation_after_update > 0
        h.reset([1, 2], reset_all=True)
        assert domain.generation > generation_after_update

    def test_margin_skipped_update_does_not_bump(self):
        # The perceptron discards feedback once confident past the
        # margin; discarded feedback must not invalidate score caches.
        config = PSSConfig(num_features=2, training_margin=0)
        s = PredictionService()
        s.create_domain("d", config=config)
        domain, h = s.domain("d"), s.handle("d")
        for _ in range(10):
            h.update([1, 2], True)
        settled = domain.generation
        h.update([1, 2], True)  # agreed, |score| > margin: skipped
        assert domain.generation == settled

    def test_models_without_counter_bump_per_feedback(self):
        s = PredictionService()
        s.create_domain("d", config=PSSConfig(num_features=2),
                        model="majority")
        domain, h = s.domain("d"), s.handle("d")
        h.update([1, 2], True)
        h.update([1, 2], True)
        assert domain.generation == 2

    def test_handle_exposes_generation(self):
        s = PredictionService()
        handle = s.handle("d", config=PSSConfig(num_features=2))
        assert handle.generation == 0
        handle.update([1, 2], True)
        assert handle.generation == s.domain("d").generation


class TestFastPathReport:
    def test_report_carries_cache_and_generation_counters(self):
        s = PredictionService()
        client = s.connect("d", config=PSSConfig(num_features=2),
                           transport="vdso")
        for _ in range(10):
            client.predict([1, 2])
        report = s.domain("d").report()
        assert report.generation == 0
        # One model evaluation; nine cache-served predictions.
        assert report.stats.predictions == 10
        assert report.stats.cached_predictions == 9
        assert report.cached_prediction_rate == pytest.approx(0.9)
        assert report.index_cache_misses == 1

    def test_cached_predictions_survive_snapshot_round_trip(self):
        import dataclasses
        from repro.core.stats import PredictionStats
        stats = PredictionStats()
        stats.record_cached_prediction(5, 0)
        restored = PredictionStats(**dataclasses.asdict(stats))
        assert restored.cached_predictions == 1
        assert restored.predictions == 1
