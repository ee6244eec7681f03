"""Tests for prediction and latency accounting."""

from dataclasses import fields

import pytest

from repro.core.stats import (
    DomainReport,
    LatencyAccount,
    PredictionStats,
    ResilienceStats,
)


class TestPredictionStats:
    def test_prediction_counting_respects_threshold(self):
        stats = PredictionStats()
        stats.record_prediction(5, threshold=0)
        stats.record_prediction(-3, threshold=0)
        stats.record_prediction(0, threshold=0)  # ties are positive
        assert stats.predictions == 3
        assert stats.positive_predictions == 2
        assert stats.negative_predictions == 1

    def test_a_batch_counts_like_its_rows(self):
        batch, rows = PredictionStats(), PredictionStats()
        scores = [5, -3, 0, 2, -1]
        batch.record_predictions(scores, threshold=2)
        batch.record_predictions([], threshold=2)
        for score in scores:
            rows.record_prediction(score, threshold=2)
        assert batch == rows
        assert (batch.predictions, batch.positive_predictions) == (5, 2)

    def test_update_counting(self):
        stats = PredictionStats()
        for direction in (True, True, False):
            stats.record_update(direction)
        assert stats.updates == 3
        assert stats.rewards == 2
        assert stats.penalties == 1
        assert stats.reward_rate == pytest.approx(2 / 3)

    def test_reward_rate_empty(self):
        assert PredictionStats().reward_rate == 0.0

    def test_merge(self):
        a = PredictionStats(predictions=3, positive_predictions=2,
                            updates=4, rewards=1, penalties=3, resets=1)
        b = PredictionStats(predictions=1, positive_predictions=1,
                            updates=2, rewards=2, penalties=0, resets=0)
        a.merge(b)
        assert a.predictions == 4
        assert a.rewards == 3
        assert a.resets == 1


class TestLatencyAccount:
    def test_charges_accumulate(self):
        account = LatencyAccount()
        account.charge_vdso(4.19)
        account.charge_vdso(4.19)
        account.charge_syscall(68.0, records=5)
        assert account.vdso_calls == 2
        assert account.syscalls == 1
        assert account.update_records == 5
        assert account.total_ns == pytest.approx(8.38 + 68.0)

    @pytest.mark.parametrize("watched", [False, True])
    def test_vdso_predict_charge_is_the_pair_it_replaces(self, watched):
        from repro.obs import MetricsRegistry

        fused, paired = LatencyAccount(), LatencyAccount()
        registries = [MetricsRegistry(), MetricsRegistry()]
        if watched:
            for account, registry in zip((fused, paired), registries):
                account.attach_metrics(registry, domain="d",
                                       transport="vdso")
        for ns in (4.19, 4.19, 0.1, 7.0):
            fused.charge_vdso_predict(ns)
            paired.charge_vdso(ns)
            paired.charge_op("predict", ns)
        assert fused.snapshot() == paired.snapshot()
        assert registries[0].snapshot() == registries[1].snapshot()

    def test_means(self):
        account = LatencyAccount()
        assert account.mean_vdso_ns == 0.0
        assert account.mean_syscall_ns == 0.0
        account.charge_vdso(4.0)
        account.charge_vdso(6.0)
        assert account.mean_vdso_ns == pytest.approx(5.0)

    def test_snapshot_keys(self):
        snap = LatencyAccount().snapshot()
        assert set(snap) == {
            "vdso_ns", "syscall_ns", "total_ns", "vdso_calls",
            "syscalls", "update_records",
            "cache_hits", "cache_misses", "cache_hit_rate", "ops",
        }

    def test_op_aggregates(self):
        account = LatencyAccount()
        account.charge_op("predict", 4.0)
        account.charge_op("predict", 6.0)
        account.charge_op("flush", 100.0)
        assert account.mean_op_ns("predict") == pytest.approx(5.0)
        assert account.mean_op_ns("flush") == pytest.approx(100.0)
        assert account.mean_op_ns("reset") == 0.0
        snap = account.snapshot()
        assert snap["ops"]["predict"] == {"calls": 2, "ns": 10.0}

    def test_cache_counters(self):
        account = LatencyAccount()
        assert account.cache_hit_rate == 0.0
        account.record_cache_hit()
        account.record_cache_hit()
        account.record_cache_miss()
        assert account.cache_hits == 2
        assert account.cache_misses == 1
        assert account.cache_hit_rate == pytest.approx(2 / 3)

    def test_merge(self):
        a = LatencyAccount()
        a.charge_vdso(4.0)
        a.charge_op("predict", 4.0)
        a.record_cache_hit()
        b = LatencyAccount()
        b.charge_vdso(6.0)
        b.charge_syscall(68.0, records=3)
        b.charge_op("predict", 6.0)
        b.charge_op("flush", 68.0)
        b.record_cache_miss()
        a.merge(b)
        assert a.vdso_calls == 2
        assert a.mean_vdso_ns == pytest.approx(5.0)
        assert a.syscalls == 1
        assert a.update_records == 3
        assert a.cache_hits == 1 and a.cache_misses == 1
        assert a.op_calls["predict"] == 2
        assert a.mean_op_ns("predict") == pytest.approx(5.0)
        assert a.op_calls["flush"] == 1

    def test_merge_with_empty_is_identity(self):
        a = LatencyAccount()
        a.charge_vdso(4.19)
        before = a.snapshot()
        a.merge(LatencyAccount())
        assert a.snapshot() == before


class TestResilienceStats:
    def test_any_activity(self):
        assert not ResilienceStats().any_activity
        assert ResilienceStats(predictions=1).any_activity
        assert ResilienceStats(breaker_opens=1).any_activity

    def test_merge(self):
        a = ResilienceStats(predictions=5, fallback_predictions=2,
                            retries=1, backoff_ns=100.0)
        b = ResilienceStats(predictions=3, fallback_predictions=1,
                            dropped_updates=4, backoff_ns=50.0)
        a.merge(b)
        assert a.predictions == 8
        assert a.fallback_predictions == 3
        assert a.dropped_updates == 4
        assert a.backoff_ns == pytest.approx(150.0)
        assert a.degraded_fraction == pytest.approx(3 / 8)

    def test_merge_keeps_every_counter(self):
        """A merged per-domain block is the field-wise sum, sheds
        included (``merge`` used to drop ``shed_requests``)."""
        a = ResilienceStats(predictions=5, shed_requests=2,
                            quota_rejections=1)
        b = ResilienceStats(predictions=3, shed_requests=4)
        a.merge(b)
        assert a.shed_requests == 6
        merged = ResilienceStats()
        for index, field in enumerate(fields(ResilienceStats), start=1):
            merged.merge(ResilienceStats(**{field.name: index}))
            merged.merge(ResilienceStats(**{field.name: index}))
        assert merged == ResilienceStats(**{
            field.name: 2 * index for index, field
            in enumerate(fields(ResilienceStats), start=1)})

    def test_a_shed_alone_is_activity(self):
        shed_only = ResilienceStats(shed_requests=1)
        assert shed_only.any_activity
        total = ResilienceStats()
        total.merge(shed_only)
        assert total.any_activity and total.shed_requests == 1


class TestDomainReport:
    def test_defaults(self):
        report = DomainReport(name="d", model="perceptron")
        assert report.stats.predictions == 0
        assert report.latency.total_ns == 0.0
        assert report.resilience is None
        assert report.latency_percentiles == {}

    def test_index_cache_hit_rate(self):
        report = DomainReport(name="d", model="perceptron",
                              index_cache_hits=3, index_cache_misses=1)
        assert report.index_cache_hit_rate == pytest.approx(0.75)
        assert DomainReport(name="d", model="p").index_cache_hit_rate \
            == 0.0

    def test_cached_prediction_rate(self):
        stats = PredictionStats(predictions=4, cached_predictions=1)
        report = DomainReport(name="d", model="perceptron", stats=stats)
        assert report.cached_prediction_rate == pytest.approx(0.25)
        assert DomainReport(name="d", model="p").cached_prediction_rate \
            == 0.0
