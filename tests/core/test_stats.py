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


def read(account, times=1):
    """``times`` vDSO reads, as the transport counts them: two in-place
    increments each."""
    for _ in range(times):
        account.vdso_ns += account.read_ns
        account.vdso_calls += 1


class TestLatencyAccount:
    def test_charges_accumulate(self):
        account = LatencyAccount(read_ns=4.19)
        read(account, 2)
        account.charge_syscall(68.0, records=5)
        assert account.vdso_calls == 2
        assert account.syscalls == 1
        assert account.update_records == 5
        assert account.total_ns == pytest.approx(8.38 + 68.0)

    @pytest.mark.parametrize("watched", [False, True])
    def test_vdso_predict_charge_is_the_pair_it_replaces(self, watched):
        """A read's two counts read as the clock charge plus the
        ``charge_op("predict")`` it stands for, at count x cost: one
        product, not one addition per read (4.19 six times over is
        another float), while the clock stays the running sum."""
        from repro.obs import MetricsRegistry

        account, registry = LatencyAccount(read_ns=4.19), MetricsRegistry()
        if watched:
            account.attach_metrics(registry, domain="d", transport="vdso")
        read(account, 6)
        assert account.op_ns == {"predict": 6 * 4.19}
        assert account.op_calls == {"predict": 6}
        assert account.vdso_ns == sum([4.19] * 6) != 6 * 4.19
        if watched:
            for name in ("pss_vdso_read_ns", "pss_op_ns"):
                hist = registry.merged_histogram(name, domain="d")
                assert (hist.count, hist.sum) == (6, 6 * 4.19)

    def test_means(self):
        account = LatencyAccount(read_ns=5.0)
        assert account.mean_vdso_ns == 0.0
        assert account.mean_syscall_ns == 0.0
        read(account, 2)
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
        account.cache_hits += 2
        account.cache_misses += 1
        assert account.cache_hits == 2
        assert account.cache_misses == 1
        assert account.cache_hit_rate == pytest.approx(2 / 3)

    def test_merge(self):
        """Each account's reads come in at its own count x cost."""
        a = LatencyAccount(read_ns=4.0)
        read(a)
        a.cache_hits += 1
        b = LatencyAccount(read_ns=6.0)
        read(b)
        b.charge_syscall(68.0, records=3)
        b.charge_op("flush", 68.0)
        b.cache_misses += 1
        a.merge(b)
        assert a.vdso_calls == 2
        assert a.mean_vdso_ns == pytest.approx(5.0)
        assert a.syscalls == 1
        assert a.update_records == 3
        assert a.cache_hits == 1 and a.cache_misses == 1
        assert a.op_calls["predict"] == 2
        assert a.mean_op_ns("predict") == pytest.approx(5.0)
        assert a.op_calls["flush"] == 1
        read(a)   # a's own read, at a's cost
        assert a.op_ns["predict"] == 6.0 + 2 * 4.0

    def test_merge_with_empty_is_identity(self):
        a = LatencyAccount(read_ns=4.19)
        read(a)
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
