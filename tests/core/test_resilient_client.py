"""Tests for the retry / circuit-breaker / fallback client layer."""

import pytest

from repro.core import (
    PredictionService,
    PSSClient,
    PSSConfig,
    ResilienceConfig,
    TransportFault,
)
from repro.core.client import CircuitBreaker
from repro.core.errors import ConfigError
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.policy import ClientIdentity


def make_client(transport="syscall", resilience=None, fallback=1,
                plan=None, **connect_kwargs):
    service = PredictionService()
    client = service.connect(
        "dom",
        config=PSSConfig(num_features=2),
        transport=transport,
        resilience=resilience or ResilienceConfig(),
        fallback=fallback,
        fault_plan=plan,
        **connect_kwargs,
    )
    return service, client


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(breaker_threshold=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(backoff_multiplier=0.5)

    def test_connect_builds_resilient_client(self):
        service, client = make_client()
        assert type(client) is type(service.connect("dom")) is PSSClient

    def test_plain_connect_stays_plain(self):
        # the defaults; on a healthy service no call counts anything
        client = PredictionService().connect("dom")
        client.predict([1, 2]), client.update([1, 2], True), client.flush()
        assert client.resilience == ResilienceConfig()
        assert not (client.stats.any_activity
                    or client.stats.fallback_predictions)


class TestRetry:
    def test_transient_fault_retried_and_absorbed(self):
        # Rate 0.5 with bounded attempts: most predicts succeed on a
        # retry; none may raise.
        _, client = make_client(
            plan=FaultPlan(seed=3, syscall_failure_rate=0.5),
            resilience=ResilienceConfig(max_attempts=4,
                                        breaker_threshold=1000),
        )
        for i in range(300):
            client.predict([i % 4, 1])
        assert client.stats.retries > 0
        assert client.stats.backoff_ns > 0
        # With 4 attempts at rate 0.5 almost everything goes through.
        assert client.stats.fallback_predictions < 30

    def test_backoff_grows_exponentially(self):
        config = ResilienceConfig(max_attempts=3, backoff_base_ns=100.0,
                                  backoff_multiplier=2.0)
        _, client = make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=config,
        )
        client.predict([1, 2])  # fails all 3 attempts -> 2 backoffs
        assert client.stats.backoff_ns == pytest.approx(100.0 + 200.0)

    @pytest.mark.parametrize("transport, batch, pending", [
        ("syscall", 1, 0), ("vdso", 1, 0), ("vdso", 2, 1)])
    def test_a_retried_update_is_counted_once(self, transport, batch,
                                              pending):
        """Each retry of an update on a down shard sends its record
        again - a vDSO retry buffers it anew, where with room it stays
        - so it is counted lost once, if at all; a record its first
        flush took from an earlier update is lost for good."""
        service, client = make_client(transport, batch_size=batch)
        client.update([3, 4], True)     # a vDSO batch of 2 holds it
        service.crash_shard(0)
        client.update([1, 2], True)
        assert (client.stats.dropped_updates,
                client.pending_updates) == (1, pending)


class TestCircuitBreaker:
    def failing_client(self, threshold=3, cooldown=4):
        return make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=threshold,
                                        breaker_cooldown=cooldown),
        )

    def test_opens_after_consecutive_failures(self):
        _, client = self.failing_client(threshold=3)
        for i in range(3):
            client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.OPEN
        assert client.stats.breaker_opens == 1

    def test_open_breaker_serves_fallback_without_transport(self):
        _, client = self.failing_client(threshold=2, cooldown=100)
        client.predict([1, 2])
        client.predict([1, 2])
        syscalls_when_opened = client.latency.syscalls
        score = client.predict([1, 2])
        assert score == 1  # the static fallback
        assert client.last_prediction_was_fallback
        assert client.latency.syscalls == syscalls_when_opened

    def test_half_open_probe_reopens_when_still_failing(self):
        _, client = self.failing_client(threshold=2, cooldown=3)
        for i in range(20):
            client.predict([1, 2])
        # Still injecting at rate 1.0: every probe fails, breaker
        # reopens every cooldown window.
        assert client.breaker_state == CircuitBreaker.OPEN
        assert client.stats.breaker_opens > 1
        assert client.stats.breaker_closes == 0

    def test_recovers_when_transport_heals(self):
        _, client = self.failing_client(threshold=2, cooldown=3)
        client.predict([1, 2])
        client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.OPEN
        client.attach_fault_injector(None)  # the transport healed
        for i in range(6):
            client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.CLOSED
        assert client.stats.breaker_closes == 1
        assert not client.last_prediction_was_fallback

    @pytest.mark.parametrize("cooldown", [1, 2, 3, 4])
    def test_cooldown_calls_are_served_degraded_before_the_probe(
            self, cooldown):
        """``breaker_cooldown`` calls get the fallback without a
        crossing; the one after them is the half-open probe."""
        _, client = self.failing_client(threshold=1, cooldown=cooldown)
        client.predict([1, 2])                 # fails: the breaker opens
        assert client.breaker_state == CircuitBreaker.OPEN
        crossed = client.latency.syscalls
        for _ in range(cooldown):
            assert client.predict([1, 2]) == 1
            assert client.last_prediction_was_fallback
            assert client.latency.syscalls == crossed
        client.attach_fault_injector(None)     # the transport healed
        client.predict([1, 2])                 # the probe crosses
        assert client.latency.syscalls == crossed + 1
        assert client.breaker_state == CircuitBreaker.CLOSED
        assert not client.last_prediction_was_fallback
        assert client.stats.fallback_predictions == 1 + cooldown

    def test_open_breaker_drops_updates_and_resets(self):
        _, client = self.failing_client(threshold=1, cooldown=1000)
        client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.OPEN
        client.update([1, 2], True)
        client.reset([1, 2])
        assert client.stats.dropped_updates >= 1
        assert client.stats.dropped_resets == 1


class TestFallback:
    def test_constant_fallback(self):
        _, client = make_client(
            fallback=7,
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=1),
        )
        assert client.predict([1, 2]) == 7

    def test_callable_fallback_sees_features(self):
        _, client = make_client(
            fallback=lambda features: -1 if features[0] >= 8 else 1,
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=1),
        )
        assert client.predict([9, 0]) == -1
        assert client.predict([1, 0]) == 1

    def test_fallback_predictions_reported(self):
        _, client = make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=1,
                                        breaker_cooldown=1000),
        )
        for i in range(10):
            client.predict([1, 2])
        assert client.stats.fallback_predictions == 10

    def test_batch_on_a_dead_shard_is_served_like_the_scalar_calls(self):
        """Crashed shard, follower never synced: the first attempt's
        ``ShardDownError`` used to leave ``None`` placeholders in the
        vDSO score cache, which the retry then returned as a
        *successful* ``[None, None]``."""
        service = PredictionService(num_replicas=1)
        client = service.connect(
            "dom", config=PSSConfig(num_features=2), fallback=1)
        service.crash_shard(0)
        rows = [(1, 2), (3, 4)]
        assert client.predict_batch(rows) == [1, 1]
        assert client.last_prediction_was_fallback
        assert [client.predict(row) for row in rows] == [1, 1]
        assert client.last_prediction_was_fallback

    def test_a_recreated_domain_starts_a_fresh_aggregate(self):
        """The resilience aggregate is the domain's, not the name's: a
        domain created under a removed one's name reports none of its
        fallbacks, and its clients share a new block."""
        service, client = make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=1))
        for _ in range(5):
            client.predict([1, 2])
        assert client.stats.breaker_opens == 1
        service.remove_domain("dom")
        service.create_domain("dom", config=PSSConfig(num_features=2))
        (report,) = service.reports()
        assert report.resilience is None
        fresh = service.connect("dom", fallback=1)
        assert fresh.stats is not client.stats
        service.crash_shard(0)
        fresh.predict([1, 2])
        (report,) = service.reports()
        assert report.resilience is fresh.stats
        assert (report.stats.predictions,
                report.resilience.fallback_predictions) == (0, 1)


class TestNoExceptionGuarantee:
    @pytest.mark.parametrize("transport", ["vdso", "syscall"])
    def test_no_fault_escapes_at_half_rate(self, transport):
        _, client = make_client(
            transport=transport,
            plan=FaultPlan.uniform(0.5, seed=9),
        )
        for i in range(500):
            client.predict([i % 8, 1])
            client.update([i % 8, 1], i % 3 == 0)
            if i % 100 == 99:
                client.reset([i % 8, 1])
        client.flush()
        client.close()  # none of the above may raise

    def test_the_transport_does_raise(self):
        # The contrast: below the client, injected faults raise.
        _, client = make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0))
        with pytest.raises(TransportFault):
            client._transport.predict([1, 2])

    def test_close_never_raises(self):
        _, client = make_client(
            transport="vdso",
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
        )
        client.update([1, 2], True)
        assert client.pending_updates == 1
        client.close()

    def test_a_quota_refused_flush_behind_a_reset_is_absorbed(self):
        """A vDSO reset flushes the buffer first.  When the tenant's
        budget refuses part of that flush, the refusal is served like
        an update's - never retried, never raised - and the refused
        records and the reset are counted as dropped."""
        who, admission = ClientIdentity(), AdmissionController()
        admission.set_quota(who, TenantQuota(update_budget=2))
        service = PredictionService(admission=admission)
        client = service.connect("dom", config=PSSConfig(num_features=2),
                                 identity=who, batch_size=8, fallback=0)
        for i in range(4):
            client.update((i, i), True)
        client.reset((1, 1))
        stats = client.stats
        assert (stats.dropped_updates, stats.dropped_resets,
                stats.quota_rejections, stats.retries) == (2, 1, 1, 0)
        domain = service.domain("dom")
        assert (domain.stats.updates, domain.stats.resets) == (2, 0)
        assert client.pending_updates == 0


class TestZeroRateTransparency:
    @pytest.mark.parametrize("transport", ["vdso", "syscall"])
    def test_identical_results_and_latency_at_rate_zero(self, transport):
        def run(injected):
            client = PredictionService().connect(
                "dom", config=PSSConfig(num_features=2), transport=transport,
                fault_plan=FaultPlan.uniform(0.0, seed=4) if injected
                else None)
            scores = []
            for i in range(200):
                scores.append(client.predict([i % 8, 1]))
                client.update([i % 8, 1], i % 2 == 0)
            client.flush()
            return scores, client.latency.snapshot()

        plain_scores, plain_latency = run(injected=False)
        res_scores, res_latency = run(injected=True)
        assert res_scores == plain_scores
        assert res_latency == plain_latency

    def test_injector_rng_does_not_touch_global_random(self):
        import random
        random.seed(123)
        expected = [random.random() for _ in range(5)]
        random.seed(123)
        injector = FaultInjector(FaultPlan.uniform(0.5, seed=7))
        for _ in range(50):
            injector.syscall_fault()
            injector.stale_read()
        assert [random.random() for _ in range(5)] == expected
