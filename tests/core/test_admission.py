"""Denial paths: domain policy and the admission layer.

Covers the two ways the kernel refuses a client-facing operation:

* **policy** - a ``private_policy`` domain rejects every other
  identity's predict/update/reset with :class:`PolicyError`;
* **admission** - per-tenant quotas refuse domain registration,
  predictions, and update delivery with
  :class:`QuotaExceededError`, which the :class:`PSSClient`
  treats as fallback-eligible but *not* retryable (and never a
  breaker trip).
"""

import pytest

from repro.core import (
    AdmissionController,
    ClientIdentity,
    PredictionService,
    PSSConfig,
    QuotaExceededError,
    TenantQuota,
    private_policy,
)
from repro.core.errors import PolicyError
from repro.core.kernel.admission import TenantMeter

OWNER = ClientIdentity(uid=1000, program="owner")
STRANGER = ClientIdentity(uid=2000, program="stranger")

CONFIG = PSSConfig(num_features=1)


class TestPolicyDenial:
    def setup_method(self):
        self.service = PredictionService()
        self.service.create_domain(
            "secret", config=CONFIG, policy=private_policy(OWNER)
        )

    def test_owner_passes(self):
        handle = self.service.handle("secret", identity=OWNER)
        handle.predict([1])
        handle.update([1], True)
        handle.reset([1], reset_all=True)

    def test_stranger_predict_denied(self):
        handle = self.service.handle("secret", identity=STRANGER)
        with pytest.raises(PolicyError):
            handle.predict([1])

    def test_stranger_update_denied(self):
        handle = self.service.handle("secret", identity=STRANGER)
        with pytest.raises(PolicyError):
            handle.update([1], True)

    def test_stranger_reset_denied(self):
        handle = self.service.handle("secret", identity=STRANGER)
        with pytest.raises(PolicyError):
            handle.reset([1], reset_all=False)

    def test_denied_ops_leave_no_trace_in_stats(self):
        handle = self.service.handle("secret", identity=STRANGER)
        for op in (lambda: handle.predict([1]),
                   lambda: handle.update([1], True),
                   lambda: handle.reset([1], False)):
            with pytest.raises(PolicyError):
                op()
        stats = self.service.domain("secret").stats
        assert (stats.predictions, stats.updates, stats.resets) == (0, 0, 0)


class TestQuotaEnforcement:
    def test_domain_quota(self):
        admission = AdmissionController()
        admission.set_quota(OWNER, TenantQuota(max_domains=2))
        service = PredictionService(admission=admission)
        service.handle("a", identity=OWNER, config=CONFIG)
        service.handle("b", identity=OWNER, config=CONFIG)
        with pytest.raises(QuotaExceededError) as exc_info:
            service.handle("c", identity=OWNER, config=CONFIG)
        assert exc_info.value.resource == "domains"
        assert exc_info.value.limit == 2
        assert exc_info.value.identity == OWNER
        assert not service.has_domain("c")
        assert admission.usage_for(OWNER).rejections == 1

    def test_remove_domain_releases_quota(self):
        admission = AdmissionController()
        admission.set_quota(OWNER, TenantQuota(max_domains=1))
        service = PredictionService(admission=admission)
        service.handle("a", identity=OWNER, config=CONFIG)
        with pytest.raises(QuotaExceededError):
            service.handle("b", identity=OWNER, config=CONFIG)
        service.remove_domain("a")
        service.handle("b", identity=OWNER, config=CONFIG)
        assert admission.usage_for(OWNER).domains == 1

    def test_predict_budget_through_handle(self):
        admission = AdmissionController()
        admission.set_quota(OWNER, TenantQuota(predict_budget=3))
        service = PredictionService(admission=admission)
        handle = service.handle("d", identity=OWNER, config=CONFIG)
        for i in range(3):
            handle.predict([i])
        with pytest.raises(QuotaExceededError) as exc_info:
            handle.predict([99])
        assert exc_info.value.resource == "predictions"
        assert admission.usage_for(OWNER).predictions == 3

    def test_update_budget_through_handle(self):
        admission = AdmissionController()
        admission.set_quota(OWNER, TenantQuota(update_budget=2))
        service = PredictionService(admission=admission)
        handle = service.handle("d", identity=OWNER, config=CONFIG)
        handle.update([1], True)
        handle.update([2], False)
        with pytest.raises(QuotaExceededError) as exc_info:
            handle.update([3], True)
        assert exc_info.value.resource == "updates"
        # The refused record never reached the domain.
        assert service.domain("d").stats.updates == 2

    def test_other_tenants_unaffected(self):
        admission = AdmissionController()
        admission.set_quota(OWNER, TenantQuota(predict_budget=0))
        service = PredictionService(admission=admission)
        service.create_domain("d", config=CONFIG)
        with pytest.raises(QuotaExceededError):
            service.handle("d", identity=OWNER).predict([1])
        # STRANGER has the (unlimited) default quota.
        service.handle("d", identity=STRANGER).predict([1])
        assert admission.usage_for(STRANGER).predictions == 1

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota(max_domains=-1)


class TestChargeUpdates:
    """``TenantMeter.charge_updates(n)``: the prefix that fits is
    charged, the rest refused once."""

    def meter(self, budget, spent=0):
        meter = TenantMeter(OWNER, TenantQuota(update_budget=budget))
        meter.usage.updates = spent
        return meter

    def usage(self, meter):
        return meter.usage.updates, meter.usage.rejections

    def test_fits(self):
        meter = self.meter(budget=10, spent=3)
        meter.charge_updates(4)
        assert self.usage(meter) == (7, 0)

    def test_exactly_fits(self):
        meter = self.meter(budget=10, spent=3)
        meter.charge_updates(7)
        assert self.usage(meter) == (10, 0)

    def test_fits_k_of_n_charges_k_and_raises_once(self):
        meter = self.meter(budget=10, spent=3)
        with pytest.raises(QuotaExceededError) as exc_info:
            meter.charge_updates(32)
        assert self.usage(meter) == (10, 1)
        assert 32 - (meter.usage.updates - 3) == 25     # the suffix refused
        refusal = exc_info.value
        assert (refusal.resource, refusal.limit, refusal.identity) == (
            "updates", 10, OWNER)

    @pytest.mark.parametrize("spent", [10, 12])   # 12: budget lowered
    def test_budget_already_spent_charges_nothing(self, spent):
        meter = self.meter(budget=10, spent=spent)
        with pytest.raises(QuotaExceededError) as exc_info:
            meter.charge_updates(5)
        assert self.usage(meter) == (spent, 1)
        assert 5 - (meter.usage.updates - spent) == 5   # all refused
        assert exc_info.value.resource == "updates"

    def test_unlimited(self):
        meter = self.meter(budget=None, spent=3)
        meter.charge_updates(1 << 20)
        assert self.usage(meter) == (3 + (1 << 20), 0)

    def test_charge_update_is_the_one_record_entry(self):
        meter = self.meter(budget=2)
        meter.charge_update()
        meter.charge_update()
        assert self.usage(meter) == (2, 0)
        with pytest.raises(QuotaExceededError) as exc_info:
            meter.charge_update()
        assert self.usage(meter) == (2, 1)
        assert 1 - (meter.usage.updates - 2) == 1       # refused
        assert exc_info.value.limit == 2
        assert TenantMeter.charge_update is TenantMeter.charge_updates


class TestResilientClientQuotaPath:
    """Quota rejections fall back immediately: no retries, no breaker."""

    def make_client(self, quota, transport="syscall", batch_size=None):
        admission = AdmissionController()
        admission.set_quota(OWNER, quota)
        service = PredictionService(admission=admission)
        client = service.connect(
            "d", identity=OWNER, config=CONFIG,
            transport=transport, batch_size=batch_size, fallback=-7,
        )
        return service, admission, client

    def test_predict_falls_back_without_retrying(self):
        service, admission, client = self.make_client(
            TenantQuota(predict_budget=3)
        )
        scores = [client.predict([i]) for i in range(8)]
        assert scores[3:] == [-7] * 5
        assert client.stats.quota_rejections == 5
        assert client.stats.fallback_predictions == 5
        assert client.stats.retries == 0
        assert client.stats.transport_failures == 0
        assert client.breaker_state == "closed"
        assert client.last_prediction_was_fallback

    def test_vdso_cache_hits_are_charged_too(self):
        service, admission, client = self.make_client(
            TenantQuota(predict_budget=2), transport="vdso"
        )
        client.predict([1])
        client.predict([1])  # served from the score cache, still charged
        assert admission.usage_for(OWNER).predictions == 2
        assert client.predict([1]) == -7
        assert client.stats.quota_rejections == 1

    def test_syscall_update_over_budget_is_dropped(self):
        service, admission, client = self.make_client(
            TenantQuota(update_budget=2)
        )
        for i in range(5):
            client.update([i], True)
        assert client.stats.dropped_updates == 3
        assert client.stats.quota_rejections == 3
        assert client.stats.retries == 0
        assert client.breaker_state == "closed"
        assert service.domain("d").stats.updates == 2

    def test_vdso_flush_drops_the_over_budget_suffix(self):
        service, admission, client = self.make_client(
            TenantQuota(update_budget=2), transport="vdso", batch_size=16
        )
        for i in range(5):
            client.update([i], True)  # buffered; charged at delivery
        client.flush()
        # Budgets are monotonic: once record 3 is refused, the remaining
        # suffix of the batch is dropped with it.
        assert service.domain("d").stats.updates == 2
        assert client.stats.dropped_updates == 3
        assert client.stats.quota_rejections == 1
        assert client.breaker_state == "closed"
        assert admission.usage_for(OWNER).updates == 2

    def test_suffix_of_a_flush_an_update_triggered_is_counted(self):
        service, admission, client = self.make_client(
            TenantQuota(update_budget=2), transport="vdso", batch_size=5
        )
        for i in range(5):
            client.update([i], True)   # the fifth fills and flushes
        assert service.domain("d").stats.updates == 2
        assert client.stats.dropped_updates == 3
        assert client.stats.quota_rejections == 1
        assert admission.usage_for(OWNER).rejections == 1

    def test_usage_rows_report_consumption(self):
        service, admission, client = self.make_client(
            TenantQuota(predict_budget=3)
        )
        for i in range(5):
            client.predict([i])
        ((identity, usage, quota),) = admission.usage_rows()
        assert identity == OWNER
        assert usage.predictions == 3
        assert usage.rejections == 2
        assert quota.predict_budget == 3
