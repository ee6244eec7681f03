"""A handle carries its decisions; nobody can tell.

A :class:`~repro.core.kernel.domain.DomainHandle` keeps the policy's
verdicts for its identity and its tenant's meter instead of re-deriving
both per call.  These tests change what was decided *after* the handle
was made - swap the policy, tighten and loosen quotas - and require the
very next call to behave as a handle made that instant would.
"""

from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.core.errors import PolicyError, QuotaExceededError
from repro.core.kernel.admission import (
    AdmissionController,
    TenantQuota,
    TenantUsage,
)
from repro.core.policy import (
    ClientIdentity,
    DomainPolicy,
    SharingMode,
    open_policy,
    private_policy,
)

CONFIG = PSSConfig(num_features=2)
ALICE = ClientIdentity(uid=1, program="alice")
OTHER = ClientIdentity(uid=2, program="other")
ROW = (3, 5)


def service_with_domain():
    service = PredictionService(admission=AdmissionController())
    service.create_domain("d", config=CONFIG)
    return service


class TestPolicySwap:
    def test_a_replaced_policy_refuses_the_very_next_call(self):
        service = service_with_domain()
        domain = service.domain("d")
        client = service.connect("d", identity=ALICE, batch_size=1)
        handle = service.handle("d", identity=ALICE)
        client.predict(ROW)
        assert client.predict(ROW) == handle.predict(ROW)   # a cached hit
        handle.update(ROW, True)
        handle.reset(ROW, False)

        open_to_all = domain.policy
        domain.policy = private_policy(OTHER)
        before = (replace(domain.stats),
                  replace(service.admission.usage_for(ALICE)))
        for refused in (
            lambda: handle.predict(ROW),
            lambda: handle.predict_batch([ROW]),
            lambda: handle.update(ROW, True),
            lambda: handle.reset(ROW, False),
            lambda: handle.record_cached_prediction(0),
            lambda: client.predict(ROW),        # the score-cache hit
            lambda: client.update(ROW, True),   # flushes at once
        ):
            with pytest.raises(PolicyError, match="alice .uid 1. may not"):
                refused()
        # refused before anything was charged or counted
        assert (domain.stats, service.admission.usage_for(ALICE)) == before

        domain.policy = open_to_all
        handle.predict(ROW)
        handle.update(ROW, True)
        handle.reset(ROW, False)
        client.predict(ROW)

    def test_each_verdict_is_kept_apart(self):
        service = service_with_domain()
        domain = service.domain("d")
        handle = service.handle("d", identity=ALICE)
        domain.policy = DomainPolicy(owner=OTHER,
                                     mode=SharingMode.READ_ONLY)
        handle.predict(ROW)
        with pytest.raises(PolicyError, match="may not update"):
            handle.update(ROW, True)
        with pytest.raises(PolicyError, match="may not reset"):
            handle.reset(ROW, True)

    def test_a_policy_cannot_be_edited_in_place(self):
        policy = open_policy()
        with pytest.raises(FrozenInstanceError):
            policy.mode = SharingMode.PRIVATE
        with pytest.raises(FrozenInstanceError):
            policy.owner = OTHER
        with pytest.raises(FrozenInstanceError):
            del policy.allowed_uids
        assert replace(policy, mode=SharingMode.PRIVATE).mode \
            is SharingMode.PRIVATE


class TestQuotaBinding:
    def check_refusal(self, admission, call, resource, limit):
        rejections = admission.usage_for(ALICE).rejections
        with pytest.raises(QuotaExceededError) as refused:
            call()
        assert (refused.value.identity, refused.value.resource,
                refused.value.limit) == (ALICE, resource, limit)
        assert admission.usage_for(ALICE).rejections == rejections + 1

    def test_set_quota_after_connect_binds_at_the_next_call(self):
        service = service_with_domain()
        admission = service.admission
        # the transport under the client: its refusals raise
        client = service.connect("d", identity=ALICE, batch_size=1)._transport
        client.predict(ROW)
        client.update(ROW, True)
        admission.set_quota(
            ALICE, TenantQuota(predict_budget=1, update_budget=1))
        self.check_refusal(admission, lambda: client.predict(ROW),
                           "predictions", 1)
        self.check_refusal(admission, lambda: client.update(ROW, True),
                           "updates", 1)
        admission.set_quota(ALICE, TenantQuota())
        client.predict(ROW)
        client.update(ROW, True)
        assert admission.usage_for(ALICE) == TenantUsage(
            predictions=2, updates=2, rejections=2)

    def test_default_quota_after_connect_binds_at_the_next_call(self):
        service = service_with_domain()
        admission = service.admission
        admission.set_quota(OTHER, TenantQuota(predict_budget=5))
        alice = service.handle("d", identity=ALICE)
        other = service.handle("d", identity=OTHER)
        alice.predict(ROW)
        other.predict(ROW)
        admission.default_quota = TenantQuota(predict_budget=1)
        assert admission.default_quota == TenantQuota(predict_budget=1)
        self.check_refusal(admission, lambda: alice.predict(ROW),
                           "predictions", 1)
        other.predict(ROW)   # an explicit quota outranks the default
        admission.default_quota = TenantQuota()
        alice.predict(ROW)
        assert admission.quota_for(ALICE) == TenantQuota()
        assert admission.meter(ALICE).quota is admission.default_quota
        assert admission.meter(OTHER).quota == TenantQuota(predict_budget=5)

    def test_a_score_cache_hit_is_charged_and_refused_at_budget(self):
        service = service_with_domain()
        admission = service.admission
        admission.set_quota(ALICE, TenantQuota(predict_budget=3))
        client = service.connect("d", identity=ALICE)._transport
        for _ in range(3):
            client.predict(ROW)
        assert client.account.cache_hits == 2
        assert admission.usage_for(ALICE).predictions == 3
        self.check_refusal(admission, lambda: client.predict(ROW),
                           "predictions", 3)
        assert service.domain("d").stats.predictions == 3

    def test_the_by_identity_entry_charges_the_same_meter(self):
        service = service_with_domain()
        admission = service.admission
        admission.set_quota(ALICE, TenantQuota(predict_budget=2))
        handle = service.handle("d", identity=ALICE)
        handle.predict(ROW)
        admission.charge_predict(ALICE)
        self.check_refusal(admission, lambda: handle.predict(ROW),
                           "predictions", 2)
        self.check_refusal(admission,
                           lambda: admission.charge_predict(ALICE),
                           "predictions", 2)
        assert admission.meter(ALICE).usage \
            is admission.usage_for(ALICE)

    def test_connect_alone_makes_nobody_a_tenant(self):
        service = service_with_domain()
        admission = service.admission
        admission.set_quota(OTHER, TenantQuota(predict_budget=5))
        known = admission.tenants()
        client = service.connect("d", identity=ALICE)
        service.handle("d", identity=ALICE)
        assert admission.tenants() == known == [OTHER]
        assert [who for who, _, _ in admission.usage_rows()] == known
        client.predict(ROW)
        assert admission.tenants() == [ALICE, OTHER]


# -- one long-lived handle against a fresh handle per call --------------------

POOL = [(1, 2), (3, 4), (5, 6), (7, 8)]
POLICIES = [
    open_policy(),
    private_policy(ALICE),
    private_policy(OTHER),
    DomainPolicy(owner=OTHER, mode=SharingMode.READ_ONLY),
    DomainPolicy(owner=OTHER, allowed_uids=frozenset({2})),
]
QUOTAS = [
    TenantQuota(),
    TenantQuota(predict_budget=4),
    TenantQuota(update_budget=2),
    TenantQuota(predict_budget=12, update_budget=6),
]

steps = st.one_of(
    st.tuples(st.just("predict"), st.integers(0, 3)),
    st.tuples(st.just("update"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("predict_batch"),
              st.lists(st.integers(0, 3), max_size=5)),
    st.tuples(st.just("cached"), st.integers(-3, 3)),
    st.tuples(st.just("reset"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("set_quota"), st.sampled_from(QUOTAS)),
    st.tuples(st.just("default_quota"), st.sampled_from(QUOTAS)),
    st.tuples(st.just("policy"), st.sampled_from(POLICIES)),
)


def run_stream(stream, long_lived):
    service = service_with_domain()
    admission = service.admission
    domain = service.domain("d")
    kept = service.handle("d", identity=ALICE)
    outcomes = []
    for op, *args in stream:
        handle = kept if long_lived else service.handle("d",
                                                        identity=ALICE)
        try:
            if op == "predict":
                outcomes.append(handle.predict(POOL[args[0]]))
            elif op == "update":
                handle.update(POOL[args[0]], args[1])
            elif op == "predict_batch":
                outcomes.append(handle.predict_batch(
                    [POOL[index] for index in args[0]]))
            elif op == "cached":
                handle.record_cached_prediction(args[0])
            elif op == "reset":
                handle.reset(POOL[args[0]], args[1])
            elif op == "set_quota":
                admission.set_quota(ALICE, args[0])
            elif op == "default_quota":
                admission.default_quota = args[0]
            else:
                domain.policy = args[0]
        except (PolicyError, QuotaExceededError) as refused:
            outcomes.append((type(refused), str(refused)))
    return (outcomes, replace(admission.usage_for(ALICE)),
            replace(domain.stats), domain.generation, admission.tenants())


@settings(max_examples=150, deadline=None)
@given(stream=st.lists(steps, max_size=40))
def test_a_long_lived_handle_is_a_fresh_handle_per_call(stream):
    assert run_stream(stream, long_lived=True) \
        == run_stream(stream, long_lived=False)
