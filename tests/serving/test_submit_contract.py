"""A request is admitted once, by its handle, where it enters.

``ServingPipeline.submit`` asks the caller's ``DomainHandle`` what its
synchronous ``predict`` / ``update`` ask, so the pipeline is no way
round a tenant's budget or a domain's policy, and a request that cannot
be served fails alone: refused at submit, on its own future, with the
synchronous call's exception type and charge.  ``tests/test_machine.py``
is the property; these are the cases - the three in
``TestTheThreeSideDoors`` each got through once, and so did the
successor in ``TestNamesAndHandlesOverTime`` - and the client
``submit`` family on top.
"""

import pytest

from repro.core.config import PSSConfig
from repro.core.errors import (
    DomainError,
    FeatureError,
    PolicyError,
    QuotaExceededError,
)
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity, private_policy
from repro.core.serving import ServingConfig, ServingPipeline

CONFIG = PSSConfig(num_features=2)
ALICE = ClientIdentity(uid=1, program="alice")
BOB = ClientIdentity(uid=2, program="bob")


def errors(futures):
    return [type(future.error) if future.error is not None else None
            for future in futures]


def metered_service(**quota):
    admission = AdmissionController()
    admission.set_quota(BOB, TenantQuota(**quota))
    return ShardedService(admission=admission)


class TestTheThreeSideDoors:
    def test_a_spent_budget_is_spent_for_the_pipeline_too(self):
        service = metered_service(predict_budget=3)
        bob = service.handle("d", BOB, CONFIG)
        pipeline = ServingPipeline(service, ServingConfig())
        for _ in range(3):
            bob.predict((1, 2))
        with pytest.raises(QuotaExceededError):
            bob.predict((1, 2))
        futures = [pipeline.submit(bob, (1, 2)) for _ in range(6)]
        assert all(future.done for future in futures)   # refused at submit
        assert errors(futures) == [QuotaExceededError] * 6
        usage = service.admission.usage_for(BOB)
        assert (usage.predictions, usage.rejections) == (3, 7)
        assert service.domain("d").stats.predictions == 3

    def test_a_private_domain_is_private_through_the_pipeline(self):
        service = ShardedService(admission=AdmissionController())
        service.create_domain("mine", config=CONFIG,
                              policy=private_policy(ALICE))
        pipeline = ServingPipeline(service, ServingConfig())
        bob = service.handle("mine", BOB)
        with pytest.raises(PolicyError):
            bob.predict((1, 2))
        futures = [
            pipeline.submit(bob, (1, 2)),
            pipeline.submit(bob, (1, 2), op="update", direction=True),
            # a bare name is the anonymous identity, not a way round
            pipeline.submit("mine", (1, 2), op="update", direction=True),
            pipeline.submit(service.handle("mine", ALICE), (1, 2),
                            op="update", direction=True),
        ]
        pipeline.run()
        assert errors(futures) == [PolicyError] * 3 + [None]
        stats = service.domain("mine").stats
        assert (stats.predictions, stats.updates) == (0, 1)   # Alice's
        assert service.admission.usage_for(BOB).updates == 0

    @pytest.mark.parametrize("window", [0.0, 200.0])
    def test_a_neighbours_typo_fails_only_the_neighbour(self, window):
        service = ShardedService()
        for name in ("d", "e"):
            service.create_domain(name, config=CONFIG)
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=window))
        futures = [pipeline.submit(name, row) for name, row in (
            ("d", (1, 2)), ("d", (1, 2, 3)), ("d", (3, 4)),
            ("nope", (1, 2)), ("e", (1, 2)))]
        pipeline.run()
        assert errors(futures) == [None, FeatureError, None,
                                   DomainError, None]
        assert not service.has_domain("nope")
        twin = ShardedService()
        twin.create_domain("d", config=CONFIG)
        assert [futures[0].result(), futures[2].result()] == [
            twin.handle("d").predict((1, 2)), twin.handle("d").predict((3, 4))]


class TestNamesAndHandlesOverTime:
    def test_a_name_follows_its_domain_through_remove_and_recreate(self):
        service = ShardedService()
        service.create_domain("d", config=CONFIG)
        pipeline = ServingPipeline(service, ServingConfig())
        held = service.handle("d")
        assert pipeline.submit("d", (1, 2)).error is None
        pipeline.run()
        service.remove_domain("d")
        assert errors([pipeline.submit("d", (1, 2)),
                       pipeline.submit(held, (1, 2))]) == [DomainError] * 2
        service.create_domain("d", config=PSSConfig(num_features=3))
        fresh = pipeline.submit("d", (1, 2, 3))
        stale = pipeline.submit(held, (1, 2))   # the removed domain's
        pipeline.run()
        assert errors([fresh, stale]) == [None, DomainError]
        assert service.domain("d").stats.predictions == 1

    def test_removed_after_submit_fails_late_and_alone(self):
        """What submit cannot know: the kernel finds the name gone at
        dispatch and says so for that row only."""
        service = ShardedService()
        for name in ("d", "e"):
            service.create_domain(name, config=CONFIG)
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=200.0))
        futures = [pipeline.submit(name, (1, 2)) for name in "ded"]
        assert not any(future.done for future in futures)
        service.remove_domain("e")
        pipeline.run()
        assert errors(futures) == [None, DomainError, None]
        assert pipeline.snapshot()["failed"] == 1

    @pytest.mark.parametrize("window", [0.0, 200.0])
    def test_a_request_never_runs_on_a_same_named_successor(self, window):
        """Admitted under the open domain, executed after it was removed
        and a private one created under its name: the requests fail with
        the domain they were admitted against, and the successor - which
        Bob may not touch - is untouched."""
        service = ShardedService()
        service.create_domain("d", config=CONFIG)
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=window))
        bob = service.handle("d", BOB)
        futures = [pipeline.submit(bob, (1, 2), op="update",
                                   direction=True),
                   pipeline.submit(bob, (1, 2)), pipeline.submit(bob, (3, 4))]
        service.remove_domain("d")
        service.create_domain("d", config=CONFIG,
                              policy=private_policy(ALICE))
        pipeline.run()
        assert errors(futures) == [DomainError] * 3
        successor = service.domain("d")
        assert (successor.stats.updates, successor.stats.predictions,
                successor.generation) == (0, 0, 0)


class TestClientSubmitFamily:
    def test_without_a_pipeline_the_refusal_settles_the_future(self):
        """One API in both deployments: without a pipeline ``submit``
        is ``predict``, settled at once - a refusal the client degrades
        is its fallback, one it raises fails the future."""
        service = metered_service(predict_budget=1, update_budget=0)
        service.create_domain("mine", config=CONFIG,
                              policy=private_policy(ALICE))
        client = service.connect("d", config=CONFIG, identity=BOB,
                                 transport="syscall")
        intruder = service.connect("mine", identity=BOB,
                                   transport="syscall")
        futures = [client.submit((1, 2)), client.submit((1, 2)),
                   client.submit_update((1, 2), True),
                   intruder.submit((1, 2)),
                   intruder.submit_update((1, 2), True)]
        assert all(future.done for future in futures)
        assert errors(futures) == [None, None, None, PolicyError,
                                   PolicyError]
        assert futures[1].result() == 0         # the static fallback
        assert (client.stats.quota_rejections,
                client.stats.dropped_updates) == (2, 1)
        service.admission.set_quota(BOB, TenantQuota())
        assert errors([client.submit((1, 2, 3))]) == [FeatureError]

    def test_resilient_submit_answers_a_quota_refusal_from_fallback(self):
        service = metered_service(predict_budget=2, update_budget=1)
        client = service.connect("d", config=CONFIG, identity=BOB,
                                 fallback=-7)
        pipeline = ServingPipeline(service, ServingConfig())
        client.attach_pipeline(pipeline)
        reads = [client.submit((1, 2)) for _ in range(4)]
        writes = [client.submit_update((1, 2), True) for _ in range(3)]
        pipeline.run()
        assert errors(reads + writes) == [None] * 7
        assert [future.result() for future in reads[2:]] == [-7, -7]
        stats = client.stats
        assert (stats.quota_rejections, stats.fallback_predictions,
                stats.dropped_updates) == (4, 2, 2)
        assert service.domain("d").stats.updates == 1

    def test_resilient_submit_does_not_absorb_a_policy_refusal(self):
        service = ShardedService()
        service.create_domain("mine", config=CONFIG,
                              policy=private_policy(ALICE))
        client = service.connect("mine", identity=BOB, fallback=1)
        with pytest.raises(PolicyError):
            client.predict((1, 2))
        pipeline = ServingPipeline(service, ServingConfig())
        client.attach_pipeline(pipeline)
        futures = [client.submit((1, 2)),
                   client.submit_update((1, 2), True)]
        pipeline.run()
        assert errors(futures) == [PolicyError] * 2
        assert client.stats.fallback_predictions == 0

    def test_a_refused_resilient_submit_clears_the_fallback_flag(self):
        """The flag says whether the last prediction was served from the
        fallback: after one that was refused outright it is False, as
        after a synchronous ``predict`` that raised."""
        service = ShardedService()
        client = service.connect("d", config=CONFIG, fallback=-7)
        service.crash_shard(0)                  # and no follower
        assert client.predict((1, 2)) == -7
        assert client.last_prediction_was_fallback
        client.attach_pipeline(ServingPipeline(service, ServingConfig()))
        assert errors([client.submit((1, 2, 3))]) == [FeatureError]
        assert not client.last_prediction_was_fallback
