"""The refactor's safety net: serve mode is the same computation.

A 1-client, batch-window-0 serve run must be *bit-identical* to the
synchronous scalar path - scores, per-domain prediction stats, and
weight generations - because the pipeline is a frontend over the same
kernel, not a second implementation.  Hypothesis drives arbitrary
predict/update interleavings over 1/2/4 shards and multiple domains,
and a recorded closed-loop :class:`LoadGenerator` run is replayed
synchronously to pin the real harness, not just hand-built streams.

It is also the same *contract*: ``TestOneContract`` runs streams that
the synchronous path partly refuses - a private and a read-only
domain, a tenant with a finite quota, wrong-length rows, an unknown
name - and demands, at window 0 and with real batches, the same score
or exception type per request, the same ``PredictionStats`` and the
same ``TenantUsage``; and that what happens to one request never
depends on the requests it shared a stream or a batch with.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.loadgen import LoadGenerator, LoadSpec
from repro.core.config import PSSConfig, ServiceConfig
from repro.core.errors import DomainError, PSSError
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.kernel.service import ShardedService
from repro.core.policy import (
    ClientIdentity,
    DomainPolicy,
    SharingMode,
    private_policy,
)
from repro.core.serving import (
    ServingConfig,
    ServingPipeline,
    serving_slos,
)

DOMAINS = ("alpha", "beta", "gamma")


def op_streams():
    """(domain index, op, features, direction) interleavings."""
    return st.lists(
        st.tuples(
            st.integers(0, len(DOMAINS) - 1),
            st.sampled_from(["predict", "update"]),
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            st.booleans(),
        ),
        min_size=1, max_size=40,
    )


def build_service(num_shards):
    service = ShardedService(num_shards=num_shards)
    for name in DOMAINS:
        service.create_domain(name)
    return service


def state_of(service):
    return {
        name: (service.domain(name).stats,
               service.domain(name).generation)
        for name in DOMAINS
    }


def run_sync(service, stream):
    scores = []
    for index, op, features, direction in stream:
        if op == "predict":
            scores.append(service.predict(DOMAINS[index],
                                          list(features)))
        else:
            service.update(DOMAINS[index], list(features), direction)
            scores.append(None)
    return scores


def run_served(service, stream, batch_window_ns=0.0, max_batch=32):
    pipeline = ServingPipeline(
        service, ServingConfig(max_batch=max_batch,
                               batch_window_ns=batch_window_ns))
    futures = []
    for index, op, features, direction in stream:
        if op == "predict":
            futures.append(pipeline.submit(DOMAINS[index],
                                           list(features)))
        else:
            futures.append(pipeline.submit(DOMAINS[index],
                                           list(features), op="update",
                                           direction=direction))
    pipeline.run()
    return [future.result() for future in futures]


class TestScalarIdentity:
    @settings(max_examples=25, deadline=None)
    @given(stream=op_streams(), num_shards=st.sampled_from([1, 2, 4]))
    def test_window_zero_is_the_synchronous_path(self, stream,
                                                 num_shards):
        svc_sync = build_service(num_shards)
        svc_serve = build_service(num_shards)
        assert run_sync(svc_sync, stream) == \
            run_served(svc_serve, stream)
        assert state_of(svc_sync) == state_of(svc_serve)

    @settings(max_examples=15, deadline=None)
    @given(stream=op_streams(), num_shards=st.sampled_from([1, 2]),
           window=st.sampled_from([100.0, 1000.0]),
           max_batch=st.sampled_from([2, 8]))
    def test_batched_windows_preserve_results(self, stream, num_shards,
                                              window, max_batch):
        """Micro-batching changes *when* work runs, never what it
        computes: per-shard FIFO keeps same-domain order, so scores
        and final state still match the synchronous replay."""
        svc_sync = build_service(num_shards)
        svc_serve = build_service(num_shards)
        assert run_sync(svc_sync, stream) == \
            run_served(svc_serve, stream, batch_window_ns=window,
                       max_batch=max_batch)
        assert state_of(svc_sync) == state_of(svc_serve)


class TestClosedLoopHarnessIdentity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 50), num_shards=st.sampled_from([1, 2, 4]))
    def test_one_client_window_zero_replays_synchronously(self, seed,
                                                          num_shards):
        """Record what the real 1-client closed-loop harness submits,
        replay it synchronously on a twin service, and demand
        bit-identical scores, stats, and generations."""
        spec = LoadSpec(clients=1, requests=60, domains=4)
        service = build_harness_service(spec, num_shards)
        pipeline = ServingPipeline(service, ServingConfig())
        recorded = []
        inner_submit = pipeline.submit

        def recording_submit(domain, features, op="predict",
                             direction=False):
            future = inner_submit(domain, features, op=op,
                                  direction=direction)
            recorded.append((domain, list(features), op, direction,
                             future))
            return future

        pipeline.submit = recording_submit
        generator = LoadGenerator(spec, seed=seed)
        generator.start_closed_loop(pipeline)
        pipeline.run()
        assert len(recorded) == spec.requests
        counters = pipeline.snapshot()
        assert [counters[key] for key in (
            "submitted", "completed", "shed", "failed", "in_flight",
        )] == [spec.requests, spec.requests, 0, 0, 0]

        twin = build_harness_service(spec, num_shards)
        for domain, features, op, direction, future in recorded:
            if op == "predict":
                assert future.result() == twin.predict(domain,
                                                       features)
            else:
                twin.update(domain, features, direction)
                assert future.result() is None
        for name in spec.domain_names():
            assert service.domain(name).stats == \
                twin.domain(name).stats
            assert service.domain(name).generation == \
                twin.domain(name).generation


    def test_several_clients_complete_the_load(self):
        """Whichever client submits the last request marks the load
        complete (the pipeline's ``submitted`` says which), so the SLO
        monitor winds down and the engine drains on its own."""
        spec = LoadSpec(clients=3, requests=20, domains=4,
                        per_client_rate=1e-3)
        pipeline = ServingPipeline(build_harness_service(spec, 2),
                                   ServingConfig(), slos=serving_slos())
        LoadGenerator(spec, seed=1).start_closed_loop(pipeline)
        pipeline.run(until=1e9)     # a monitor never told would tick on
        counters = pipeline.snapshot()
        assert (counters["submitted"], counters["completed"]) == (20, 20)
        assert pipeline.engine.pending() == 0


def build_harness_service(spec, num_shards):
    service = ShardedService(num_shards=num_shards)
    for name in spec.domain_names():
        service.create_domain(name)
    return service


# -- one contract: what sync refuses, submit refuses, the same way ----------

OWNER = ClientIdentity(uid=1, program="owner")
GUEST = ClientIdentity(uid=2, program="guest")      # finite quota
ANONYMOUS = ClientIdentity()                         # a bare name
TENANTS = (OWNER, GUEST, ANONYMOUS)
POLICIES = {
    "open": None,
    "private": private_policy(OWNER),
    "readonly": DomainPolicy(owner=OWNER, mode=SharingMode.READ_ONLY),
}
GOOD_ROWS = st.tuples(st.integers(0, 7), st.integers(0, 7))
WRONG_LENGTH = st.sampled_from([(1,), (1, 2, 3)])


def contract_streams(rows=st.one_of(GOOD_ROWS, GOOD_ROWS, WRONG_LENGTH)):
    """(who, domain name, op, row, direction); "ghost" is no domain."""
    return st.lists(
        st.tuples(st.sampled_from(TENANTS),
                  st.sampled_from([*POLICIES, "ghost"]),
                  st.sampled_from(["predict", "update"]),
                  rows, st.booleans()),
        min_size=1, max_size=40)


def build_contract_service(num_shards, guest_quota):
    admission = AdmissionController()
    admission.set_quota(GUEST, guest_quota)
    service = ShardedService(ServiceConfig(implicit_domains=False),
                             num_shards=num_shards, admission=admission)
    for name, policy in POLICIES.items():
        service.create_domain(name, config=PSSConfig(num_features=2),
                              policy=policy)
    handles = {(who, name): service.handle(name, who)
               for who in TENANTS for name in POLICIES}
    return service, handles


def outcome(call):
    """The call's value, or the type of the PSSError it refused with."""
    try:
        return call()
    except PSSError as error:
        return type(error)


def contract_sync(service, handles, stream):
    """The synchronous path: each tenant through its own handle (an
    unknown name has none: by name, the kernel says so)."""
    results = []
    for who, name, op, row, direction in stream:
        handle = handles.get((who, name))
        if handle is None:
            results.append(outcome(lambda: service.predict(name, row)))
        elif op == "predict":
            results.append(outcome(lambda: handle.predict(row)))
        else:
            results.append(outcome(lambda: handle.update(row, direction)))
    return results


def contract_served(service, handles, stream, window=0.0, max_batch=32):
    """The pipeline: the same handles submitted, a bare name where the
    sync caller is anonymous or the name is unknown."""
    pipeline = ServingPipeline(
        service, ServingConfig(max_batch=max_batch,
                               batch_window_ns=window))
    futures = []
    for who, name, op, row, direction in stream:
        target = name if who is ANONYMOUS or name == "ghost" \
            else handles[who, name]
        futures.append(pipeline.submit(target, list(row), op=op,
                                       direction=direction))
    pipeline.run()
    assert all(future.done for future in futures)
    snapshot = pipeline.snapshot()
    assert snapshot["in_flight"] == snapshot["shed"] == 0
    assert snapshot["failed"] == sum(f.error is not None for f in futures)
    return [outcome(future.result) for future in futures]


def contract_state(service):
    domains = {name: (service.domain(name).stats,
                      service.domain(name).generation)
               for name in POLICIES}
    usage = {who.program: service.admission.usage_for(who)
             for who in TENANTS}
    return domains, usage, service.has_domain("ghost")


class TestOneContract:
    @settings(max_examples=60, deadline=None)
    @given(stream=contract_streams(),
           num_shards=st.sampled_from([1, 2, 4]),
           window=st.sampled_from([0.0, 100.0, 1000.0]),
           max_batch=st.sampled_from([2, 8, 32]))
    def test_sync_and_pipeline_agree_on_every_outcome_and_charge(
            self, stream, num_shards, window, max_batch):
        quota = TenantQuota(predict_budget=4, update_budget=3)
        sync = build_contract_service(num_shards, quota)
        served = build_contract_service(num_shards, quota)
        assert contract_sync(*sync, stream) == contract_served(
            *served, stream, window=window, max_batch=max_batch)
        assert contract_state(sync[0]) == contract_state(served[0])

    @settings(max_examples=60, deadline=None)
    @given(stream=contract_streams(
               rows=st.one_of(GOOD_ROWS, GOOD_ROWS, WRONG_LENGTH,
                              st.just((1, "2")))),
           num_shards=st.sampled_from([1, 2, 4]),
           window=st.sampled_from([0.0, 100.0, 1000.0]),
           max_batch=st.sampled_from([2, 8, 32]))
    def test_an_outcome_is_independent_of_its_batch_mates(
            self, stream, num_shards, window, max_batch):
        """Serve the stream, then only the requests of it that were
        served: each gets the score it got in company, whatever was
        refused (policy, length, unknown name) or failed late (the
        non-int entry) next to it.  Quotas are unlimited here - a
        refused wrong-length row is charged, as on the sync path, so
        under a finite budget dropping it would move later refusals."""
        together = contract_served(
            *build_contract_service(num_shards, TenantQuota()),
            stream, window=window, max_batch=max_batch)
        served = [request for request, result in zip(stream, together)
                  if not isinstance(result, type)]
        alone = contract_served(
            *build_contract_service(num_shards, TenantQuota()),
            served, window=window, max_batch=max_batch)
        assert alone == [result for result in together
                         if not isinstance(result, type)]
        for (_who, name, _op, row, _d), result in zip(stream, together):
            bad = name == "ghost" or len(row) != 2 or row == (1, "2")
            assert not (bad and not isinstance(result, type))

    def test_a_removed_domain_refuses_called_and_submitted_alike(self):
        """A handle outlives its domain.  Every operation under it -
        the cached vDSO read included - says ``DomainError``, as a
        submit under it does; a domain that only *moved* (evicted by one
        shard, adopted by another) refuses nothing."""
        service, handles = build_contract_service(2, TenantQuota())
        handle, row = handles[OWNER, "private"], (1, 2)
        client = service.connect("private", identity=OWNER)
        service.reshard(3)
        warm = client.predict(row)
        assert handle.predict(row) == client.predict(row) == warm
        service.remove_domain("private")
        for call in (
                lambda: handle.predict(row),
                lambda: handle.predict_mapped(row),
                lambda: handle.predict_batch([row]),
                lambda: handle.record_cached_prediction(warm),
                lambda: handle.update(row, True),
                lambda: handle.update_batch([(row, True)]),
                lambda: handle.reset(row, False),
                lambda: handle.admit("predict", row),
                lambda: handle.admit("update", row),
                lambda: client.predict(row)):
            assert outcome(call) is DomainError
        assert contract_served(service, handles, [
            (OWNER, "private", "predict", row, True),
            (OWNER, "private", "update", row, True),
        ]) == [DomainError, DomainError]
