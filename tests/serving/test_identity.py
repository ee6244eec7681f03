"""The refactor's safety net: serve mode is the same computation.

A 1-client, batch-window-0 serve run must be *bit-identical* to the
synchronous scalar path - scores, per-domain prediction stats, and
weight generations - because the pipeline is a frontend over the same
kernel, not a second implementation.  Hypothesis drives arbitrary
predict/update interleavings over 1/2/4 shards and multiple domains,
and a recorded closed-loop :class:`LoadGenerator` run is replayed
synchronously to pin the real harness, not just hand-built streams.
That it is also the same *contract* - what the synchronous path
refuses, a submit refuses with the same charge, whatever shares its
batch - is checked by ``tests/test_machine.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.loadgen import LoadGenerator, LoadSpec
from repro.core.config import PSSConfig
from repro.core.errors import DomainError, PSSError
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity, private_policy
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
        handle = service.handle(DOMAINS[index])
        if op == "predict":
            scores.append(handle.predict(list(features)))
        else:
            handle.update(list(features), direction)
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
                assert future.result() == \
                    twin.handle(domain).predict(features)
            else:
                twin.handle(domain).update(features, direction)
                assert future.result() is None
        for name in spec.domain_names():
            assert service.domain(name).stats == \
                twin.domain(name).stats
            assert service.domain(name).generation == \
                twin.domain(name).generation


    def test_several_clients_complete_the_load(self):
        """The clients between them submit the whole load, and the
        engine drains on its own; a run to a far ``until`` judges every
        evaluation grid point up to it, the idle ones counted at once
        (looping them would take seconds)."""
        spec = LoadSpec(clients=3, requests=20, domains=4,
                        per_client_rate=1e-3)
        pipeline = ServingPipeline(build_harness_service(spec, 2),
                                   ServingConfig(), slos=serving_slos())
        LoadGenerator(spec, seed=1).start_closed_loop(pipeline)
        pipeline.run(until=1e9)
        counters = pipeline.snapshot()
        assert (counters["submitted"], counters["completed"]) == (20, 20)
        assert counters["slo"]["evals"] == 1e9 // 2_000
        assert pipeline.engine.pending() == 0


def build_harness_service(spec, num_shards):
    service = ShardedService(num_shards=num_shards)
    for name in spec.domain_names():
        service.create_domain(name)
    return service


OWNER = ClientIdentity(uid=1, program="owner")


def outcome(call):
    """The call's value, or the type of the PSSError it refused with."""
    try:
        return call()
    except PSSError as error:
        return type(error)


class TestOneContract:
    def test_a_removed_domain_refuses_called_and_submitted_alike(self):
        """A handle outlives its domain.  Every operation under it -
        the cached vDSO read included - says ``DomainError``, as a
        submit under it does; a domain that only *moved* (evicted by one
        shard, adopted by another) refuses nothing."""
        service = ShardedService(num_shards=2)
        service.create_domain("private", config=PSSConfig(num_features=2),
                              policy=private_policy(OWNER))
        handle, row = service.handle("private", OWNER), (1, 2)
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
        pipeline = ServingPipeline(service, ServingConfig())
        futures = [pipeline.submit(handle, row),
                   pipeline.submit(handle, row, op="update",
                                   direction=True)]
        pipeline.run()
        assert [outcome(future.result) for future in futures] \
            == [DomainError, DomainError]
