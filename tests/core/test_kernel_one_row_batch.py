"""A one-row kernel batch is the scalar kernel predict, observably.

``tests/core/test_one_row_batch.py`` one layer up.
``ShardedService.predict_batch([(name, row)])`` answers through the
body ``ShardedService.predict`` runs, with what that raises as the
row's outcome; with an identity the pair is
``DomainHandle.predict_batch([row])`` and ``DomainHandle.predict(row)``
(the kernel batch takes none).  Three services take the same
hypothesis-drawn stream of scalar predicts, one-row batches, multi-row
batches, updates, bad rows, unknown names, quota-refused identities
and crashes (with and without a synced follower): one sends every
one-row batch through ``predict_batch``, one sends it through
``predict``, and a third is the first again with a tracer attached.
After every step they must agree on the score or the exception type,
and the first two on everything a caller can read afterwards:
``PredictionStats``, generations, the index cache's counters and key
order, admission usage and ``failover_predictions``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.errors import (
    DomainError,
    FeatureError,
    QuotaExceededError,
    ShardDownError,
)
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.kernel.replica import ReplicaPromoter
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import Tracer, validate_spans

CONFIG = PSSConfig(num_features=2, entries_per_feature=16)
DOMAINS = [f"d{i}" for i in range(5)]
ROWS = [(i, 3 * i + 1) for i in range(6)]
BAD_ROWS = [(1,), (1, 2, 3), (1, "2")]
NUM_SHARDS = 2
#: never refused / refused after its twelfth prediction
ROOMY = ClientIdentity(uid=1, program="roomy")
TIGHT = ClientIdentity(uid=2, program="tight")
TIGHT_BUDGET = 12


def build(tracer=None):
    admission = AdmissionController()
    admission.set_quota(TIGHT, TenantQuota(predict_budget=TIGHT_BUDGET))
    service = ShardedService(num_shards=NUM_SHARDS, num_replicas=1,
                             tracer=tracer, admission=admission)
    for index, name in enumerate(DOMAINS):
        service.create_domain(name, config=CONFIG)
        for _ in range(index):   # distinct learned state per domain
            service.handle(name).update(ROWS[index % len(ROWS)], True)
    return service


names = st.one_of(st.sampled_from(DOMAINS), st.just("ghost"))
# good rows and one-row steps are listed twice: drawn twice as often
rows = st.one_of(st.sampled_from(ROWS), st.sampled_from(ROWS),
                 st.sampled_from(BAD_ROWS))
pairs = st.tuples(names, rows)
identities = st.sampled_from([None, ROOMY, TIGHT])
steps = st.one_of(
    st.tuples(st.just("scalar"), pairs),
    st.tuples(st.just("one"), st.tuples(pairs, identities)),
    st.tuples(st.just("one"), st.tuples(pairs, identities)),
    st.tuples(st.just("batch"), st.lists(pairs, min_size=2, max_size=6)),
    st.tuples(st.just("update"),
              st.tuples(names, rows, st.booleans())),
    st.tuples(st.just("sync"), st.none()),
    st.tuples(st.just("crash"), st.integers(0, NUM_SHARDS - 1)),
    st.tuples(st.just("promote"), st.integers(0, NUM_SHARDS - 1)),
)


def outcome_names(outcomes):
    """A kernel batch's outcomes with each error as its type's name."""
    return [type(outcome).__name__ if isinstance(outcome, Exception)
            else outcome for outcome in outcomes]


def one_row(service, name, row, identity, through_batch):
    """One row as a batch of one, or as the scalar call it must be."""
    if identity is None:
        if not through_batch:
            return [service.predict(name, row)]
        outcome, = service.predict_batch([(name, row)])
        if isinstance(outcome, Exception):
            raise outcome
        return [outcome]
    service.domain(name)   # a handle would create the unknown name
    handle = service.handle(name, identity)
    if through_batch:
        return handle.predict_batch([row])
    return [handle.predict(row)]


def apply(service, step, one_row_through_batch):
    """Run one step; returns its scores, or the error's type name."""
    op, arg = step
    try:
        if op == "scalar":
            return [service.predict(*arg)]
        if op == "one":
            (name, row), identity = arg
            return one_row(service, name, row, identity,
                           one_row_through_batch)
        if op == "batch":
            return outcome_names(service.predict_batch(arg))
        if op == "update":
            name, row, direction = arg
            service.domain(name)   # a handle would create the unknown name
            service.handle(name).update(row, direction)
        elif op == "sync":
            service.sync_replicas()
        elif op == "crash":
            if not service.shard(arg).down:
                service.crash_shard(arg)
        elif service.shard(arg).down:
            ReplicaPromoter(service).promote(arg)
        return []
    except (DomainError, FeatureError, QuotaExceededError,
            ShardDownError) as error:
        return type(error).__name__


def observable(service):
    domains = {}
    for name in DOMAINS:
        domain = service.domain(name)
        report = domain.report()
        domains[name] = (
            report.stats, report.generation, report.index_cache_hits,
            report.index_cache_misses,
            list(domain.model.weights._index_cache))
    usage = {who.program: (service.admission.usage_for(who).predictions,
                           service.admission.usage_for(who).rejections)
             for who in (ROOMY, TIGHT)}
    failovers = [shard.failover_predictions for shard in service.shards]
    return domains, usage, failovers


class TestOneRowKernelBatchIsTheScalarPredict:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(steps, max_size=40))
    def test_interleaved_streams_agree_step_by_step(self, stream):
        tracer = Tracer()
        batched, scalar, traced = build(), build(), build(tracer)
        for step in stream:
            got = apply(batched, step, one_row_through_batch=True)
            want = apply(scalar, step, one_row_through_batch=False)
            seen = apply(traced, step, one_row_through_batch=True)
            assert got == want == seen, step
            assert observable(batched) == observable(scalar), step
        assert observable(traced) == observable(batched)
        validate_spans(tracer.spans())
        assert not tracer.open_spans()

    @pytest.mark.parametrize("identity", [None, ROOMY])
    def test_failover_and_no_follower(self, identity):
        """Crashed with a synced follower a one-row batch is served by
        it; crashed before any sync it is refused like the scalar."""
        batched, scalar = build(), build()
        shard_id = batched.shard_of("d1")
        for service in (batched, scalar):
            service.crash_shard(shard_id)
        step = ("one", (("d1", ROWS[1]), identity))
        assert apply(batched, step, True) == "ShardDownError" \
            == apply(scalar, step, False)
        assert observable(batched) == observable(scalar)
        for service in (batched, scalar):
            ReplicaPromoter(service).promote(shard_id)
            service.handle("d1").update(ROWS[1], True)
            service.sync_replicas()
            service.crash_shard(shard_id)
        got = apply(batched, step, True)
        assert isinstance(got, list) and got == apply(scalar, step, False)
        assert batched.shard(shard_id).failover_predictions == 1
        assert observable(batched) == observable(scalar)

    def test_refused_identity_is_charged_nothing_and_scores_nothing(self):
        service = build()
        handle = service.handle("d0", TIGHT)
        for _ in range(TIGHT_BUDGET):
            handle.predict_batch([ROWS[0]])
        before = service.domain("d0").report().stats.predictions
        with pytest.raises(QuotaExceededError):
            handle.predict_batch([ROWS[0]])
        usage = service.admission.usage_for(TIGHT)
        assert (usage.predictions, usage.rejections) == (TIGHT_BUDGET, 1)
        assert service.domain("d0").report().stats.predictions == before


def served_record(service, tracer, name, row):
    """The one record a window-0 pipeline leaves for ``row``."""
    pipeline = ServingPipeline(service, ServingConfig(batch_window_ns=0.0))
    tracer.clear()
    pipeline.submit(name, row)
    pipeline.run()
    assert tracer.spans() == []
    record, = tracer.events()
    assert record.kind == "request"
    return record


class TestOneRowSpanTree:
    def test_one_row_leaves_the_sync_handles_tree(self):
        """A one-row kernel batch is one served request: it opens no
        span and records nothing - its record is the pipeline's
        ``request``, which names the domain, shard label and outcome
        the sync handle's ``kernel.predict`` span names.  A charge of
        one is no ``kernel.admission`` stage."""
        tracer = Tracer()
        service = build(tracer)
        handle = service.handle("d3", ROOMY)
        tracer.clear()
        service.predict_batch([("d3", ROWS[2])])
        assert tracer.spans() == [] and len(tracer.events()) == 0
        handle.predict(ROWS[2])
        root, = validate_spans(tracer.spans())
        assert len(tracer.spans()) == 1
        assert len(tracer.events()) == 0
        assert (root.name, root.domain, root.shard, root.status) == (
            "kernel.predict", "d3", str(service.shard_of("d3")), "ok")
        record = served_record(service, tracer, "d3", ROWS[2])
        assert (record.domain, record.shard, record.detail["outcome"]) \
            == (root.domain, root.shard, root.status)

    def test_scalar_predict_opens_the_same_span(self):
        """The by-name scalar opens none either: the span is the
        handle's, whoever asks."""
        tracer = Tracer()
        service = build(tracer)
        tracer.clear()
        service.predict("d3", ROWS[2])
        assert tracer.spans() == []
        service.handle("d3").predict(ROWS[2])
        root, = tracer.spans()
        assert (root.name, root.domain) == ("kernel.predict", "d3")

    def test_refused_one_row_closes_its_span_with_the_error(self):
        """A row the kernel refuses is that row's outcome, with no span
        opened for it; served, the request's record carries the error
        the handle's span closes with."""
        tracer = Tracer()
        service = build(tracer)
        tracer.clear()
        outcome, = service.predict_batch([("d0", (1, 2, 3))])
        assert isinstance(outcome, FeatureError)
        assert tracer.spans() == [] and len(tracer.events()) == 0
        with pytest.raises(FeatureError):
            service.handle("d0").predict((1, "2"))
        root, = tracer.spans()
        assert (root.name, root.status) == ("kernel.predict",
                                            "error:FeatureError")
        record = served_record(service, tracer, "d0", (1, "2"))
        assert record.detail["outcome"] == root.status
        tracer.clear()
        outcome, = service.predict_batch([("ghost", ROWS[0])])
        assert isinstance(outcome, DomainError)
        assert tracer.spans() == []   # nothing resolved, nothing entered
