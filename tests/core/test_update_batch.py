"""``update_batch(records)`` is the scalar loop, observably.

The write path's twin of ``tests/core/test_batch_identity.py``: at every
layer that owns a batch body - ``WeightMatrix.train_batch`` /
``HashedPerceptron.update_batch``, ``Domain.update_batch``,
``DomainHandle.update_batch`` and the vDSO flush that calls it - a
batch of update records leaves what ``for r in records: update(*r)``
leaves on a twin stack: weights, bias, generation, the index cache's
keys *in order* and its hit / miss counters, ``PredictionStats`` and
``TenantUsage``.  Where the two are documented to differ - a refused
suffix, a malformed record among good ones - the difference is pinned.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.core.errors import (
    DomainError,
    FeatureError,
    PolicyError,
    QuotaExceededError,
    ShardDownError,
    TransportFault,
)
from repro.core.faults import FaultInjector, FaultPlan, attach_injector
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.kernel.replica import ReplicaPromoter
from repro.core.models import PredictorModel
from repro.core.perceptron import HashedPerceptron
from repro.core.policy import ClientIdentity, DomainPolicy, SharingMode
from repro.obs import Tracer

#: a margin this small is cleared after a few repeats, so the streams
#: below hold records the margin rule skips as well as records it trains
CONFIG = PSSConfig(num_features=2, entries_per_feature=16, weight_bits=4,
                   training_margin=2)
ROWS = [(i, 3 * i + 1) for i in range(6)]
BAD_ROWS = [(1,), (1, 2, 3), (1, "2")]
WHO = ClientIdentity()

records_of = st.lists(
    st.tuples(st.sampled_from(ROWS), st.booleans()), max_size=40)


def records_with(bad_rows):
    """Good rows listed three times: drawn three times as often as
    the malformed ones."""
    return st.lists(
        st.tuples(st.one_of(*[st.sampled_from(ROWS)] * 3,
                            st.sampled_from(bad_rows)),
                  st.booleans()),
        max_size=24)


mixed_records = records_with(BAD_ROWS)


def shrink_index_cache(weights, entries=3):
    """Fewer entries than ``ROWS`` has rows, so a stream evicts."""
    weights.INDEX_CACHE_ENTRIES = entries


def weights_state(weights):
    return {
        "weights": list(weights.iter_weights()),   # bias last
        "generation": weights.generation,
        "cache": list(weights._index_cache.items()),
        "hits": weights.index_cache_hits,
        "misses": weights.index_cache_misses,
    }


def scalar_loop(update, records):
    """The scalar replay of a batch: every record, a malformed one
    refused on its own.  Returns the positions refused."""
    refused = []
    for position, (features, direction) in enumerate(records):
        try:
            update(features, direction)
        except FeatureError:
            refused.append(position)
    return tuple(refused)


def batch_call(update_batch, records):
    """One batch call; returns the positions it reports refused."""
    try:
        update_batch(records)
    except FeatureError as error:
        assert len(error.refused) > 0
        return error.refused
    return ()


class TestModelBatchIsTheScalarLoop:
    @settings(max_examples=150, deadline=None)
    @given(batches=st.lists(mixed_records, max_size=4),
           tiny_cache=st.booleans())
    def test_weights_cache_and_counters(self, batches, tiny_cache):
        batched, scalar = HashedPerceptron(CONFIG), HashedPerceptron(CONFIG)
        if tiny_cache:
            shrink_index_cache(batched.weights)
            shrink_index_cache(scalar.weights)
        for records in batches:
            assert batch_call(batched.update_batch, records) \
                == scalar_loop(scalar.update, records)
            assert weights_state(batched.weights) \
                == weights_state(scalar.weights)

    def test_stream_holds_trained_skipped_and_evicting_records(self):
        """The generator's premise: with this config a stream of
        repeats both trains and margin-skips, and evicts from a
        shrunken cache."""
        model = HashedPerceptron(CONFIG)
        shrink_index_cache(model.weights)
        records = [(ROWS[i % 6], True) for i in range(60)]
        model.update_batch(records)
        assert 0 < model.generation < len(records)
        assert model.weights.index_cache_misses > len(ROWS)
        assert len(model.weights._index_cache) == 3

    def test_a_malformed_record_costs_only_itself(self):
        model = HashedPerceptron(CONFIG)
        records = [(ROWS[0], True), ((1, 2, 3), True), (ROWS[1], False),
                   ((1,), True), (ROWS[2], True)]
        with pytest.raises(FeatureError, match="got 3") as exc_info:
            model.update_batch(records)
        assert exc_info.value.refused == (1, 3)     # two records lost
        assert model.generation == 3
        assert list(model.weights._index_cache) == ROWS[:3]

    def test_scalar_feature_error_lost_nothing(self):
        with pytest.raises(FeatureError) as exc_info:
            HashedPerceptron(CONFIG).update((1, 2, 3), True)
        assert exc_info.value.lost_records == 0


# -- domain and handle ------------------------------------------------------


def build(num_shards=1, model="perceptron", quota=None, tracer=None,
          num_replicas=0):
    admission = AdmissionController()
    if quota is not None:
        admission.set_quota(WHO, quota)
    service = PredictionService(num_shards=num_shards, tracer=tracer,
                                num_replicas=num_replicas,
                                admission=admission)
    service.create_domain("dom", config=CONFIG, model=model)
    return service


def stack_state(service):
    domain = service.domain("dom")
    report = domain.report()
    usage = service.admission.usage_for(WHO)
    weights = getattr(domain.model, "weights", None)
    return {
        "stats": report.stats,
        "generation": report.generation,
        "usage": (usage.updates, usage.predictions, usage.rejections),
        "weights": weights_state(weights) if weights is not None
        else domain.model.to_state(),
    }


class TestHandleBatchIsTheScalarLoop:
    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(mixed_records, max_size=4),
           num_shards=st.sampled_from([1, 3]),
           tiny_cache=st.booleans())
    def test_stats_usage_and_model_state(self, batches, num_shards,
                                         tiny_cache):
        batched, scalar = build(num_shards), build(num_shards)
        if tiny_cache:
            for service in (batched, scalar):
                shrink_index_cache(service.domain("dom").model.weights)
        handle_b, handle_s = batched.handle("dom"), scalar.handle("dom")
        for records in batches:
            assert batch_call(handle_b.update_batch, records) \
                == scalar_loop(handle_s.update, records)
            assert stack_state(batched) == stack_state(scalar)

    @pytest.mark.parametrize("model", ["linear", "majority", "stumps"])
    @settings(max_examples=25, deadline=None)
    @given(batches=st.lists(records_with(BAD_ROWS[:2]), max_size=3))
    def test_a_model_without_update_batch(self, model, batches):
        """No batch body of the model's own: it inherits the scalar
        loop, and its per-record generation count.  (These models
        validate a row's length only.)"""
        batched, scalar = build(model=model), build(model=model)
        assert type(batched.domain("dom").model).update_batch \
            is PredictorModel.update_batch
        handle_b, handle_s = batched.handle("dom"), scalar.handle("dom")
        for records in batches:
            assert batch_call(handle_b.update_batch, records) \
                == scalar_loop(handle_s.update, records)
            assert stack_state(batched) == stack_state(scalar)

    def test_empty_batch_is_no_dispatch(self):
        tracer = Tracer()
        service = build(tracer=tracer, quota=TenantQuota(update_budget=0))
        tracer.clear()
        service.handle("dom").update_batch([])
        assert tracer.spans() == [] and len(tracer) == 0
        assert stack_state(service) == stack_state(build())

    def test_shard_down_refuses_before_charging(self):
        service = build(num_shards=3)
        records = [(row, True) for row in ROWS]
        service.crash_shard(service.shard_of("dom"))
        before = stack_state(service)
        with pytest.raises(ShardDownError) as exc_info:
            service.handle("dom").update_batch(records)
        assert exc_info.value.lost_records == len(records)
        assert stack_state(service) == before
        assert service.admission.usage_for(WHO).updates == 0

    @settings(max_examples=60, deadline=None)
    @given(records=records_of.filter(bool), room=st.integers(0, 45),
           spent=st.integers(0, 3))
    def test_quota_with_room_for_k_of_n(self, records, room, spent):
        """The first k records are applied and charged, the rest
        refused with one rejection - what the scalar loop that stops at
        its first refusal does."""
        quota = TenantQuota(update_budget=spent + room)
        batched, scalar = build(quota=quota), build(quota=quota)
        handle_b, handle_s = batched.handle("dom"), scalar.handle("dom")
        for handle in (handle_b, handle_s):
            for _ in range(spent):
                handle.update(ROWS[0], True)
        fits = min(room, len(records))
        if fits == len(records):
            handle_b.update_batch(records)
        else:
            with pytest.raises(QuotaExceededError) as exc_info:
                handle_b.update_batch(records)
            assert exc_info.value.lost_records == len(records) - fits
            assert exc_info.value.resource == "updates"
        for features, direction in records[:fits]:
            handle_s.update(features, direction)
        if fits < len(records):
            with pytest.raises(QuotaExceededError):
                handle_s.update(*records[fits])
        assert stack_state(batched) == stack_state(scalar)
        usage = batched.admission.usage_for(WHO)
        assert usage.updates == spent + fits
        assert usage.rejections == (fits < len(records))

    def test_a_malformed_record_in_the_prefix_is_lost_with_the_suffix(self):
        service = build(quota=TenantQuota(update_budget=3))
        records = [(ROWS[0], True), ((1, 2, 3), True), (ROWS[1], True),
                   (ROWS[2], True), (ROWS[3], True)]
        with pytest.raises(QuotaExceededError) as exc_info:
            service.handle("dom").update_batch(records)
        assert exc_info.value.lost_records == 2 + 1
        assert service.domain("dom").stats.updates == 2
        assert service.admission.usage_for(WHO).updates == 3


# -- a one-record batch is the scalar call, step by step --------------------

one_record_steps = st.one_of(
    st.tuples(st.just("update"),
              st.tuples(st.one_of(st.sampled_from(ROWS),
                                  st.sampled_from(ROWS),
                                  st.sampled_from(BAD_ROWS)),
                        st.booleans())),
    st.tuples(st.just("predict"), st.sampled_from(ROWS)),
    st.tuples(st.just("quota"), st.integers(0, 3)),
    st.tuples(st.just("crash"), st.none()),
    st.tuples(st.just("promote"), st.none()),
)


def apply_one(service, handle, step, through_batch):
    op, arg = step
    shard_id = service.shard_of("dom")
    try:
        if op == "update":
            if through_batch:
                handle.update_batch([arg])
            else:
                handle.update(*arg)
        elif op == "predict":
            return handle.predict(arg)
        elif op == "quota":   # room for ``arg`` more records
            spent = service.admission.usage_for(WHO).updates
            service.admission.set_quota(
                WHO, TenantQuota(update_budget=spent + arg))
        elif op == "crash":
            if not service.shard(shard_id).down:
                service.crash_shard(shard_id)
        elif service.shard(shard_id).down:
            ReplicaPromoter(service).promote(shard_id)
        return None
    except (FeatureError, QuotaExceededError, ShardDownError) as error:
        return type(error).__name__


class TestOneRecordBatchIsTheScalarUpdate:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(one_record_steps, max_size=40))
    def test_interleaved_streams_agree_step_by_step(self, stream):
        tracer = Tracer()
        stacks = [build(2, num_replicas=1), build(2, num_replicas=1),
                  build(2, num_replicas=1, tracer=tracer)]
        handles = [service.handle("dom") for service in stacks]
        for step in stream:
            got, want, seen = (
                apply_one(service, handle, step, through_batch)
                for service, handle, through_batch
                in zip(stacks, handles, (True, False, True)))
            assert got == want == seen, step
            assert stack_state(stacks[0]) == stack_state(stacks[1]), step
        assert stack_state(stacks[2]) == stack_state(stacks[0])
        assert not tracer.open_spans()


# -- through the client: N buffered updates and a flush ---------------------


def client_state(service, client):
    state = stack_state(service)
    state["account"] = (client.latency.update_records,
                        client.pending_updates)
    return state


class TestFlushIsTheScalarLoop:
    @settings(max_examples=40, deadline=None)
    @given(records=records_of, num_shards=st.sampled_from([1, 3]),
           batch_size=st.sampled_from([2, 7, 32]),
           tiny_cache=st.booleans())
    def test_buffered_against_batch_size_1_and_syscall(
            self, records, num_shards, batch_size, tiny_cache):
        stacks = []
        for transport, size in (("vdso", batch_size), ("vdso", 1),
                                ("syscall", None)):
            service = build(num_shards)
            if tiny_cache:
                shrink_index_cache(service.domain("dom").model.weights)
            client = service.connect("dom", transport=transport,
                                     batch_size=size)
            for features, direction in records:
                client.update(features, direction)
            client.flush()
            stacks.append(client_state(service, client))
        assert stacks[0] == stacks[1] == stacks[2]

    @pytest.mark.parametrize("tracer", [None, Tracer()])
    def test_quota_refusal_drops_the_suffix_and_says_so(self, tracer):
        service = build(quota=TenantQuota(update_budget=5), tracer=tracer)
        # the transport under the client: the refusal raises here
        client = service.connect("dom", batch_size=8)._transport
        with pytest.raises(QuotaExceededError) as exc_info:
            for i in range(8):
                client.update(ROWS[i % 6], True)
        assert exc_info.value.lost_records == 3
        assert service.domain("dom").stats.updates == 5
        usage = service.admission.usage_for(WHO)
        assert (usage.updates, usage.rejections) == (5, 1)
        assert client.pending_updates == 0
        if tracer is not None:
            fault, = [event for event in tracer.events()
                      if event.kind == "fault"]
            assert fault.detail == {"op": "flush", "errno": "EDQUOT",
                                    "lost_records": 3}

    def test_shard_down_flush_loses_the_whole_buffer(self):
        tracer = Tracer()
        service = build(num_shards=3, tracer=tracer)
        client = service.connect("dom", batch_size=8)._transport
        for i in range(5):
            client.update(ROWS[i], True)
        service.crash_shard(service.shard_of("dom"))
        with pytest.raises(ShardDownError) as exc_info:
            client.flush()
        assert exc_info.value.lost_records == 5
        assert service.admission.usage_for(WHO).updates == 0
        assert service.domain("dom").stats.updates == 0
        fault, = [event for event in tracer.events()
                  if event.kind == "fault"]
        assert fault.detail == {"op": "flush", "errno": "EHOSTDOWN",
                                "lost_records": 5}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 50), count=st.integers(2, 12))
    def test_injected_partial_delivery_delivers_exactly_the_prefix(
            self, seed, count):
        records = [(ROWS[i % 6], i % 2 == 0) for i in range(count)]
        service, scalar = build(), build()
        client = service.connect("dom", batch_size=64)._transport
        attach_injector(client, FaultInjector(
            FaultPlan(seed=seed, partial_flush_rate=1.0)))
        for features, direction in records:
            client.update(features, direction)
        with pytest.raises(TransportFault) as exc_info:
            client.flush()
        delivered = count - exc_info.value.lost_records
        assert 0 <= delivered < count
        assert client.account.update_records == delivered
        handle = scalar.handle("dom")
        for features, direction in records[:delivered]:
            handle.update(features, direction)
        assert stack_state(service) == stack_state(scalar)


# -- the bug this contract fixes --------------------------------------------


class TestOneBadRecordDoesNotTakeItsNeighbours:
    """Reproduced at the parent: the fourth call raised for the second
    call's row, ``(3, 4)`` and ``(5, 6)`` were never applied, and
    nothing said so."""

    CALLS = [(1, 2), (1, 2, 3), (3, 4), (5, 6)]

    def drive(self, **connect):
        service = PredictionService()
        client = service.connect(
            "d", transport="vdso", batch_size=4,
            config=PSSConfig(num_features=2), **connect)
        for row in self.CALLS[:3]:
            client.update(row, True)
        with pytest.raises(FeatureError, match="got 3") as exc_info:
            client.update(self.CALLS[3], True)
        return service, client, exc_info.value

    def test_plain_client_applies_three_of_four(self):
        service, client, error = self.drive()
        assert service.domain("d").stats.updates == 3
        assert client.pending_updates == 0
        assert (error.lost_records, error.refused) == (1, (1,))
        weights = service.domain("d").model.weights
        assert list(weights._index_cache) == [(1, 2), (3, 4), (5, 6)]

    def test_resilient_client_counts_the_one_it_lost(self):
        service, client, error = self.drive(fallback=0)
        assert service.domain("d").stats.updates == 3
        assert error.lost_records == 1
        assert client.stats.dropped_updates == 1
        assert client.breaker_state == "closed"

    @pytest.mark.parametrize("how", ["flush", "close"])
    def test_resilient_flush_and_close_count_it_too(self, how):
        service = PredictionService()
        client = service.connect(
            "d", transport="vdso", batch_size=8, fallback=0,
            config=PSSConfig(num_features=2))
        for row in self.CALLS:
            client.update(row, True)
        with pytest.raises(FeatureError):
            getattr(client, how)()
        assert service.domain("d").stats.updates == 3
        assert client.stats.dropped_updates == 1


class TestAPolicyRefusedFlushCountsWhatItDrops:
    """Reproduced at the parent: a vDSO flush the domain's policy
    refused raised ``PolicyError`` with no ``lost_records``, so the
    buffered records were gone and ``dropped_updates`` stayed 0, where
    a quota or down-shard refusal counts them."""

    @pytest.mark.parametrize("how", ["flush", "update"])
    def test_the_refusal_still_raises_and_counts_the_buffer(self, how):
        owner, other = ClientIdentity(1, "owner"), ClientIdentity(2, "b")
        service = PredictionService()
        service.create_domain(
            "d", config=PSSConfig(num_features=2), identity=owner,
            policy=DomainPolicy(owner=owner, mode=SharingMode.READ_ONLY))
        client = service.connect("d", identity=other,
                                 batch_size=8 if how == "flush" else 2)
        client.update(ROWS[0], True)
        with pytest.raises(PolicyError) as exc_info:
            client.update(ROWS[1], False)  # fills a buffer of 2
            client.flush()
        assert exc_info.value.lost_records == 2
        assert client.stats.dropped_updates == 2
        assert client.pending_updates == 0
        assert service.domain("d").stats.updates == 0


class TestAFlushToARemovedDomainCountsWhatItDrops:
    """A vDSO flush whose domain was removed raises ``DomainError``,
    and its buffered records are counted lost: the loss is decided
    where records are delivered, whatever refuses them (when each
    refusal set its own count, this one set none and
    ``dropped_updates`` stayed 0)."""

    @pytest.mark.parametrize("plan", [
        None,
        # cut short: 2 of the 3 reach the handle, 1 never crosses
        FaultPlan(seed=1, partial_flush_rate=1.0),
    ], ids=["plain", "faulted"])
    def test_the_refusal_still_raises_and_counts_the_buffer(self, plan):
        service = PredictionService()
        client = service.connect("d", config=PSSConfig(num_features=2),
                                 batch_size=8, fault_plan=plan)
        for row in ROWS[:3]:
            client.update(row, True)
        service.remove_domain("d")
        with pytest.raises(DomainError) as exc_info:
            client.flush()
        assert client.stats.dropped_updates == 3
        assert client.pending_updates == 0
        assert exc_info.value.lost_records == 3
