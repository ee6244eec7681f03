"""Property tests: ``predict_batch`` is bit-identical to scalar predicts.

The PRETZEL-style batched/specialized fast path (``WeightMatrix
.dot_batch`` + :mod:`repro.core.plans`) claims *bit identity*: for any
workload, ``predict_batch(rows) == [predict(r) for r in rows]`` - not
just for scores but for every observable the stack exposes (prediction
stats, index- and score-cache counters, cache contents and eviction
order, weight generations).  These properties pin that claim across:

* the raw :class:`~repro.core.weights.WeightMatrix` (vectorized and
  compiled-fallback block paths, interleaved with training), and its
  blocks of first touches, which are cached in one step (into empty,
  part-full and full caches, and longer than the cache);
* vDSO and syscall clients against 1/2/4-shard services, with tracing
  enabled;
* fault injection (stale vDSO reads consume one die per read either
  way);
* batches that raise (a wrong-length row, an exhausted quota, a dead
  shard with no follower): nothing but real values in either cache
  afterwards, and the next batch is still the scalar replay;
* shard crash failover and live resharding;
* checkpoint save/restore (plan bindings drop and re-bind);
* plan sharing: same-shape tenants reuse one compiled plan instance and
  diverge after a shape change.
"""

from collections import Counter, OrderedDict
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.core.errors import (
    FeatureError,
    QuotaExceededError,
    ShardDownError,
)
from repro.core.faults import FaultPlan
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.kernel.checkpoint import ShardedCheckpointManager
from repro.core.kernel.replica import ReplicaPromoter
from repro.core.policy import ClientIdentity
from repro.core.plans import plan_signature
from repro.core.weights import WeightMatrix

from tests.core.reference_impl import ReferenceWeightMatrix
from tests.core.test_weights import REFUSED, Slot, Word


def configs():
    return st.builds(
        PSSConfig,
        num_features=st.integers(1, 3),
        entries_per_feature=st.sampled_from([2, 16, 24]),
        weight_bits=st.integers(2, 8),
        threshold=st.integers(-2, 2),
        seed=st.integers(0, 3),
    )


def matrix_workloads():
    """A config, a vector pool, and a batched/scalar op stream."""
    return configs().flatmap(
        lambda config: st.tuples(
            st.just(config),
            st.lists(
                st.lists(
                    st.integers(-(2 ** 80), 2 ** 80),
                    min_size=config.num_features,
                    max_size=config.num_features,
                ).map(tuple),
                min_size=1, max_size=8, unique=True,
            ),
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ["dot", "batch", "adjust", "reset", "bad_batch"]
                    ),
                    st.lists(st.integers(0, 7), max_size=12),
                ),
                max_size=30,
            ),
        )
    )


def drive_matrix(matrix, pool, stream, scores, scalar_only):
    for op, picks in stream:
        rows = [pool[i % len(pool)] for i in picks] or [pool[0]]
        if op == "dot":
            scores.extend(matrix.dot(row) for row in rows)
        elif op == "batch":
            if scalar_only:
                scores.extend(matrix.dot(row) for row in rows)
            else:
                scores.extend(matrix.dot_batch(rows))
        elif op == "adjust":
            matrix.adjust(rows[0], 1)
        elif op == "reset":
            matrix.reset_entry(rows[0])
        elif hasattr(matrix, "_index_cache"):  # not the reference
            fail_a_matrix_batch(matrix, rows, len(picks), scalar_only)


def fail_a_matrix_batch(matrix, rows, where, scalar_only):
    """A batch with a wrong-length row at ``where`` raises at its
    first miss (the block validates before anything is written).  The
    scalar replay of that: the hits up to there, then the failure."""
    cache = matrix._index_cache
    bad = rows[0] + (0,)
    rows = list(rows)
    rows.insert(where % (len(rows) + 1), bad)
    before = dict(cache)
    first_is_a_miss = rows[0] not in cache
    order = list(cache)
    with pytest.raises(FeatureError):
        if scalar_only:
            for row in rows:
                matrix.dot(row if row in cache else bad)
        else:
            matrix.dot_batch(rows)
    assert dict(cache) == before        # contents untouched ...
    if first_is_a_miss:
        assert list(cache) == order     # ... and, with no hit, order
    assert None not in cache.values()


def matrix_state(matrix):
    return {
        "hits": matrix.index_cache_hits,
        "misses": matrix.index_cache_misses,
        "cache": list(matrix._index_cache.items()),
        "generation": matrix.generation,
        "weights": list(matrix.iter_weights()),
    }


class TestWeightMatrixBatchIdentity:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_equals_scalar_and_reference(self, data):
        config, pool, stream = data.draw(matrix_workloads())
        batched, scalar = WeightMatrix(config), WeightMatrix(config)
        reference = ReferenceWeightMatrix(config)
        b_scores, s_scores, r_scores = [], [], []
        drive_matrix(batched, pool, stream, b_scores, scalar_only=False)
        drive_matrix(scalar, pool, stream, s_scores, scalar_only=True)
        drive_matrix(reference, pool, stream, r_scores, scalar_only=True)
        assert b_scores == s_scores == r_scores
        assert matrix_state(batched) == matrix_state(scalar)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_compiled_fallback_path_identical(self, data):
        """Force the pure-Python block path (what CI without numpy runs)."""
        config, pool, stream = data.draw(matrix_workloads())

        class Fallback(WeightMatrix):
            VECTOR_MIN_ROWS = 10 ** 9  # never vectorize

        batched, scalar = Fallback(config), WeightMatrix(config)
        b_scores, s_scores = [], []
        drive_matrix(batched, pool, stream, b_scores, scalar_only=False)
        drive_matrix(scalar, pool, stream, s_scores, scalar_only=True)
        assert b_scores == s_scores
        assert matrix_state(batched) == matrix_state(scalar)

    def test_eviction_sequence_identical_under_thrash(self):
        class Tiny(WeightMatrix):
            INDEX_CACHE_ENTRIES = 3

        config = PSSConfig(num_features=2)
        batched, scalar = Tiny(config), Tiny(config)
        pool = [(i, i + 1) for i in range(6)]
        batch = [pool[i % 6] for i in (0, 1, 2, 3, 0, 4, 1, 1, 5, 0)]
        assert batched.dot_batch(batch) == [scalar.dot(r) for r in batch]
        assert matrix_state(batched) == matrix_state(scalar)


def first_touch_cases():
    """A shape, a cache bound, a vector pool, how many of the pool are
    trained (and so cached) first, the picks among those that lead the
    batch, and where a malformed row goes (None: nowhere).  The rest
    of the pool follows the picks: distinct vectors never seen, so the
    batch ends in a block of first touches."""
    return configs().flatmap(
        lambda config: st.tuples(
            st.just(config),
            st.sampled_from([1, 2, 3, 5, WeightMatrix.INDEX_CACHE_ENTRIES]),
            st.lists(
                st.lists(
                    st.integers(-(2 ** 70), 2 ** 70),
                    min_size=config.num_features,
                    max_size=config.num_features,
                ).map(tuple),
                min_size=2, max_size=24, unique=True,
            ),
            st.integers(0, 8),
            st.lists(st.integers(0, 7), max_size=4),
            st.none() | st.integers(0, 40),
        )
    )


def bounded_pair(config, limit, vector_min_rows):
    """A batched matrix and its scalar twin, both bounded at ``limit``."""

    class Batched(WeightMatrix):
        INDEX_CACHE_ENTRIES = limit
        VECTOR_MIN_ROWS = vector_min_rows

    class Scalar(WeightMatrix):
        INDEX_CACHE_ENTRIES = limit

    return Batched(config), Scalar(config)


class CountingCache(OrderedDict):
    """An index cache that counts the calls made on it, by method name,
    whether Python or C makes them (``sys.setprofile`` sees only the
    C methods Python code calls; ``in`` is a ``__contains__`` call).
    Only outermost calls count: the item writes of a bulk ``update``
    and the deletion inside a ``popitem`` are that call's own."""

    def __init__(self, *args):
        self.calls = Counter()
        self._depth = 0
        super().__init__(*args)


def _counted(name):
    method = getattr(OrderedDict, name)

    def counted(self, *args, **kwargs):
        if not self._depth:
            self.calls[name] += 1
        self._depth += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            self._depth -= 1
    return counted


for _name in ("get", "move_to_end", "popitem", "update", "__setitem__",
              "pop", "__delitem__", "clear", "setdefault", "keys",
              "__contains__"):
    setattr(CountingCache, _name, _counted(_name))


def cache_calls(matrix, action):
    """The calls made on the index cache while ``action()`` runs."""
    cache = matrix._index_cache = CountingCache(matrix._index_cache)
    cache.calls.clear()
    action()
    return cache.calls


class TestFirstTouchBlock:
    """A batch whose rows from its first miss on are distinct vectors
    the cache does not hold is cached in one step, not replayed row by
    row; every observable is still the scalar replay's."""

    @settings(max_examples=80, deadline=None)
    @given(case=first_touch_cases(),
           vector_min_rows=st.sampled_from([1, 10 ** 9]))
    def test_first_touch_block_is_the_scalar_replay(self, case,
                                                    vector_min_rows):
        config, limit, pool, trained, picks, bad_at = case
        trained = min(trained, len(pool) - 1)
        warm, fresh = pool[:trained], pool[trained:]
        batched, scalar = bounded_pair(config, limit, vector_min_rows)
        reference = ReferenceWeightMatrix(config)
        for position, row in enumerate(warm):
            for matrix in (batched, scalar, reference):
                matrix.adjust(row, 1 if position % 2 else -1)
        rows = [warm[i % len(warm)] for i in picks] if warm else []
        rows += fresh
        if bad_at is not None:
            # refused at the first miss, before anything is written:
            # the scalar replay's hits up to there, then the failure
            bad = rows[0] + (0,)
            failing = list(rows)
            failing.insert(bad_at % (len(rows) + 1), bad)
            with pytest.raises(FeatureError):
                batched.dot_batch(failing)
            with pytest.raises(FeatureError):
                for row in failing:
                    scalar.dot(row if row in scalar._index_cache else bad)
            assert matrix_state(batched) == matrix_state(scalar)
        scores = batched.dot_batch(rows)
        assert scores == [scalar.dot(row) for row in rows] \
            == [reference.dot(row) for row in rows]
        assert matrix_state(batched) == matrix_state(scalar)

    @pytest.mark.parametrize(
        "cached", [0, 100, WeightMatrix.INDEX_CACHE_ENTRIES])
    def test_a_cold_block_is_not_replayed_row_by_row(self, cached):
        """256 first touches probe the cache once (the first row's
        miss), then evict the oldest entries and append as a block; the
        row-by-row replay probed and wrote it 256 times."""
        matrix = WeightMatrix(PSSConfig(num_features=8))
        for i in range(cached):
            matrix.dot((i,) * 8)
        before = list(matrix._index_cache)
        rows = [(i, -i, 0, 0, 0, 0, 0, 1) for i in range(256)]
        calls = cache_calls(matrix, partial(matrix.dot_batch, rows))
        evicted = max(0, cached + 256 - WeightMatrix.INDEX_CACHE_ENTRIES)
        # ``keys`` is the one disjointness test: no row is probed with
        # ``in`` (``__contains__``), none written alone
        assert calls == Counter(get=1, keys=1, update=1, popitem=evicted)
        assert list(matrix._index_cache) == before[evicted:] + rows
        assert (matrix.index_cache_hits, matrix.index_cache_misses) == \
            (0, cached + 256)

    def test_a_repeat_in_the_block_keeps_the_replay(self):
        matrix = WeightMatrix(PSSConfig(num_features=8))
        rows = [(i, -i, 0, 0, 0, 0, 0, 1) for i in range(255)]
        rows.append(rows[0])
        calls = cache_calls(matrix, partial(matrix.dot_batch, rows))
        assert calls == Counter(get=256, keys=1, __setitem__=255,
                                move_to_end=1)

    def test_a_cached_row_in_the_block_is_filtered_out(self):
        """Only a block that holds a cached row is probed row by row
        (one ``in`` per distinct row) and then replayed."""
        matrix = WeightMatrix(PSSConfig(num_features=8))
        rows = [(i, -i, 0, 0, 0, 0, 0, 1) for i in range(256)]
        matrix.dot(rows[100])
        calls = cache_calls(matrix, partial(matrix.dot_batch, rows))
        assert calls == Counter(get=256, keys=1, __contains__=256,
                                __setitem__=255, move_to_end=1)
        assert list(matrix._index_cache) == rows  # the hit moved to 100

    def test_a_block_longer_than_the_cache_clears_it(self):
        class Small(WeightMatrix):
            INDEX_CACHE_ENTRIES = 100

        matrix = Small(PSSConfig(num_features=8))
        for i in range(50):
            matrix.dot((i,) * 8)
        rows = [(i, -i, 0, 0, 0, 0, 0, 1) for i in range(256)]
        calls = cache_calls(matrix, partial(matrix.dot_batch, rows))
        assert calls == Counter(get=1, keys=1, clear=1, update=1)
        assert list(matrix._index_cache) == rows[-100:]
        assert matrix.index_cache_misses == 50 + 256


def spoiled_blocks():
    """A shape, a cache bound, how many vectors are cached first and
    which of them lead the batch, a cold block of 16-300 distinct
    vectors after them, and one place in the block - row and slot -
    to spoil.  No value of the block is 0 or 1, so a spoiled value
    that compares equal to 1 cannot turn its row into another's."""
    return configs().flatmap(
        lambda config: st.tuples(
            st.just(config),
            st.sampled_from([5, WeightMatrix.INDEX_CACHE_ENTRIES]),
            st.integers(0, 3),
            st.lists(st.integers(0, 2), max_size=3),
            st.integers(16, 300),
            st.integers(2, 2 ** 70) | st.integers(-(2 ** 70), -1000),
            st.integers(0, 299),
            st.integers(0, config.num_features - 1),
        )
    )


def spoiled_case(case, vector_min_rows):
    """The batched matrix and its scalar twin, trained alike, and the
    batch: the picked cached vectors, then the cold block; plus where
    in the batch the block's spoiled row is, and its slot."""
    config, limit, warm, picks, rows, offset, at, slot = case
    width = config.num_features
    batched, scalar = bounded_pair(config, limit, vector_min_rows)
    cached = [(-(k + 1),) * width for k in range(warm)]
    for position, row in enumerate(cached):
        for matrix in (batched, scalar):
            matrix.adjust(row, 1 if position % 2 else -1)
    block = [tuple(offset + n * width + f for f in range(width))
             for n in range(rows)]
    batch = [cached[i % warm] for i in picks] if warm else []
    return batched, scalar, batch + block, len(batch) + at % rows, slot


class TestBlockValidation:
    """A block is validated in one pass over all its rows, and refuses
    exactly what the scalar miss's ``_check_features`` refuses,
    wherever in the block the bad value sits."""

    @settings(max_examples=60, deadline=None)
    @given(case=spoiled_blocks(),
           vector_min_rows=st.sampled_from(
               [WeightMatrix.VECTOR_MIN_ROWS, 10 ** 9]),
           spoil=st.sampled_from(
               list(range(len(REFUSED))) + ["longer", "shorter"]))
    def test_refused_as_the_scalar_miss_refuses(self, case,
                                                vector_min_rows, spoil):
        batched, scalar, rows, at, slot = spoiled_case(case,
                                                       vector_min_rows)
        row = list(rows[at])
        if spoil == "longer":
            row.append(0)
        elif spoil == "shorter":
            row.pop()
        else:
            row[slot] = REFUSED[spoil]
        rows[at] = bad = tuple(row)
        with pytest.raises(FeatureError):
            batched.dot_batch(rows)
        # the scalar replay: the hits up to the first miss, which meets
        # the block's bad row and raises before writing anything
        with pytest.raises(FeatureError):
            for row in rows:
                scalar.dot(row if row in scalar._index_cache else bad)
        assert matrix_state(batched) == matrix_state(scalar)

    @settings(max_examples=30, deadline=None)
    @given(case=spoiled_blocks(),
           vector_min_rows=st.sampled_from(
               [WeightMatrix.VECTOR_MIN_ROWS, 10 ** 9]),
           value=st.sampled_from([Slot.ONE, Word(1)]))
    def test_an_int_subclass_scores_as_the_scalar_path(self, case,
                                                       vector_min_rows,
                                                       value):
        batched, scalar, rows, at, slot = spoiled_case(case,
                                                       vector_min_rows)
        row = list(rows[at])
        row[slot] = value
        rows[at] = tuple(row)
        assert batched.dot_batch(rows) == [scalar.dot(row) for row in rows]
        assert matrix_state(batched) == matrix_state(scalar)


#: ways a batch is refused as a whole
FAILURES = ["wrong_length", "quota", "shard_down"]


def service_workloads(failures=False):
    """Config, pool, and a client op stream for one domain (with
    batches that raise among the ops when ``failures`` is set)."""
    ops = ["predict", "batch", "update"]
    if failures:
        ops.append("bad_batch")
    return configs().flatmap(
        lambda config: st.tuples(
            st.just(config),
            st.lists(
                st.lists(
                    st.integers(-1_000_000, 1_000_000),
                    min_size=config.num_features,
                    max_size=config.num_features,
                ).map(tuple),
                min_size=1, max_size=6, unique=True,
            ),
            st.lists(
                st.tuples(
                    st.sampled_from(ops),
                    st.lists(st.integers(0, 5), max_size=10),
                    st.booleans(),
                    st.sampled_from(FAILURES),
                ),
                max_size=40,
            ),
        )
    )


def build_service(config, num_shards, tracer=None):
    from repro.obs import Tracer

    # A default controller is unlimited: bit-identical to none, and
    # there for the quota failure to tighten.
    service = PredictionService(
        tracer=tracer or Tracer(), num_shards=num_shards,
        admission=AdmissionController(),
    )
    service.create_domain("dom", config=config)
    return service


def drive_client(service, client, pool, stream, scores, scalar_only):
    for op, picks, flag, failure in stream:
        rows = [pool[i % len(pool)] for i in picks] or [pool[0]]
        if op == "predict":
            scores.extend(client.predict(row) for row in rows)
        elif op == "batch":
            if scalar_only:
                scores.extend(client.predict(row) for row in rows)
            else:
                scores.extend(client.predict_batch(rows))
        elif op == "update":
            client.update(rows[0], flag)
        else:
            fail_a_client_batch(service, client, rows, failure)
    client.flush()


def fail_a_client_batch(service, client, rows, failure):
    """One ``predict_batch`` that raises - the same call on the batched
    and on the scalar twin, so what the stream does *next* is still
    comparable - then the cause is lifted."""
    if failure == "wrong_length":
        with pytest.raises(FeatureError):
            client.predict_batch(rows + [rows[0] + (0,)])
    elif failure == "quota":
        # Every row charges one predict, as a cached read or in the
        # misses' block: one short of the batch must refuse it.
        who = ClientIdentity()
        spent = service.admission.usage_for(who).predictions
        service.admission.set_quota(
            who, TenantQuota(predict_budget=spent + len(rows) - 1))
        with pytest.raises(QuotaExceededError):
            client.predict_batch(rows)
        service.admission.set_quota(who, TenantQuota())
    else:
        # No follower to fail over to; promotion revives the shard cold.
        shard_id = service.shard_of("dom")
        service.crash_shard(shard_id)
        with pytest.raises(ShardDownError):
            client.predict_batch(rows)
        ReplicaPromoter(service).promote(shard_id)
    assert None not in score_cache(client).values()
    assert None not in index_cache(service).values()


def score_cache(client):
    """The vDSO transport's score cache (a syscall one has none)."""
    return getattr(client, "_score_cache", {})


def index_cache(service):
    return service.domain("dom").model.weights._index_cache


def service_state(service, client):
    domain = service.domain("dom")
    return {
        "stats": domain.stats,
        "generation": domain.generation,
        "account": (client.account.cache_hits,
                    client.account.cache_misses,
                    client.account.vdso_calls),
        "caches": (
            list(score_cache(client).items()),
            list(index_cache(service).items()),
        ),
    }


class TestClientBatchIdentity:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(),
           num_shards=st.sampled_from([1, 2, 4]),
           transport=st.sampled_from(["vdso", "syscall"]))
    def test_scores_stats_generations_identical(self, data, num_shards,
                                                transport):
        config, pool, stream = data.draw(service_workloads(failures=True))
        svc_b = build_service(config, num_shards)
        svc_s = build_service(config, num_shards)
        # the transports under the clients: a refused batch raises
        client_b = svc_b.connect("dom", transport=transport)._transport
        client_s = svc_s.connect("dom", transport=transport)._transport
        b_scores, s_scores = [], []
        drive_client(svc_b, client_b, pool, stream, b_scores,
                     scalar_only=False)
        drive_client(svc_s, client_s, pool, stream, s_scores,
                     scalar_only=True)
        assert b_scores == s_scores
        state_b = service_state(svc_b, client_b)
        state_s = service_state(svc_s, client_s)
        assert state_b["stats"] == state_s["stats"]
        assert state_b["generation"] == state_s["generation"]
        assert state_b["caches"] == state_s["caches"]
        if transport == "vdso":
            # Score-cache accounting is part of the identity too.
            assert state_b["account"] == state_s["account"]

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 5))
    def test_identity_under_stale_read_injection(self, data, seed):
        """Stale-vDSO dice roll once per read on both paths."""
        config, pool, stream = data.draw(service_workloads())
        plan = FaultPlan(seed=seed, stale_read_rate=0.4)
        svc_b = build_service(config, 2)
        svc_s = build_service(config, 2)
        client_b = svc_b.connect("dom", fault_plan=plan)._transport
        client_s = svc_s.connect("dom", fault_plan=plan)._transport
        b_scores, s_scores = [], []
        drive_client(svc_b, client_b, pool, stream, b_scores,
                     scalar_only=False)
        drive_client(svc_s, client_s, pool, stream, s_scores,
                     scalar_only=True)
        assert b_scores == s_scores
        assert service_state(svc_b, client_b)["stats"] == \
            service_state(svc_s, client_s)["stats"]

    def test_identity_across_crash_failover(self):
        config = PSSConfig(num_features=2)
        services = []
        for _ in range(2):
            service = PredictionService(num_shards=2, num_replicas=1)
            service.create_domain("dom", config=config)
            pool = [(i, -i) for i in range(5)]
            for row in pool:
                service.handle("dom").update(row, True)
            service.sync_replicas()
            service.crash_shard(service.shard_of("dom"))
            services.append((service, pool))
        (svc_b, pool), (svc_s, _) = services
        rows = [pool[i % 5] for i in range(12)]
        batch = svc_b.handle("dom").predict_batch(rows)
        scalar = [svc_s.handle("dom").predict(row) for row in rows]
        assert batch == scalar
        assert svc_b.domain("dom").stats == svc_s.domain("dom").stats

    def test_identity_across_reshard(self):
        config = PSSConfig(num_features=2)
        pool = [(i, i * 3) for i in range(6)]

        def run(batched):
            service = PredictionService(num_shards=2)
            service.create_domain("dom", config=config)
            handle = service.handle("dom")
            for row in pool[:4]:
                handle.update(row, True)
            service.reshard(4)
            rows = [pool[i % 6] for i in range(10)]
            if batched:
                scores = handle.predict_batch(rows)
            else:
                scores = [handle.predict(row) for row in rows]
            return scores, service.domain("dom").stats, \
                service.domain("dom").generation

        assert run(batched=True) == run(batched=False)

    def test_identity_across_checkpoint_save_restore(self, tmp_path):
        config = PSSConfig(num_features=2)

        def run(batched):
            service = PredictionService(num_shards=2)
            service.create_domain("dom", config=config)
            pool = [(i, 7 - i) for i in range(5)]
            for row in pool:
                service.handle("dom").update(row, True)
            manager = ShardedCheckpointManager(
                service, tmp_path / ("b" if batched else "s")
            )
            manager.checkpoint()
            restored = PredictionService(num_shards=2)
            manager_r = ShardedCheckpointManager(
                restored, tmp_path / ("b" if batched else "s")
            )
            manager_r.recover()
            rows = [pool[i % 5] for i in range(12)]
            handle = restored.handle("dom")
            if batched:
                scores = handle.predict_batch(rows)
            else:
                scores = [handle.predict(row) for row in rows]
            return scores, restored.domain("dom").generation

        assert run(batched=True) == run(batched=False)


class TestPlanSharing:
    def test_same_shape_tenants_share_one_plan(self):
        config = PSSConfig(num_features=2, entries_per_feature=16)
        service = PredictionService(num_shards=2)
        service.create_domain("tenant-a", config=config)
        service.create_domain("tenant-b", config=config)
        plan_a = service.domain("tenant-a").model.weights.plan
        plan_b = service.domain("tenant-b").model.weights.plan
        assert plan_a is plan_b
        stats = service.plans.stats()
        assert stats == {"plans": 1, "hits": 1, "misses": 1}

    def test_shape_change_diverges(self):
        service = PredictionService()
        service.create_domain(
            "a", config=PSSConfig(num_features=2, entries_per_feature=16)
        )
        service.create_domain(
            "b", config=PSSConfig(num_features=2, entries_per_feature=32)
        )
        plan_a = service.domain("a").model.weights.plan
        plan_b = service.domain("b").model.weights.plan
        assert plan_a is not plan_b
        assert plan_a.signature != plan_b.signature
        assert service.plans.stats()["plans"] == 2

    def test_restore_rebinds_without_recompiling(self):
        config = PSSConfig(num_features=2)
        service = PredictionService()
        service.create_domain("dom", config=config)
        weights = service.domain("dom").model.weights
        original = weights.plan
        state = weights.to_state()
        weights.load_state(state)
        assert weights._plan is None  # binding dropped with the swap
        # Lazy re-bind resolves to a same-signature shared plan.
        assert plan_signature(config) == weights.plan.signature

    def test_plan_stats_surface_in_shard_summaries(self):
        service = PredictionService(num_shards=2)
        service.create_domain("dom", config=PSSConfig(num_features=2))
        summaries = service.shard_summaries()
        assert any("plans" in summary for summary in summaries)
        cache = next(s["plan_cache"] for s in summaries
                     if "plan_cache" in s)
        assert cache["plans"] >= 1

    def test_plan_trace_kinds_emitted(self):
        from repro.obs import Tracer

        tracer = Tracer()
        config = PSSConfig(num_features=2)
        service = PredictionService(tracer=tracer, num_shards=1)
        service.create_domain("a", config=config)
        service.create_domain("b", config=config)
        kinds = [event.kind for event in tracer.events()
                 if event.kind.startswith("plan.")]
        assert kinds == ["plan.compile", "plan.hit"]
