"""Property tests: the layered kernel is bit-identical to the monolith.

The multi-layer refactor moved the service into
:mod:`repro.core.kernel` (shards + router + admission) behind the
:class:`~repro.core.service.PredictionService` facade.  Two identities
pin that nothing behavioural moved with it:

* **single-shard vs the frozen monolith** - a 1-shard facade with no
  admission controller must match :class:`tests.core.reference_impl
  .ReferenceService` exactly: every score, every stats counter, every
  generation value, and the full ``snapshot_service`` dict, across
  randomized workloads over several domains (direct calls and
  policy-checked handles alike).
* **N shards vs 1 shard** - sharding is pure placement: the same
  workload on a multi-shard service produces the same scores, stats,
  generations, and snapshot as on a single shard, and per-shard
  checkpoint sets restore to the same state a whole-service snapshot
  would.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.core.kernel.checkpoint import ShardedCheckpointManager
from repro.core.persistence import snapshot_service

from tests.core.reference_impl import ReferenceService

DOMAIN_NAMES = ("alpha", "beta", "gamma", "delta")


def configs():
    return st.builds(
        PSSConfig,
        num_features=st.integers(1, 3),
        entries_per_feature=st.sampled_from([2, 16]),
        weight_bits=st.integers(2, 8),
        threshold=st.integers(-2, 2),
        training_margin=st.one_of(st.none(), st.integers(0, 10)),
        seed=st.integers(0, 3),
    )


def workloads():
    """A config, a vector pool sized to it, and a multi-domain op stream."""
    return configs().flatmap(
        lambda config: st.tuples(
            st.just(config),
            st.lists(
                st.lists(
                    st.integers(-1_000_000, 1_000_000),
                    min_size=config.num_features,
                    max_size=config.num_features,
                ).map(tuple),
                min_size=1, max_size=5, unique=True,
            ),
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ["predict", "update", "reset", "reset_all",
                         "handle_predict"]
                    ),
                    st.sampled_from(DOMAIN_NAMES),
                    st.integers(0, 4),
                    st.booleans(),
                ),
                max_size=80,
            ),
        )
    )


def drive(service, config, pool, stream, collect):
    """Apply one op stream to any service-shaped object."""
    for name in DOMAIN_NAMES:
        service.create_domain(name, config=config)
    for op, name, vec_index, flag in stream:
        vector = pool[vec_index % len(pool)]
        if op == "predict":
            collect.append(service.predict(name, list(vector)))
        elif op == "handle_predict":
            collect.append(service.handle(name).predict(list(vector)))
        elif op == "update":
            service.update(name, list(vector), flag)
        else:
            service.reset(name, list(vector),
                          reset_all=(op == "reset_all"))


def state_of(service):
    """Everything the identity compares, as one structure."""
    return {
        "names": service.domain_names(),
        "generations": {
            name: service.domain(name).generation
            for name in service.domain_names()
        },
        "stats": {
            name: service.domain(name).stats
            for name in service.domain_names()
        },
        "snapshot": snapshot_service(service),
    }


class TestSingleShardMatchesMonolith:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_scores_stats_generations_snapshots_identical(self, data):
        config, pool, stream = data.draw(workloads())
        kernel = PredictionService()
        reference = ReferenceService()
        kernel_scores, reference_scores = [], []
        drive(kernel, config, pool, stream, kernel_scores)
        drive(reference, config, pool, stream, reference_scores)
        assert kernel_scores == reference_scores
        assert state_of(kernel) == state_of(reference)

    def test_single_shard_reports_carry_no_shard(self):
        """One shard is shard 0, labelled like any other: there is no
        unlabelled mode.  Only a domain no shard hosts has no label."""
        service = PredictionService()
        service.create_domain("only", config=PSSConfig(num_features=1))
        service.predict("only", [1])
        (report,) = service.reports()
        assert report.shard == 0
        domain = service.domain("only")
        assert domain.shard_label == "0"
        service.remove_domain("only")
        assert (domain.shard_id, domain.shard_label) == (0, "")


class TestShardingIsPurePlacement:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), num_shards=st.sampled_from([2, 3, 8]))
    def test_n_shards_identical_to_one(self, data, num_shards):
        config, pool, stream = data.draw(workloads())
        single = PredictionService(num_shards=1)
        sharded = PredictionService(num_shards=num_shards)
        single_scores, sharded_scores = [], []
        drive(single, config, pool, stream, single_scores)
        drive(sharded, config, pool, stream, sharded_scores)
        assert single_scores == sharded_scores
        assert state_of(single) == state_of(sharded)
        # Placement is consistent with the router and covers every domain.
        for name in sharded.domain_names():
            domain = sharded.domain(name)
            assert domain.shard_id == sharded.shard_of(name)
            assert name in sharded.shard(domain.shard_id).domain_names()

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_per_shard_checkpoints_restore_full_state(self, data):
        config, pool, stream = data.draw(workloads())
        source = PredictionService(num_shards=4)
        drive(source, config, pool, stream, [])
        # tmp_path is function-scoped, not example-scoped; make our own.
        with tempfile.TemporaryDirectory() as root:
            ShardedCheckpointManager(source, Path(root)).checkpoint()
            restored = PredictionService(num_shards=4)
            ShardedCheckpointManager(restored, Path(root)).recover()
        assert snapshot_service(restored)["domains"] \
            == snapshot_service(source)["domains"]
