"""``ShardedService.predict_batch`` over any mix of domains is the
scalar loop - however names repeat, interleave or spread over shards -
and answers row by row: an unknown name is that row's outcome, not the
batch's.

The kernel resolves each distinct domain once and groups its rows by
name, in first-occurrence order: one ``plan.execute`` per domain under
the batch's span, whatever shard hosts it (``expected_tree``).  The
scalar loop on a twin service is the oracle for scores, stats and
cache counters.  The kernel batch takes no identity: who may ask,
and what it costs them, is ``DomainHandle.predict_batch``'s contract
(``tests/core/test_admission.py``; admission as a stage of its tree,
``tests/obs/test_golden_ops.py::TestSyncClient``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.errors import DomainError
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.obs import Tracer, span_children, validate_spans

CONFIG = PSSConfig(num_features=2, entries_per_feature=16)
DOMAINS = [f"d{i}" for i in range(6)]
ROWS = [(i, 3 * i + 1) for i in range(5)]


def build(num_shards, tracer=None):
    service = ShardedService(num_shards=num_shards, tracer=tracer,
                             admission=AdmissionController())
    for index, name in enumerate(DOMAINS):
        service.create_domain(name, config=CONFIG)
        # distinct learned state per domain, so a row scored against
        # the wrong domain shows
        for _ in range(index):
            service.update(name, ROWS[index % len(ROWS)], True)
    return service


def domain_state(service):
    state = {}
    for name in DOMAINS:
        report = service.domain(name).report()
        state[name] = (report.stats, report.generation,
                       report.index_cache_hits,
                       report.index_cache_misses)
    return state


def expected_tree(service, requests):
    """[(domain, its shard's label, rows), ...]: one plan pass per
    distinct name, in first-occurrence order."""
    rows = {}
    for name, _features in requests:
        rows[name] = rows.get(name, 0) + 1
    return [(name, str(service.shard_of(name)), count)
            for name, count in rows.items()]


requests_strategy = st.lists(
    st.tuples(st.sampled_from(DOMAINS), st.sampled_from(ROWS)),
    min_size=1, max_size=24)


class TestGroupedBatchIsTheScalarLoop:
    @settings(max_examples=120, deadline=None)
    @given(num_shards=st.sampled_from([1, 2, 4]),
           batches=st.lists(requests_strategy, min_size=1, max_size=3))
    def test_scores_stats_and_counters(self, num_shards, batches):
        batched, scalar = build(num_shards), build(num_shards)
        for requests in batches:
            got = batched.predict_batch(requests)
            want = [scalar.predict(name, features)
                    for name, features in requests]
            assert got == want
            assert domain_state(batched) == domain_state(scalar)

    @settings(max_examples=80, deadline=None)
    @given(num_shards=st.sampled_from([1, 2, 4]),
           requests=requests_strategy)
    def test_span_tree_on_a_traced_service(self, num_shards, requests):
        tracer = Tracer()
        service = build(num_shards, tracer=tracer)
        tracer.clear()
        scores = service.predict_batch(requests)
        assert scores == build(num_shards).predict_batch(requests)

        spans = tracer.spans()
        if len(requests) == 1:
            # a batch of one row is one served request: no span and no
            # event, its record is the pipeline's (the rest of that
            # contract is tests/core/test_kernel_one_row_batch.py)
            assert spans == [] and len(tracer.events()) == 0
            return
        root, = validate_spans(spans)
        children = span_children(spans)
        assert (root.name, root.detail) == ("kernel.predict_batch",
                                            {"rows": len(requests)})
        plans = children[root.span_id]
        assert all(plan.name == "plan.execute" for plan in plans)
        assert not any(plan.span_id in children for plan in plans)
        assert [(plan.domain, plan.shard, plan.detail["rows"])
                for plan in plans] == expected_tree(service, requests)
        assert len(tracer.events()) == 0


class TestUnknownDomainAtPositionK:
    @settings(max_examples=80, deadline=None)
    @given(num_shards=st.sampled_from([1, 2, 4]),
           requests=requests_strategy,
           position=st.integers(0, 23),
           second=st.one_of(st.none(), st.integers(0, 23)))
    def test_same_error_nothing_scored_nothing_charged(
            self, num_shards, requests, position, second):
        """An unknown name costs its own row the scalar's error and
        nothing else: every other row scores, and counts, as in the
        scalar loop that skips the unknown ones."""
        service, scalar = build(num_shards), build(num_shards)
        poisoned = list(requests)
        poisoned.insert(position % (len(requests) + 1),
                        ("ghost-a", ROWS[0]))
        if second is not None:
            poisoned.insert(second % (len(poisoned) + 1),
                            ("ghost-b", ROWS[1]))
        outcomes = service.predict_batch(poisoned)
        assert len(outcomes) == len(poisoned)
        for (name, features), outcome in zip(poisoned, outcomes):
            if name.startswith("ghost"):
                with pytest.raises(DomainError) as from_scalar:
                    scalar.predict(name, features)
                assert isinstance(outcome, DomainError)
                assert str(outcome) == str(from_scalar.value) \
                    == f"unknown domain {name!r}"
            else:
                assert outcome == scalar.predict(name, features)
        assert domain_state(service) == domain_state(scalar)
        assert service.admission.tenants() == []
        assert not any(service.has_domain(name)
                       for name in ("ghost-a", "ghost-b"))

    def test_traced_failure_opens_no_child_span(self):
        """The unknown row enters no stage: the tree is the known
        row's, and the batch's span closes ``ok`` - it answered."""
        tracer = Tracer()
        service = build(2, tracer=tracer)
        tracer.clear()
        score, ghost = service.predict_batch(
            [("d0", ROWS[0]), ("ghost", ROWS[0])])
        assert score == build(2).predict("d0", ROWS[0])
        assert isinstance(ghost, DomainError)
        spans = tracer.spans()
        root, = validate_spans(spans)
        assert (root.name, root.status) == ("kernel.predict_batch", "ok")
        plan, = span_children(spans)[root.span_id]
        assert (plan.name, plan.domain, plan.detail) == (
            "plan.execute", "d0", {"rows": 1})
