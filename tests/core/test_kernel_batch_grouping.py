"""``ShardedService.predict_batch`` over any mix of domains is the
scalar loop - however names repeat, interleave or spread over shards.

The kernel resolves each distinct domain once and groups rows in the
same pass.  ``expected_tree`` below is the grouping it replaced (resolve
every row, then shard -> domain -> positions, shards in id order,
domains in first-occurrence order) used as the oracle for the span
tree; the scalar loop on a twin service is the oracle for scores, stats
and cache counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.errors import DomainError
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity
from repro.obs import Tracer, span_children, validate_spans

CONFIG = PSSConfig(num_features=2, entries_per_feature=16)
DOMAINS = [f"d{i}" for i in range(6)]
ROWS = [(i, 3 * i + 1) for i in range(5)]
IDENTITY = ClientIdentity(uid=3, program="grouping")


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
    """[(shard label, [(domain, rows), ...]), ...] as the old
    list -> dict-of-dicts grouping produced it."""
    groups = {}
    for name, _features in requests:
        by_domain = groups.setdefault(service.shard_of(name), {})
        by_domain[name] = by_domain.get(name, 0) + 1
    return [(str(shard), list(groups[shard].items()))
            for shard in sorted(groups)]


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
        scores = service.predict_batch(requests, identity=IDENTITY)
        assert scores == build(num_shards).predict_batch(requests)

        spans = tracer.spans()
        root, = validate_spans(spans)
        children = span_children(spans)
        if len(requests) == 1:
            # a batch of one row is the scalar predict: its one span
            # and the charge, no stage tree (the rest of that contract
            # is tests/core/test_kernel_one_row_batch.py)
            (name, _features), = requests
            assert (root.name, root.domain) == ("kernel.predict", name)
            admission, = children[root.span_id]
            assert (admission.name, admission.detail) == (
                "kernel.admission", {"count": 1})
            return
        assert (root.name, root.detail) == ("kernel.predict_batch",
                                            {"rows": len(requests)})
        admission, route, *dispatches = children[root.span_id]
        assert (admission.name, admission.detail) == (
            "kernel.admission", {"count": len(requests)})
        want = expected_tree(service, requests)
        assert (route.name, route.detail) == (
            "kernel.route", {"rows": len(requests), "shards": len(want)})
        assert route.span_id not in children   # a leaf
        got = []
        for dispatch in dispatches:
            assert dispatch.name == "kernel.dispatch"
            plans = children[dispatch.span_id]
            assert all(plan.name == "plan.execute" for plan in plans)
            assert dispatch.detail == {
                "rows": sum(plan.detail["rows"] for plan in plans)}
            got.append((dispatch.shard,
                        [(plan.domain, plan.detail["rows"])
                         for plan in plans]))
        assert got == want
        assert len(tracer.events()) == 0


class TestUnknownDomainAtPositionK:
    @settings(max_examples=80, deadline=None)
    @given(num_shards=st.sampled_from([1, 2, 4]),
           requests=requests_strategy,
           position=st.integers(0, 23),
           second=st.one_of(st.none(), st.integers(0, 23)))
    def test_same_error_nothing_scored_nothing_charged(
            self, num_shards, requests, position, second):
        service = build(num_shards)
        poisoned = list(requests)
        poisoned.insert(position % (len(requests) + 1),
                        ("ghost-a", ROWS[0]))
        if second is not None:
            poisoned.insert(second % (len(poisoned) + 1),
                            ("ghost-b", ROWS[1]))
        first_unknown = next(name for name, _ in poisoned
                             if name.startswith("ghost"))
        before = domain_state(service)
        with pytest.raises(DomainError) as from_scalar:
            for name, _features in poisoned:
                service.domain(name)
        with pytest.raises(DomainError) as from_batch:
            service.predict_batch(poisoned, identity=IDENTITY)
        assert str(from_batch.value) == str(from_scalar.value) \
            == f"unknown domain {first_unknown!r}"
        assert domain_state(service) == before
        usage = service.admission.usage_for(IDENTITY)
        assert (usage.predictions, usage.rejections) == (0, 0)

    def test_traced_failure_opens_no_child_span(self):
        tracer = Tracer()
        service = build(2, tracer=tracer)
        tracer.clear()
        with pytest.raises(DomainError):
            service.predict_batch([("d0", ROWS[0]), ("ghost", ROWS[0])],
                                  identity=IDENTITY)
        root, = tracer.spans()
        assert (root.name, root.status) == ("kernel.predict_batch",
                                            "error:DomainError")
