"""Acceptance: one batch through a crashed-shard service yields one
well-formed span tree - routing, per-shard dispatch, failover, and
plan execution all causally under a single root.  (Admission is not a
stage here: the kernel batch executes by name, and charging is the
handle's - ``tests/obs/test_golden_ops.py`` pins it as a stage of
``DomainHandle.predict_batch``'s tree.)"""

from repro.core.config import PSSConfig
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import Tracer, span_children, validate_spans
from repro.obs.postmortem import render_tree
from tests.obs.shard_labels import mixed_label_spans

ROWS_PER_DOMAIN = 2
NUM_DOMAINS = 8


def crashed_shard_batch(num_shards=4):
    """(tracer, scores, requests, victim shard, per-shard row counts)."""
    tracer = Tracer()
    service = ShardedService(tracer=tracer, num_shards=num_shards,
                             admission=AdmissionController(),
                             num_replicas=1)
    domains = [f"d{i}" for i in range(NUM_DOMAINS)]
    for name in domains:
        service.create_domain(name, config=PSSConfig(num_features=2))
    # warm the replicas so the crashed shard can serve follower reads
    service.sync_replicas()
    victim = service.shard_of(domains[0])
    service.crash_shard(victim)
    requests = []
    for _ in range(ROWS_PER_DOMAIN):
        for name in domains:
            requests.append((name, (1, 2)))
    rows_by_shard: dict[int, int] = {}
    for name, _features in requests:
        shard = service.shard_of(name)
        rows_by_shard[shard] = rows_by_shard.get(shard, 0) + 1
    tracer.clear()  # only the batch under test in the ring
    scores = service.predict_batch(requests)
    return tracer, scores, requests, victim, rows_by_shard


class TestBatchSpanTree:
    def test_single_root_tree_with_all_stages(self):
        tracer, scores, requests, victim, rows_by_shard = \
            crashed_shard_batch()
        assert len(scores) == len(requests)
        spans = tracer.spans()
        roots = validate_spans(spans)  # raises on orphans/dups/open
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "kernel.predict_batch"
        assert root.detail == {"rows": len(requests)}
        children = span_children(spans)
        stages = children[root.span_id]
        assert stages[0].name == "kernel.route"
        dispatches = stages[1:]
        assert all(s.name == "kernel.dispatch" for s in dispatches)
        # one dispatch per shard that owns rows, in shard-id order,
        # each annotated with the rows routed to it
        assert [s.shard for s in dispatches] == \
            [str(shard) for shard in sorted(rows_by_shard)]
        assert {s.shard: s.detail["rows"] for s in dispatches} == \
            {str(shard): rows for shard, rows in rows_by_shard.items()}

    def test_crashed_shard_dispatch_holds_failovers(self):
        tracer, _, _, victim, rows_by_shard = crashed_shard_batch()
        spans = tracer.spans()
        children = span_children(spans)
        by_shard = {s.shard: s for s in spans
                    if s.name == "kernel.dispatch"}
        crashed_kids = [s.name for s in
                        children[by_shard[str(victim)].span_id]]
        # every row on the crashed shard is served by follower failover
        assert crashed_kids == ["kernel.failover"] * rows_by_shard[victim]
        for shard in rows_by_shard:
            if shard == victim:
                continue
            kids = [s.name for s in
                    children[by_shard[str(shard)].span_id]]
            # live shards run one specialized plan pass per domain
            assert kids and all(name == "plan.execute" for name in kids)

    def test_routing_annotates_fanout(self):
        tracer, _, requests, _, rows_by_shard = crashed_shard_batch()
        route, = [s for s in tracer.spans() if s.name == "kernel.route"]
        assert route.detail["rows"] == len(requests)
        assert route.detail["shards"] == len(rows_by_shard)

    def test_rendered_tree_shows_the_causal_story(self):
        tracer, _, _, _, _ = crashed_shard_batch()
        text = render_tree(tracer.spans())
        lines = text.splitlines()
        assert lines[0].startswith("kernel.predict_batch")
        assert any(line.startswith("  kernel.route")
                   for line in lines)
        assert any(line.startswith("    kernel.failover")
                   for line in lines)
        assert any(line.startswith("    plan.execute")
                   for line in lines)

    def test_untraced_batch_produces_identical_scores(self):
        traced_scores = crashed_shard_batch()[1]
        service = ShardedService(num_shards=4,
                                 admission=AdmissionController(),
                                 num_replicas=1)
        for i in range(NUM_DOMAINS):
            service.create_domain(f"d{i}",
                                  config=PSSConfig(num_features=2))
        service.sync_replicas()
        service.crash_shard(service.shard_of("d0"))
        requests = []
        for _ in range(ROWS_PER_DOMAIN):
            for i in range(NUM_DOMAINS):
                requests.append((f"d{i}", (1, 2)))
        assert service.predict_batch(requests) == traced_scores


class TestOneShardIsShardZero:
    """A service of one shard labels like a service of any size: its
    shard is "0" at every emitter, so one tree never reads
    ``kernel.predict ''`` over ``kernel.failover '0'`` and a served
    ``request '0'`` never sits beside a ``kernel.predict ''``."""

    def one_shard(self):
        tracer = Tracer()
        service = ShardedService(tracer=tracer, num_replicas=1)
        service.create_domain("d", config=PSSConfig(num_features=2))
        service.sync_replicas()
        return tracer, service

    def test_failover_tree_carries_one_label(self):
        tracer, service = self.one_shard()
        client = service.connect("d", transport="syscall")
        service.crash_shard(0)
        tracer.clear()
        client.predict((1, 2))
        spans = tracer.spans()
        assert [(s.name, s.shard) for s in spans] == [
            ("kernel.failover", "0"), ("kernel.predict", "0"),
            ("syscall.predict", "0")]
        assert mixed_label_spans(spans) == []
        assert {e.shard for e in tracer.events()} == {"0"}

    def test_request_record_and_its_kernel_span_agree(self):
        tracer, service = self.one_shard()
        pipeline = ServingPipeline(service, ServingConfig())
        tracer.clear()
        pipeline.submit("d", (1, 2))
        pipeline.run()
        record, = [e for e in tracer.events() if e.kind == "request"]
        span, = tracer.spans()
        assert (span.name, span.shard, record.shard) \
            == ("kernel.predict", "0", "0")
