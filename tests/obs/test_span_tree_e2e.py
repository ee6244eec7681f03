"""Acceptance: one batch through a crashed-shard service yields one
well-formed span tree - a plan pass per live domain and a failover per
row of the crashed shard, all causally under a single root.  (Admission
is not a stage here: the kernel batch executes by name, and charging is
the handle's - ``tests/obs/test_golden_ops.py`` pins it as a stage of
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
    """(tracer, scores, requests, victim shard, the names it hosts)."""
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
    crashed = {name for name in domains
               if service.shard_of(name) == victim}
    tracer.clear()  # only the batch under test in the ring
    scores = service.predict_batch(requests)
    return tracer, scores, requests, victim, crashed


class TestBatchSpanTree:
    def test_single_root_tree_with_all_stages(self):
        tracer, scores, requests, _, crashed = crashed_shard_batch()
        assert len(scores) == len(requests)
        spans = tracer.spans()
        roots = validate_spans(spans)  # raises on orphans/dups/open
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "kernel.predict_batch"
        assert root.detail == {"rows": len(requests)}
        # one stage per domain, in the order names first occur: a plan
        # pass over its rows, or on the crashed shard a failover each
        want = []
        for i in range(NUM_DOMAINS):
            if f"d{i}" in crashed:
                want += [("kernel.failover", f"d{i}")] * ROWS_PER_DOMAIN
            else:
                want.append(("plan.execute", f"d{i}"))
        stages = span_children(spans)[root.span_id]
        assert [(s.name, s.domain) for s in stages] == want

    def test_crashed_shard_dispatch_holds_failovers(self):
        tracer, _, _, victim, crashed = crashed_shard_batch()
        spans = tracer.spans()
        root, = validate_spans(spans)
        stages = span_children(spans)[root.span_id]
        failovers = [s for s in stages if s.name == "kernel.failover"]
        # every row on the crashed shard is served by follower failover
        assert len(failovers) == ROWS_PER_DOMAIN * len(crashed)
        assert {(s.domain, s.shard) for s in failovers} == \
            {(name, str(victim)) for name in crashed}
        plans = [s for s in stages if s.name == "plan.execute"]
        # live shards run one specialized plan pass per domain
        assert len(plans) + len(crashed) == NUM_DOMAINS
        assert all(s.detail == {"rows": ROWS_PER_DOMAIN} for s in plans)
        assert str(victim) not in {s.shard for s in plans}

    def test_rendered_tree_shows_the_causal_story(self):
        tracer, _, _, _, _ = crashed_shard_batch()
        text = render_tree(tracer.spans())
        lines = text.splitlines()
        assert lines[0].startswith("kernel.predict_batch")
        assert any(line.startswith("  kernel.failover")
                   for line in lines)
        assert any(line.startswith("  plan.execute")
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
        """A served predict is its ``request '0'`` record alone; on the
        crashed shard the kernel span it then opens, the follower's
        ``kernel.failover``, carries the same label."""
        tracer, service = self.one_shard()
        pipeline = ServingPipeline(service, ServingConfig())
        tracer.clear()
        pipeline.submit("d", (1, 2))
        pipeline.run()
        record, = tracer.events()
        assert (record.kind, record.shard) == ("request", "0")
        assert tracer.spans() == []
        service.crash_shard(0)
        tracer.clear()
        pipeline.submit("d", (1, 2))
        pipeline.run()
        record, = [e for e in tracer.events() if e.kind == "request"]
        span, = tracer.spans()
        assert (span.name, span.shard, record.shard) \
            == ("kernel.failover", "0", "0")
