"""Acceptance: one batch through a crashed shard's handle yields one
well-formed span tree - the tenant's charge and a follower's failover
per row, all causally under a single ``kernel.predict_batch`` root
(the handle's: every ``kernel.*`` span is opened by a handle; the
by-name kernel calls open none)."""

from repro.core.config import PSSConfig
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import Tracer, span_children, validate_spans
from repro.obs.postmortem import render_tree
from tests.obs.shard_labels import mixed_label_spans

ROWS = [(1, 2), (3, 4), (1, 2), (5, 6)]


def crashed_shard_batch(tracer=None):
    """(scores, victim shard's label) of one handle batch on a crashed
    shard whose follower was synced after some training."""
    service = ShardedService(tracer=tracer, num_shards=4,
                             admission=AdmissionController(),
                             num_replicas=1)
    service.create_domain("d", config=PSSConfig(num_features=2))
    handle = service.handle("d")
    for row in ROWS[1:]:
        handle.update(row, True)
    service.sync_replicas()
    service.crash_shard(service.shard_of("d"))
    if tracer is not None:
        tracer.clear()  # only the batch under test in the ring
    return handle.predict_batch(ROWS), str(service.shard_of("d"))


def traced_batch():
    tracer = Tracer()
    scores, victim = crashed_shard_batch(tracer)
    return tracer, scores, victim


class TestBatchSpanTree:
    def test_single_root_tree_with_all_stages(self):
        tracer, scores, _ = traced_batch()
        assert len(scores) == len(ROWS)
        spans = tracer.spans()
        root, = validate_spans(spans)  # raises on orphans/dups/open
        assert (root.name, root.domain) == ("kernel.predict_batch", "d")
        assert root.detail == {"rows": len(ROWS)}
        # the charge, then a failover per row: a crashed primary runs
        # no plan pass
        stages = span_children(spans)[root.span_id]
        assert [s.name for s in stages] == \
            ["kernel.admission"] + ["kernel.failover"] * len(ROWS)

    def test_crashed_shard_dispatch_holds_failovers(self):
        tracer, _, victim = traced_batch()
        spans = tracer.spans()
        root, = validate_spans(spans)
        failovers = [s for s in span_children(spans)[root.span_id]
                     if s.name == "kernel.failover"]
        # every row is served by follower failover, on the crashed shard
        assert len(failovers) == len(ROWS)
        assert {(s.domain, s.shard) for s in failovers} == {("d", victim)}
        events = [e for e in tracer.events() if e.kind == "failover"]
        assert [e.span_id for e in events] == [s.span_id for s in failovers]
        assert mixed_label_spans(spans) == []

    def test_rendered_tree_shows_the_causal_story(self):
        tracer, _, _ = traced_batch()
        lines = render_tree(tracer.spans()).splitlines()
        assert lines[0].startswith("kernel.predict_batch")
        assert any(line.startswith("  kernel.admission")
                   for line in lines)
        assert any(line.startswith("  kernel.failover")
                   for line in lines)

    def test_untraced_batch_produces_identical_scores(self):
        assert crashed_shard_batch()[0] == traced_batch()[1]


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
