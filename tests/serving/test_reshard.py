"""Pipeline x reshard: the pipeline follows the service's topology.

A :class:`ServingPipeline` outlives reshards of the service under it.
A request is routed by the shard that hosts its domain *now*, so a
shard grown after the pipeline was built gets its lane (queue, batcher,
dispatcher, sojourn histogram) the first time a request lands on it,
and a shrunk-away shard's lane drains what it already holds.  Before
lanes followed the topology, ``submit`` raised ``IndexError`` at its
caller for every domain a growing reshard had moved to a new shard.
"""

from repro.core.config import PSSConfig
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import MetricsRegistry, Tracer
from repro.sim.process import spawn
from tests.obs.shard_labels import mixed_label_spans

CONFIG = PSSConfig(num_features=2)
NAMES = [f"domain-{i}" for i in range(12)]
ROW = (3, 5)


def build(num_shards, **obs):
    service = ShardedService(num_shards=num_shards, **obs)
    for index, name in enumerate(NAMES):
        service.create_domain(name, config=CONFIG)
        for step in range(index % 4):
            service.handle(name).update((step, index), step % 2 == 0)
    return service


def sync_scores(num_shards, names):
    twin = build(num_shards)
    return [twin.handle(name).predict(ROW) for name in names]


class TestGrow:
    def test_submit_after_a_growing_reshard_settles_with_the_sync_score(
            self):
        service = build(2)
        pipeline = ServingPipeline(service, ServingConfig())
        before = [pipeline.submit(name, ROW) for name in NAMES]
        service.reshard(3)
        moved = [name for name in NAMES if service.shard_of(name) == 2]
        assert moved, "the reshard moved no domain to the new shard"
        after = [pipeline.submit(name, ROW) for name in moved]
        pipeline.run()
        # the requests queued before the handoff ran where they were
        # queued, by name; the ones after it on the new shard's lane
        assert [f.result() for f in before] == sync_scores(2, NAMES)
        assert [f.result() for f in after] == sync_scores(2, moved)
        assert len(pipeline.lanes) == 3
        assert pipeline.lanes[2].enqueued == len(moved)
        assert pipeline.snapshot()["in_flight"] == 0

    def test_a_grown_lane_files_under_its_shard(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        service = build(1, tracer=tracer, metrics=metrics)
        pipeline = ServingPipeline(service, ServingConfig())
        service.reshard(4)
        tracer.clear()
        futures = {name: pipeline.submit(name, ROW) for name in NAMES}
        pipeline.run()
        assert len(pipeline.lanes) == 1 + max(
            service.shard_of(name) for name in NAMES)
        for name, future in futures.items():
            assert future.error is None
        owners = {name: str(service.shard_of(name)) for name in NAMES}
        records = [e for e in tracer.events() if e.kind == "request"]
        assert {e.domain: e.shard for e in records} == owners
        labels = [e.shard for e in records]
        for shard in set(labels):
            served = metrics.histogram("pss_serve_latency_ns",
                                       shard=shard)
            assert served.count == labels.count(shard)

    def test_a_request_queued_before_a_move_names_the_new_owner(self):
        """Queued before a reshard moved its domain, served on the lane
        it was queued on: its record names the shard hosting the domain
        now, as the kernel's spans under it do, and a batch over two
        shards by then is a ``serve.dispatch`` that names none."""
        tracer = Tracer()
        service = build(2, tracer=tracer)
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=200.0))
        for name in NAMES:
            pipeline.submit(name, ROW)
        service.reshard(3)
        assert any(service.shard_of(name) == 2 for name in NAMES)
        tracer.clear()
        pipeline.run()
        assert {event.domain: event.shard for event in tracer.events()
                if event.kind == "request"} \
            == {name: str(service.shard_of(name)) for name in NAMES}
        assert mixed_label_spans(
            [span.as_dict() for span in tracer.spans()]) == []

    def test_lanes_grow_while_the_engine_runs(self):
        """A lane started mid-run (its dispatcher spawned from inside a
        load process) serves like one built at construction."""
        service = build(2)
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=200.0))
        futures = []

        def load():
            for round_index in range(3):
                for name in NAMES:
                    futures.append(pipeline.submit(name, ROW))
                yield 1_000.0
                if round_index == 0:
                    service.reshard(5)

        spawn(pipeline.engine, load(), name="load")
        pipeline.run()
        assert [f.result() for f in futures] == sync_scores(2, NAMES) * 3
        assert len(pipeline.lanes) > 2


class TestShrink:
    def test_a_shrunk_away_lane_drains(self):
        service = build(3)
        pipeline = ServingPipeline(service, ServingConfig())
        doomed = [name for name in NAMES if service.shard_of(name) == 2]
        assert doomed
        queued = [pipeline.submit(name, ROW) for name in doomed]
        service.reshard(2)
        rerouted = [pipeline.submit(name, ROW) for name in doomed]
        pipeline.run()
        assert [f.result() for f in queued] == sync_scores(3, doomed)
        assert [f.result() for f in rerouted] == sync_scores(3, doomed)
        assert pipeline.lanes[2].enqueued == len(doomed)   # and no more
        assert not pipeline.lanes[2].items
