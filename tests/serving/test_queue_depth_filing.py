"""``pss_queue_depth`` filed when the registry is read is the histogram
per-push observes leave.

A serving lane (:class:`Dispatcher`) counts each post-enqueue depth
and hands the counts to the registry only when it is next read (the
lane is one of ``MetricsRegistry``'s filers).  Depths are integers, so every
reported field - ``count``, ``sum``, ``min``, ``max``, the zero bucket
and the log buckets - must equal what one ``observe`` per push gives.
The oracle here is exactly that: ``Dispatcher.push`` shadowed to
observe each push's depth into a private histogram per shard, compared
at registry reads taken mid-run and after it.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.core.serving.dispatch import Dispatcher
from repro.obs import MetricsRegistry
from repro.obs.metrics import QUEUE_DEPTH, Histogram, SHED_TOTAL
from repro.sim.process import spawn

CONFIG = PSSConfig(num_features=2)
NAMES = [f"d{i}" for i in range(5)]
ROW = (3, 5)


def fields(histogram):
    return (histogram.count, histogram.sum, histogram.min, histogram.max,
            histogram.zero_count, dict(histogram.buckets),
            histogram.snapshot())


@contextlib.contextmanager
def per_push_oracle():
    """Per shard label, the histogram one ``observe`` per push leaves."""
    oracle = {}
    push = Dispatcher.push

    def observed_push(lane, request):
        # the depth this push makes, taken before it wakes a parked
        # lane that may drain the queue at once
        depth = len(lane.items) + 1
        push(lane, request)
        oracle.setdefault(lane.label, Histogram()).observe(float(depth))

    Dispatcher.push = observed_push
    try:
        yield oracle
    finally:
        Dispatcher.push = push


@pytest.fixture
def per_push():
    with per_push_oracle() as oracle:
        yield oracle


def run(oracle, schedule, shards, **config):
    """Serve ``schedule`` (``(delay, domain index, read)`` triples),
    reading the registry wherever ``read`` says and checking every
    shard's depth histogram against the oracle there and at the end."""
    metrics = MetricsRegistry()
    service = ShardedService(num_shards=shards, metrics=metrics)
    for name in NAMES:
        service.create_domain(name, config=CONFIG)
    pipeline = ServingPipeline(service, ServingConfig(**config))

    def agree():
        for label, want in oracle.items():
            got = metrics.histogram(QUEUE_DEPTH, shard=label)
            assert fields(got) == fields(want), label

    def arrivals():
        for delay, index, read in schedule:
            if delay:
                yield delay
            pipeline.submit(NAMES[index], ROW)
            if read:
                agree()

    spawn(pipeline.engine, arrivals(), name="arrivals")
    pipeline.run()
    agree()
    snapshot = metrics.snapshot()
    depth_rows = {row["labels"]["shard"]: row
                  for row in snapshot["histograms"]
                  if row["name"] == QUEUE_DEPTH}
    for label, want in oracle.items():
        assert {key: depth_rows[label][key] for key in want.snapshot()} \
            == want.snapshot()
    return pipeline, metrics


def burst(count, every=0.0, read_every=0):
    return [(every if i else 0.0, i % len(NAMES),
             bool(read_every) and i % read_every == read_every - 1)
            for i in range(count)]


class TestDepthFilingIsPerPushObserve:
    def test_a_drain_smaller_than_the_depth_leaves_a_residue(self,
                                                              per_push):
        """``max_batch`` 3 under a burst of 20, then a push every 10 ns:
        each drain leaves most of the queue, so depths climb, and
        repeat between two reads."""
        schedule = burst(20, read_every=7) + [(500.0, 0, True)] \
            + burst(20, every=10.0)
        pipeline, _ = run(per_push, schedule, shards=1,
                          batch_window_ns=50.0, max_batch=3)
        assert pipeline.lanes[0].max_depth > 3
        assert pipeline.batch_stats()["batches"] > 1
        assert per_push["0"].count == 41

    def test_unbounded_queue(self, per_push):
        pipeline, _ = run(per_push, burst(60, read_every=11), shards=2,
                          batch_window_ns=200.0, max_batch=8,
                          queue_limit=0)
        assert pipeline.snapshot()["shed"] == 0
        assert sum(h.count for h in per_push.values()) == 60

    def test_sheds_file_what_is_owed_before_counting(self, per_push):
        """A lane's first shed resolves its counter through
        ``metrics.counter``, a registry read, so a filing interleaves
        with the burst's pushes."""
        pipeline, metrics = run(per_push, burst(40), shards=1,
                                batch_window_ns=200.0, max_batch=4,
                                queue_limit=6)
        shed = pipeline.snapshot()["shed"]
        assert shed > 0
        assert metrics.counter(SHED_TOTAL, shard="0",
                               reason="queue_full").value == shed
        assert per_push["0"].count == 40 - shed

    def test_only_a_reasons_first_shed_reads_the_registry(self):
        """A lane resolves its ``pss_shed_total`` counter once per
        reason: later sheds make no registry read (a read calls every
        standing filer)."""
        metrics = MetricsRegistry()
        service = ShardedService(metrics=metrics)
        service.create_domain(NAMES[0], config=CONFIG)
        pipeline = ServingPipeline(service, ServingConfig(queue_limit=1))
        reads = []
        metrics.add_filer(lambda: reads.append(pipeline.shed_count))
        for _ in range(10):             # one queued, nine shed
            pipeline.submit(NAMES[0], ROW)
        assert reads == [1]
        assert metrics.counter(SHED_TOTAL, shard="0",
                               reason="queue_full").value == 9

    def test_an_unmetered_queue_counts_nothing(self):
        service = ShardedService()
        service.create_domain("d", config=CONFIG)
        pipeline = ServingPipeline(service, ServingConfig())
        pipeline.submit("d", ROW)
        pipeline.run()
        assert pipeline.lanes[0]._depths is None

    @settings(max_examples=60, deadline=None)
    @given(shards=st.integers(1, 3),
           window=st.sampled_from([0.0, 40.0, 200.0]),
           max_batch=st.integers(1, 6),
           queue_limit=st.sampled_from([0, 3, 12]),
           schedule=st.lists(
               st.tuples(st.sampled_from([0.0, 0.0, 1.0, 30.0, 300.0]),
                         st.integers(0, len(NAMES) - 1), st.booleans()),
               min_size=1, max_size=60))
    def test_any_schedule(self, shards, window, max_batch, queue_limit,
                          schedule):
        with per_push_oracle() as oracle:
            run(oracle, schedule, shards=shards, batch_window_ns=window,
                max_batch=max_batch, queue_limit=queue_limit)
