"""The lanes drain by the batching rule, checked against a model of it.

:func:`reference` is the rule written down on its own, with an event
heap that breaks ties the way the engine does (time, then scheduling
order): a lane that is idle starts collecting when a request arrives;
it drains at once when the window is 0 (one request, ``scalar``) or a
full batch is queued, else after ``batch_window_ns``; a drain takes up
to ``max_batch`` in FIFO order (``size`` when it took that many, else
``timeout``), costs ``syscall_ns + rows * vdso_predict_ns``, and the
lane starts collecting again at once if anything is queued.  A request
that finds ``queue_limit`` queued is shed.  Hypothesis drives both with
random arrival gaps and configurations and requires the same drains
(collect and drain times, rows, triggers), the same sheds, the same
settle times and depth peaks, and the same stamps on every ``request``
record.  The serve golden pins only the quick sweep's configurations.
"""

from heapq import heappop, heappush
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LatencyModel, PSSConfig
from repro.core.errors import RequestShedError
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import Tracer
from repro.sim.process import spawn

GAPS = [0.0, 0.0, 1.0, 10.0, 50.0, 72.19, 120.0, 200.0, 400.0]
#: a service's default crossing costs, what the lanes charge
LATENCY = LatencyModel()


def cost(rows):
    return LATENCY.syscall_ns + rows * LATENCY.vdso_predict_ns


def reference(arrivals, shards, window, max_batch, limit):
    """``arrivals`` is ``(gap, shard)`` in submit order.  Returns the
    drains ``(shard, collect, drained, rows, trigger)``, per request
    its settle time or None for a shed, and per shard its peak depth
    and sheds."""
    heap, order, clock = [], count(), [0.0]
    queues = [[] for _ in range(shards)]
    busy, peak, sheds = [False] * shards, [0] * shards, [0] * shards
    drains, settled = [], [None] * len(arrivals)

    def at(time, action):
        heappush(heap, (time, next(order), action))

    def collect(lane):
        busy[lane] = True
        start = clock[0]
        if window and len(queues[lane]) < max_batch:
            at(start + window, lambda: drain(lane, start))
        else:
            drain(lane, start)

    def drain(lane, start):
        rows = 1 if not window else min(len(queues[lane]), max_batch)
        batch, queues[lane][:rows] = queues[lane][:rows], []
        trigger = ("scalar" if not window
                   else "size" if rows == max_batch else "timeout")
        drains.append((lane, start, clock[0], rows, trigger))
        at(clock[0] + cost(rows), lambda: served(lane, batch))

    def served(lane, batch):
        for index in batch:
            settled[index] = clock[0]
        if queues[lane]:
            collect(lane)
        else:
            busy[lane] = False

    def arrive(index):
        while True:
            lane = arrivals[index][1]
            if limit and len(queues[lane]) >= limit:
                sheds[lane] += 1
            else:
                queues[lane].append(index)
                peak[lane] = max(peak[lane], len(queues[lane]))
                if not busy[lane]:
                    collect(lane)
            index += 1
            if index == len(arrivals):
                return
            if arrivals[index][0]:
                at(clock[0] + arrivals[index][0], lambda: arrive(index))
                return

    at(arrivals[0][0], lambda: arrive(0))
    while heap:
        clock[0], _, action = heappop(heap)
        action()
    return drains, settled, peak, sheds


def serve(arrivals, shards, window, max_batch, limit):
    """The same arrivals through a real pipeline: its drains (from the
    ``request`` records), settle times, peaks and sheds, and its
    ``batch.flush_timeout`` records and drain counters."""
    tracer = Tracer()
    service = ShardedService(num_shards=shards, tracer=tracer)
    assert service.config.latency == LATENCY
    names = [next(name for name in map("d{}".format, range(64))
                  if service.shard_of(name) == lane)
             for lane in range(shards)]
    for name in names:
        service.create_domain(name, config=PSSConfig(num_features=2))
    pipeline = ServingPipeline(service, ServingConfig(
        batch_window_ns=window, max_batch=max_batch, queue_limit=limit))
    futures = []

    def body():
        for gap, lane in arrivals:
            if gap:
                yield gap
            futures.append(pipeline.submit(names[lane], (1, 2)))

    spawn(pipeline.engine, body())
    pipeline.run()
    events = tracer.events()
    drains = {}
    for event in events:
        if event.kind == "request":
            detail = event.detail
            key = (int(event.shard), detail["collect_ns"],
                   detail["drained_ns"], detail["rows"], detail["trigger"])
            drains[key] = drains.get(key, 0) + 1
            assert detail["settled_ns"] == event.ts_ns + event.dur_ns
    assert all(rows == taken for (*_, rows, _t), taken in drains.items())
    settled = [None if isinstance(future.error, RequestShedError)
               else future.completed_ns for future in futures]
    lanes = pipeline.snapshot()["queues"]
    timeouts = sorted((int(event.shard), event.ts_ns, event.detail["rows"])
                      for event in events
                      if event.kind == "batch.flush_timeout")
    return (sorted(drains), settled, [lane["max_depth"] for lane in lanes],
            [lane["shed"] for lane in lanes], timeouts,
            pipeline.batch_stats())


@settings(max_examples=150, deadline=None)
@given(shards=st.integers(1, 2),
       window=st.sampled_from([0.0, 50.0, 200.0]),
       max_batch=st.integers(1, 8),
       limit=st.integers(0, 6),
       arrivals=st.lists(st.tuples(st.sampled_from(GAPS),
                                   st.integers(0, 1)),
                         min_size=1, max_size=40))
def test_the_lanes_drain_by_the_rule(shards, window, max_batch, limit,
                                     arrivals):
    arrivals = [(gap, lane % shards) for gap, lane in arrivals]
    drains, settled, peak, sheds = reference(
        arrivals, shards, window, max_batch, limit)
    got, got_settled, got_peak, got_sheds, timeouts, stats = serve(
        arrivals, shards, window, max_batch, limit)
    assert got == sorted(drains)
    assert got_settled == settled
    assert (got_peak, got_sheds) == (peak, sheds)
    assert timeouts == sorted((lane, drained, rows)
                              for lane, _, drained, rows, trigger in drains
                              if trigger == "timeout")
    assert stats == {"batches": len(drains),
                     "rows": sum(drain[3] for drain in drains),
                     "flush_timeouts": len(timeouts)}
