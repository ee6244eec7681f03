"""Unit coverage for the event-driven serving pipeline.

The issue/complete split end to end: futures, queue back-pressure,
micro-batch triggers, the client ``submit`` family (sync degrade and
resilient fallback), and the queue/batch/shed visibility surfaces.
"""

import random

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.config import LatencyModel, ServiceConfig
from repro.core.errors import ConfigError, RequestShedError
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.serving import (
    CompletionFuture,
    ServingConfig,
    ServingPipeline,
    serving_slos,
)
from repro.obs import MetricsRegistry, Tracer
from repro.sim.engine import Engine
from repro.sim.process import spawn

FEATURES = [3, 5]


def build(num_shards=1, admission=None, **config_kw):
    service = ShardedService(num_shards=num_shards,
                            admission=admission)
    service.create_domain("d")
    pipeline = ServingPipeline(service,
                               ServingConfig(**config_kw))
    return service, pipeline


class TestCompletionFuture:
    def test_completes_once_and_reports_latency(self):
        future = CompletionFuture(submitted_ns=10.0)
        assert not future.done
        future.complete(7, ts_ns=25.0)
        assert future.done
        assert future.result() == 7
        assert future.latency_ns == 15.0
        with pytest.raises(RuntimeError):
            future.complete(8)

    def test_failed_future_reraises(self):
        future = CompletionFuture()
        future.fail(RequestShedError("queue_full", "d", 0))
        assert future.done
        assert isinstance(future.error, RequestShedError)
        with pytest.raises(RequestShedError):
            future.result()

    def test_done_callback_fires_immediately_when_settled(self):
        future = CompletionFuture()
        future.complete(1)
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]


class TestPipelineFlow:
    def test_submit_completes_with_kernel_results(self):
        service, pipeline = build()
        reference = ShardedService()
        reference.create_domain("d")

        first = pipeline.submit("d", FEATURES)
        write = pipeline.submit("d", FEATURES, op="update",
                                direction=True)
        second = pipeline.submit("d", FEATURES)
        assert not first.done  # nothing runs until the engine does
        pipeline.run()

        expected_first = reference.handle("d").predict(FEATURES)
        reference.handle("d").update(FEATURES, True)
        expected_second = reference.handle("d").predict(FEATURES)
        assert first.result() == expected_first
        assert write.result() is None
        assert second.result() == expected_second
        assert service.domain("d").stats == \
            reference.domain("d").stats
        snap = pipeline.snapshot()
        assert snap["submitted"] == 3
        assert snap["completed"] == 3
        assert snap["in_flight"] == 0
        assert snap["failed"] == snap["shed"] == 0

    def test_completion_charges_simulated_time(self):
        _, pipeline = build()
        future = pipeline.submit("d", FEATURES)
        pipeline.run()
        # One scalar crossing: syscall_ns + 1 row of vdso_predict_ns.
        assert future.latency_ns == pytest.approx(72.19)
        assert pipeline.engine.now > 0

    def test_completion_charges_the_services_crossing_cost(self):
        """A lane charges the crossing its service's clients are
        charged - ``ServiceConfig.latency`` - not a default model."""
        latency = LatencyModel(syscall_ns=100.0)
        service = ShardedService(ServiceConfig(latency=latency))
        service.create_domain("d")
        pipeline = ServingPipeline(service,
                                   ServingConfig(batch_window_ns=0))
        future = pipeline.submit("d", FEATURES)
        pipeline.run()
        assert future.latency_ns == pytest.approx(104.19)

    def test_submit_snapshots_the_callers_buffer(self):
        """A list handed to ``submit`` may be reused before the engine
        runs: the request scores, and trains on, the row as it was."""
        reference = ShardedService()
        reference.create_domain("d")
        for _ in range(3):
            reference.handle("d").update([7, 9], True)
        first, other = [3, 5], [7, 9]
        want_first = reference.handle("d").predict(first)
        want_other = reference.handle("d").predict(other)
        assert want_first != want_other

        service, pipeline = build()
        buffer = list(other)
        for _ in range(3):
            pipeline.submit("d", buffer, op="update", direction=True)
        buffer[:] = first
        future = pipeline.submit("d", buffer)
        buffer[:] = other
        pipeline.run()
        assert future.result() == want_first
        # the updates trained the row they were submitted with
        assert service.handle("d").predict(other) == want_other

    def test_a_monitored_run_drains_without_a_load_generator(self):
        """With SLOs and nothing telling the pipeline the load is done,
        ``run()`` ends when the last request settles: nothing but the
        lane is scheduled, and the grid points the run passed are
        judged when it returns."""
        service = ShardedService()
        service.create_domain("d")
        pipeline = ServingPipeline(service, ServingConfig(),
                                   slos=serving_slos())
        futures = []

        def arrivals():
            for _ in range(2):
                futures.append(pipeline.submit("d", FEATURES))
                yield 1_500.0
            futures.append(pipeline.submit("d", FEATURES))

        spawn(pipeline.engine, arrivals())
        pipeline.run()
        assert [f.result() for f in futures] == [0, 0, 0]
        # the last settles after 3 000 ns: one grid point passed
        assert 3_000.0 < pipeline.engine.now < 4_000.0
        assert pipeline.evals == 1
        assert pipeline.engine.pending() == 0

    def test_unknown_op_rejected(self):
        _, pipeline = build()
        with pytest.raises(ConfigError):
            pipeline.submit("d", FEATURES, op="train")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServingConfig(queue_limit=-1)
        with pytest.raises(ConfigError):
            ServingConfig(slo_eval_interval_ns=0.0)


class Counted:
    """Shadow ``obj.attr`` on the instance, as ``perf/spans.py`` does,
    with a wrapper that counts calls and keeps their arguments."""

    def __init__(self, obj, attr):
        self.calls = []
        self.results = []
        inner = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            self.calls.append(args)
            result = inner(*args, **kwargs)
            self.results.append(result)
            return result

        setattr(obj, attr, wrapper)


class TestLedgerBoundaries:
    """``perf/`` times a served request by shadowing
    ``service.predict_batch`` / ``service.update`` / ``engine.step`` on
    the instances.  Those stay the program's boundaries only while the
    program looks them up there: every kernel entry and every fired
    event must pass through the shadow."""

    @pytest.mark.parametrize("window", [0.0, 200.0])
    def test_every_kernel_entry_and_event_crosses_a_shadow(self, window):
        tracer = Tracer()
        service = ShardedService(num_shards=2, tracer=tracer)
        for name in ("a", "b", "c"):
            service.create_domain(name)
        engine = Engine()
        scheduled = Counted(engine, "schedule")
        steps = Counted(engine, "step")
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=window, max_batch=4),
            engine=engine)
        predicts = Counted(service, "predict_batch")
        updates = Counted(service, "update")

        rng = random.Random(16)
        ops = [(rng.choice("abc"), [rng.randrange(8), rng.randrange(8)],
                rng.random() < 0.3) for _ in range(120)]

        def arrivals():
            for name, row, is_update in ops:
                yield float(rng.randrange(0, 90))
                pipeline.submit(name, row,
                                op="update" if is_update else "predict",
                                direction=True)

        spawn(engine, arrivals(), name="arrivals")
        pipeline.run()
        assert pipeline.snapshot()["completed"] == len(ops)

        # calls == kernel entries: what the shadows saw is what the
        # kernel's own books and the trace say happened
        stats = [service.domain(name).stats for name in "abc"]
        sent_updates = sum(is_update for _, _, is_update in ops)
        assert len(updates.calls) == sent_updates \
            == sum(s.updates for s in stats)
        rows = sum(len(requests) for requests, in predicts.calls)
        assert rows == len(ops) - sent_updates \
            == sum(s.predictions for s in stats)
        served = [event.detail["op"] for event in tracer.events()
                  if event.kind == "request"]
        # one kernel call per predicted row, at every window: a drained
        # batch is one crossing, not one kernel call - and each call
        # is one request record
        assert len(predicts.calls) == served.count("predict") == rows
        assert served.count("update") == sent_updates
        if window > 0.0:   # real batches formed
            batches = pipeline.batch_stats()
            assert batches["rows"] > batches["batches"]
            assert any(span.name == "serve.dispatch"
                       and span.detail["rows"] > 1
                       for span in tracer.spans())
        # calls == events: every scheduled event fired through step()
        assert sum(steps.results) == len(scheduled.calls)
        assert engine.pending() == 0

    def test_a_drained_mixed_batch_is_one_kernel_entry_per_request(self):
        """A batch over several domains with updates between its
        predictions enters the kernel once per request, in FIFO order."""
        service = ShardedService(num_shards=2)
        for name in ("a", "b", "c"):
            service.create_domain(name)
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=1e6, max_batch=64))
        entries = []
        for attr in ("predict_batch", "update"):
            inner = getattr(service, attr)

            def entry(*args, _attr=attr, _inner=inner):
                names = ((args[0],) if _attr == "update"
                         else tuple(name for name, _ in args[0]))
                entries.append((_attr, names))
                return _inner(*args)

            setattr(service, attr, entry)
        sent = [("predict", "a"), ("predict", "b"), ("update", "a"),
                ("predict", "a"), ("predict", "c"), ("predict", "b"),
                ("update", "c"), ("predict", "c")]
        for op, name in sent:
            pipeline.submit(name, FEATURES, op=op, direction=True)
        pipeline.run()
        assert pipeline.snapshot()["completed"] == len(sent)
        assert pipeline.batch_stats()["batches"] == 1
        assert entries == [("predict_batch" if op == "predict"
                            else "update", (name,)) for op, name in sent]


class TestBatchingTriggers:
    def test_window_zero_dispatches_scalar_batches(self):
        _, pipeline = build(batch_window_ns=0.0)
        for _ in range(5):
            pipeline.submit("d", FEATURES)
        pipeline.run()
        stats = pipeline.batch_stats()
        assert stats["batches"] == 5
        assert stats["rows"] == 5
        assert stats["flush_timeouts"] == 0

    def test_size_trigger_fills_batches_under_wide_window(self):
        _, pipeline = build(max_batch=4, batch_window_ns=1e6)
        for _ in range(8):
            pipeline.submit("d", FEATURES)
        pipeline.run()
        stats = pipeline.batch_stats()
        assert stats["batches"] == 2
        assert stats["rows"] == 8
        assert stats["flush_timeouts"] == 0

    def test_timeout_trigger_flushes_partial_batch(self):
        _, pipeline = build(max_batch=32, batch_window_ns=200.0)
        pipeline.submit("d", FEATURES)
        pipeline.submit("d", FEATURES)
        pipeline.run()
        stats = pipeline.batch_stats()
        assert stats["batches"] == 1
        assert stats["rows"] == 2
        assert stats["flush_timeouts"] == 1

    def test_batched_run_matches_scalar_results(self):
        rows = [[i % 4, (i * 3) % 4] for i in range(12)]
        outcomes = []
        for window in (0.0, 500.0):
            _, pipeline = build(max_batch=8, batch_window_ns=window)
            futures = [pipeline.submit("d", row) for row in rows]
            pipeline.run()
            outcomes.append([f.result() for f in futures])
        assert outcomes[0] == outcomes[1]


class TestBackPressure:
    def test_full_queue_sheds_at_admission(self):
        admission = AdmissionController()
        service, pipeline = build(admission=admission, queue_limit=2)
        futures = [pipeline.submit("d", FEATURES) for _ in range(5)]
        shed = [f for f in futures if f.done]
        assert len(shed) == 3  # refused synchronously at submit
        for future in shed:
            assert isinstance(future.error, RequestShedError)
            assert future.error.reason == "queue_full"
        assert admission.sheds_enforced == 3
        pipeline.run()
        snap = pipeline.snapshot()
        assert snap["completed"] == 2
        assert snap["shed"] == 3
        assert snap["queues"][0]["shed"] == 3

    def test_depth_rule_holds_without_admission_controller(self):
        _, pipeline = build(queue_limit=1)
        first = pipeline.submit("d", FEATURES)
        second = pipeline.submit("d", FEATURES)
        assert not first.done
        assert second.error is not None
        assert second.error.reason == "queue_full"

    def test_unbounded_queue_never_sheds(self):
        _, pipeline = build(queue_limit=0)
        for _ in range(64):
            pipeline.submit("d", FEATURES)
        pipeline.run()
        assert pipeline.shed_count == 0
        assert pipeline.completed == 64


class TestVisibility:
    def test_snapshot_and_summaries_carry_serving_state(self):
        admission = AdmissionController()
        service, pipeline = build(admission=admission, queue_limit=2)
        for _ in range(5):
            pipeline.submit("d", FEATURES)
        pipeline.run()
        summaries = pipeline.annotate_summaries(
            service.shard_summaries())
        serving = next(s["serving"] for s in summaries
                       if "serving" in s)
        assert serving["enqueued"] == 2
        assert serving["shed"] == 3
        assert serving["batches"] == 2
        from repro.bench.tables import shard_table
        rendered = shard_table(summaries)
        assert "shed" in rendered and "max-q" in rendered

    def test_shard_table_without_serving_block_unchanged(self):
        service = ShardedService()
        service.create_domain("d")
        from repro.bench.tables import shard_table
        assert "max-q" not in shard_table(service.shard_summaries())

    def test_empty_tracer_is_still_the_pipelines_tracer(self):
        # An empty Tracer is falsy (it defines __len__): choosing it
        # by truthiness silently ran the whole pipeline untraced.
        tracer = Tracer()
        assert len(tracer) == 0
        service = ShardedService(tracer=tracer)
        pipeline = ServingPipeline(service, ServingConfig(),
                                   tracer=tracer)
        assert pipeline.tracer is tracer
        assert ServingPipeline(service).tracer is tracer
        assert all(lane.tracer is tracer for lane in pipeline.lanes)
        service.create_domain("d")
        tracer.clear()
        pipeline.submit("d", FEATURES, op="update", direction=True)
        pipeline.run()
        served, = tracer.events()
        assert served.kind == "request"
        assert tracer.spans() == []   # a batch of one: no serve.dispatch
        # the engine's clock, end to end
        assert served.ts_ns + served.dur_ns == pipeline.engine.now

    def test_completion_files_sojourn_under_the_submit_shard(self):
        metrics = MetricsRegistry()
        service = ShardedService(num_shards=2, metrics=metrics)
        service.create_domain("d")
        pipeline = ServingPipeline(service, ServingConfig())
        served_by = service.shard_of("d")
        future = pipeline.submit("d", FEATURES)
        pipeline.run()
        assert future.done
        by_shard = {dict(labels)["shard"]: histogram.count
                    for (name, labels), histogram
                    in metrics.histograms()
                    if name == "pss_serve_latency_ns"}
        assert by_shard == {str(served_by): 1,
                            str(1 - served_by): 0}


class TestClientSubmit:
    def test_submit_degrades_to_sync_without_pipeline(self):
        service = PredictionService()
        client = service.connect("d",
                                 config=PSSConfig(num_features=2))
        future = client.submit(FEATURES)
        assert future.done
        assert future.result() == client.predict(FEATURES)
        update = client.submit_update(FEATURES, True)
        assert update.done and update.result() is None
        client.flush()  # sync updates ride the transport's batch
        assert service.domain("d").generation == 1

    def test_submit_routes_through_attached_pipeline(self):
        service = PredictionService()
        client = service.connect("d",
                                 config=PSSConfig(num_features=2))
        pipeline = ServingPipeline(service)
        client.attach_pipeline(pipeline)
        future = client.submit(FEATURES)
        assert not future.done
        pipeline.run()
        assert future.done
        client.attach_pipeline(None)
        assert client.submit(FEATURES).done  # detached: sync again

    def test_resilient_submit_falls_back_on_shed(self):
        service = PredictionService(admission=AdmissionController())
        client = service.connect("d", config=PSSConfig(num_features=2),
                                 fallback=-7)
        pipeline = ServingPipeline(
            service, ServingConfig(queue_limit=2))
        client.attach_pipeline(pipeline)
        predicts = [client.submit(FEATURES) for _ in range(4)]
        update = client.submit_update(FEATURES, True)
        pipeline.run()
        # 2 admitted, served by the kernel; the rest degraded.
        scores = [f.result() for f in predicts]
        assert scores.count(-7) == 2
        assert update.result() is None
        assert client.stats.shed_requests == 3
        assert client.stats.fallback_predictions == 2
        assert client.stats.dropped_updates == 1
        assert all(f.error is None for f in predicts)

    def test_resilient_submit_clears_fallback_flag_on_success(self):
        service = PredictionService()
        client = service.connect("d", config=PSSConfig(num_features=2),
                                 fallback=-7)
        pipeline = ServingPipeline(
            service, ServingConfig(queue_limit=1))
        client.attach_pipeline(pipeline)
        futures = [client.submit(FEATURES) for _ in range(3)]
        # Two were shed on the spot (queue of 1): served degraded.
        assert client.last_prediction_was_fallback
        pipeline.run()
        assert [f.result() for f in futures] == [0, -7, -7]
        served = client.submit(FEATURES)
        pipeline.run()
        assert served.result() == 0
        # The flag describes the most recent predict, like the sync
        # path: one shed must not mark every later answer degraded.
        assert not client.last_prediction_was_fallback
