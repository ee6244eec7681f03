"""Golden operation traces: what one call *does*, not what it returns.

Each test drives one public operation on a traced stack and asserts the
exact records it leaves - the span tree by name and the event kinds in
order - so a change that adds a crossing, drops a stage or re-enters the
kernel on a cache hit fails here even when every score is still right.
"""

import contextlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import transport
from repro.core.config import PSSConfig
from repro.core.errors import (
    DomainError,
    FeatureError,
    PolicyError,
    QuotaExceededError,
    ShardDownError,
)
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity, private_policy
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import SLO, SLOEngine, Tracer, span_children, validate_spans
from repro.obs.exporters import chrome_trace
from repro.obs.postmortem import request_stages
from repro.sim.process import spawn

ROW = (3, 5, 7, 11)
CONFIG = PSSConfig(num_features=4)


def traced_service():
    tracer = Tracer()
    service = ShardedService(num_shards=2, tracer=tracer,
                             admission=AdmissionController())
    return tracer, service


def forest(tracer):
    """The completed spans as nested ``(name, [children])`` pairs,
    children in the order they opened."""
    spans = [span.as_dict() for span in tracer.spans()]
    roots = validate_spans(spans)
    children = span_children(spans)

    def node(span):
        kids = sorted(children.get(span["span_id"], ()),
                      key=lambda child: child["span_id"])
        return span["name"], [node(kid) for kid in kids]

    return [node(root) for root in sorted(roots,
                                          key=lambda s: s["span_id"])]


def onto_the_ladder(service, client):
    """A steady call is the transport's records alone; one refused
    read puts the client on its degrade ladder (``client.*`` spans)
    until a call succeeds there."""
    service.admission.set_quota(ClientIdentity(), TenantQuota(
        predict_budget=0))
    client.predict((9, 9, 9, 9))
    service.admission.set_quota(ClientIdentity(), TenantQuota())


def kinds(tracer):
    return [event.kind for event in tracer.events()]


def details(tracer):
    return [event.detail for event in tracer.events()]


class TestSyncClient:
    def test_vdso_score_cache_hit_never_enters_the_kernel(self):
        """The record budget of a sync hit: the one event that says
        what the probe decided, spanning the read's 4.19 ns.  A hit
        never leaves the process, so nothing opens a span for it - not
        the client, not the transport - and it never enters the
        kernel."""
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG)
        client.predict(ROW)   # fill the score cache
        tracer.clear()
        client.predict(ROW)
        assert forest(tracer) == []
        assert kinds(tracer) == ["predict"]
        assert details(tracer) == [{"cache": "hit"}]
        event, = tracer.events()
        assert event.dur_ns == 4.19
        assert event.ts_ns == client.latency.total_ns
        assert len(tracer) + len(tracer.spans()) == 1

    def test_vdso_score_cache_miss_is_one_kernel_predict(self):
        """The record budget of a sync miss, which makes one kernel
        predict call: one record, as for a hit.  The read calls the
        service but never enters the kernel, so it opens no span - no
        ``vdso.predict``, no ``kernel.predict``, and a charge of one is
        no ``kernel.admission`` - and its event, emitted once the read
        returns, says ``miss`` and spans the read's 4.19 ns."""
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG)
        tracer.clear()
        before = client.latency.total_ns
        client.predict(ROW)
        assert forest(tracer) == []
        assert kinds(tracer) == ["predict"]
        assert details(tracer) == [{"cache": "miss"}]
        event, = tracer.events()
        assert event.span_id == 0
        assert event.ts_ns == client.latency.total_ns
        assert event.ts_ns - event.dur_ns == pytest.approx(before, abs=1e-9)
        assert len(tracer) + len(tracer.spans()) == 1
        assert service.domain("d").stats.predictions == 1

    def test_syscall_read_is_three_records(self):
        """A real crossing does enter the kernel and keeps its
        ``kernel.predict``; the charge of one under it is gone."""
        tracer, service = traced_service()
        client = service.connect("d", transport="syscall", config=CONFIG)
        tracer.clear()
        client.predict(ROW)
        assert forest(tracer) == [
            ("syscall.predict", [("kernel.predict", [])])]
        assert kinds(tracer) == ["predict"]
        assert len(tracer) + len(tracer.spans()) == 3

    def test_resilient_vdso_miss_is_rooted_under_client(self):
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG,
                                 fallback=0)
        tracer.clear()
        client.predict(ROW)
        assert (forest(tracer), details(tracer)) == ([], [{"cache": "miss"}])
        onto_the_ladder(service, client)
        tracer.clear()
        client.predict((1, 2, 3, 4))
        assert forest(tracer) == [("client.predict", [])]
        assert details(tracer) == [{"cache": "miss"}]
        root, = tracer.spans()
        event, = tracer.events()
        assert event.span_id == root.span_id

    @pytest.mark.parametrize("why", ["quota", "shard_down"])
    def test_refused_vdso_miss_names_its_refusal(self, why):
        """What refuses the read - the tenant's budget, or a crashed
        shard no follower covers - is the ``outcome`` its one event
        carries, and the error SLO counts the read bad.  The read opens
        no span to say it again; only the failover the crashed shard
        tried is one, closed with the same error."""
        tracer = Tracer()
        who, admission = ClientIdentity(7, "t"), AdmissionController()
        service = ShardedService(tracer=tracer, admission=admission)
        # the transport under the client: the refusal raises here
        client = service.connect("d", transport="vdso", config=CONFIG,
                                 identity=who)._transport
        if why == "quota":
            admission.set_quota(who, TenantQuota(predict_budget=0))
            error = QuotaExceededError
        else:
            service.crash_shard(0)
            error = ShardDownError
        tracer.clear()
        with pytest.raises(error):
            client.predict(ROW)
        tried = [] if why == "quota" else [("kernel.failover", [])]
        assert forest(tracer) == tried
        assert {span.status for span in tracer.spans()} <= {
            f"error:{error.__name__}"}
        assert kinds(tracer) == ["predict"]
        assert details(tracer) == [
            {"cache": "miss", "outcome": f"error:{error.__name__}"}]
        engine = SLOEngine([SLO("op-errors", "error")])
        engine.consume(tracer.events())
        verdict, = engine.evaluate()
        assert (verdict.good, verdict.bad) == (0, 1)

    def test_follower_served_miss_settles_after_its_failover(self):
        """The follower answers before the read settles: its
        ``kernel.failover`` is a root of its own, and its ``failover``
        event comes before the read's ``predict``."""
        tracer = Tracer()
        service = ShardedService(tracer=tracer, num_replicas=1,
                                 admission=AdmissionController())
        client = service.connect("d", transport="vdso", config=CONFIG)
        service.sync_replicas()
        service.crash_shard(0)
        tracer.clear()
        client.predict(ROW)
        assert forest(tracer) == [("kernel.failover", [])]
        assert kinds(tracer) == ["failover", "predict"]
        failover, read = tracer.events()
        assert failover.span_id == tracer.spans()[0].span_id
        assert read.span_id == 0
        assert read.detail == {"cache": "miss"}

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.one_of(
        st.integers(0, 3),
        st.sampled_from(["move", "quota", "lift", "crash"])),
        max_size=24), follower=st.booleans())
    def test_every_scalar_vdso_read_is_one_event(self, steps, follower):
        """Hits, misses, quota refusals and crashed shards, with and
        without a follower: every scalar vDSO read leaves exactly one
        ``predict`` event, which names an ``outcome`` exactly when the
        read raised, and no read opens a span; watching changes no
        score and no refusal."""
        pool = [(i, i + 1, i + 2, i + 3) for i in range(4)]
        runs = []
        for traced in (True, False):
            tracer = Tracer() if traced else None
            who, admission = ClientIdentity(7, "t"), AdmissionController()
            service = ShardedService(tracer=tracer, admission=admission,
                                     num_replicas=int(follower))
            client = service.connect("d", transport="vdso", config=CONFIG,
                                     identity=who)._transport
            service.sync_replicas()
            outcomes = []
            for step in steps:
                if step == "move":
                    with contextlib.suppress(ShardDownError):
                        service.handle("d").update(pool[0], True)
                elif step in ("quota", "lift"):
                    admission.set_quota(who, TenantQuota(
                        predict_budget=0) if step == "quota"
                        else TenantQuota())
                elif step == "crash":
                    if not service.shard(0).down:
                        service.crash_shard(0)
                else:
                    seen = len(tracer) if traced else 0
                    try:
                        outcomes.append(client.predict(pool[step]))
                        refusal = None
                    except (QuotaExceededError, ShardDownError) as error:
                        refusal = f"error:{type(error).__name__}"
                        outcomes.append(refusal)
                    if traced:
                        read, = [event for event
                                 in tracer.events()[seen:]
                                 if event.kind == "predict"]
                        assert read.detail.get("outcome") == refusal
                        assert read.detail["cache"] in ("hit", "miss")
            runs.append(outcomes)
            if traced:
                validate_spans(span.as_dict() for span in tracer.spans())
                assert "vdso.predict" not in {
                    span.kind for span in tracer.spans()}
        assert runs[0] == runs[1]

    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(st.one_of(
        st.lists(st.integers(0, 5), min_size=1, max_size=8),
        st.booleans()), max_size=12))
    def test_vdso_batch_rows_leave_the_scalar_events(self, stream):
        """Row for row a vDSO batch emits what the scalar reads would:
        the same ``predict`` events, stamped and detailed alike."""
        pool = [(i, i + 1, i + 2, i + 3) for i in range(6)]
        events = []
        for batched in (True, False):
            tracer, service = traced_service()
            client = service.connect("d", transport="vdso", config=CONFIG,
                                     batch_size=1)
            for step in stream:
                if isinstance(step, bool):   # move the weights
                    client.update(pool[0], step)
                    continue
                rows = [pool[i] for i in step]
                if batched:
                    client.predict_batch(rows)
                else:
                    for row in rows:
                        client.predict(row)
            events.append([event._replace(span_id=0)
                           for event in tracer.events()
                           if event.kind == "predict"])
        assert events[0] == events[1]
        assert all(event.detail["cache"] in ("hit", "miss")
                   for event in events[0])

    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(st.one_of(
        st.lists(st.integers(0, 5), min_size=1, max_size=8),
        st.tuples(st.integers(0, 5), st.booleans()),
        st.none()), max_size=16))
    def test_vdso_reads_and_writes_leave_one_event_each(self, stream):
        """Interleaved predict / predict_batch / update / flush on a
        vDSO client, scalar and batch twins: one ``predict`` event per
        read, saying what the account counted; the SLO engine reads
        both twins alike; the records share their detail constants and
        leave them alone; and watching changes nothing the untraced
        run computes."""
        pool = [(i, i + 1, i + 2, i + 3) for i in range(6)]
        wide = {"short_window_ns": 1e12, "long_window_ns": 1e12}
        runs = []
        for batched, traced in ((True, True), (False, True),
                                (False, False)):
            tracer = Tracer() if traced else None
            service = ShardedService(num_shards=2, tracer=tracer,
                                     admission=AdmissionController())
            client = service.connect("d", transport="vdso", config=CONFIG,
                                     batch_size=3)
            scores, reads = [], 0
            for step in stream:
                if step is None:
                    client.flush()
                elif isinstance(step, tuple):
                    client.update(pool[step[0]], step[1])
                else:
                    rows = [pool[i] for i in step]
                    reads += len(rows)
                    scores += (client.predict_batch(rows) if batched
                               else [client.predict(row) for row in rows])
            domain = service.domain("d")
            runs.append((scores, domain.stats, domain.generation,
                         client.latency.cache_hits,
                         client.latency.cache_misses))
            if tracer is None:
                continue
            caches = [event.detail["cache"] for event in tracer.events()
                      if event.kind == "predict"]
            assert len(caches) == reads
            assert (caches.count("hit"), caches.count("miss")) == (
                client.latency.cache_hits, client.latency.cache_misses)
            engine = SLOEngine([
                SLO("latency", "latency", threshold_ns=100.0, **wide),
                SLO("errors", "error", **wide)])
            engine.consume(tracer.events())
            runs[-1] += ([(v.slo, v.good, v.bad)
                          for v in engine.evaluate()],)
            exports = []
            for _ in range(2):
                lines = [json.dumps(e.as_dict()) for e in tracer.events()]
                lines.append(json.dumps(chrome_trace(
                    tracer.events(), tracer.spans()), sort_keys=True))
                exports.append(lines)
            assert exports[0] == exports[1]
        assert runs[0] == runs[1]
        assert runs[1][:5] == runs[2]
        assert (transport._CACHE_HIT, transport._CACHE_MISS) == (
            {"cache": "hit"}, {"cache": "miss"})
        assert (transport._BUFFERED_UP, transport._BUFFERED_DOWN) == (
            {"direction": True, "buffered": True},
            {"direction": False, "buffered": True})

    def test_resilient_client_roots_the_call_under_client(self):
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG,
                                 fallback=0)
        client.predict(ROW)
        tracer.clear()
        client.predict(ROW)
        assert (forest(tracer), details(tracer)) == ([], [{"cache": "hit"}])
        onto_the_ladder(service, client)
        tracer.clear()
        client.predict(ROW)
        assert forest(tracer) == [("client.predict", [])]
        assert details(tracer) == [{"cache": "hit"}]
        event, = tracer.events()
        assert event.span_id == tracer.spans()[0].span_id

    def test_syscall_batch_of_256_is_one_crossing(self):
        tracer, service = traced_service()
        client = service.connect("d", transport="syscall", config=CONFIG)
        rows = [(i, i + 1, i + 2, i + 3) for i in range(256)]
        tracer.clear()
        client.predict_batch(rows)
        assert forest(tracer) == [
            ("syscall.predict_batch", [
                ("kernel.predict_batch", [
                    ("kernel.admission", []),
                    ("plan.execute", [])])])]
        # a real batch's charge is still a stage of its tree
        admission, = [span for span in tracer.spans()
                      if span.kind == "kernel.admission"]
        assert admission.detail == {"count": 256}
        event, = tracer.events()
        assert event.kind == "predict_batch"
        assert event.detail == {"rows": 256}
        assert client.latency.syscalls == 1

    @pytest.mark.parametrize("kind, ladder", [
        ("syscall", False), ("vdso", False), ("vdso", True)])
    def test_an_empty_batch_is_no_record(self, kind, ladder):
        """An empty batch reads and crosses nothing: no span opens, on
        the degrade ladder or off it."""
        tracer, service = traced_service()
        client = service.connect("d", transport=kind, config=CONFIG)
        if ladder:
            onto_the_ladder(service, client)
        tracer.clear()
        assert client.predict_batch([]) == []
        assert (tracer.spans(), len(tracer)) == ([], 0)


class TestSyncWritePath:
    def test_buffered_vdso_update_is_one_record(self):
        """The record budget of a buffered update: nothing is crossed,
        so no span opens - the event is the record."""
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG)
        tracer.clear()
        client.update(ROW, True)
        assert forest(tracer) == []
        assert kinds(tracer) == ["update"]
        assert details(tracer) == [{"direction": True, "buffered": True}]
        assert len(tracer) + len(tracer.spans()) == 1

    @pytest.mark.parametrize("explicit", [False, True])
    def test_flush_of_32_records_is_three_records(self, explicit):
        """The record budget of a flush, whatever it carries: the
        crossing's span, its ``flush`` event and one kernel dispatch
        for the batch.  The update that fills the buffer triggers the
        same tree, rooted at ``vdso.flush``."""
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG,
                                 batch_size=64 if explicit else 32)
        rows = [(i, i + 1, i + 2, i + 3) for i in range(32)]
        for row in rows[:-1]:
            client.update(row, True)
        tracer.clear()
        client.update(rows[-1], False)
        if explicit:
            client.flush()
        assert forest(tracer) == [
            ("vdso.flush", [("kernel.update_batch", [])])]
        assert kinds(tracer) == ["update", "flush"]
        assert details(tracer)[1] == {"records": 32, "delivered": 32}
        assert [span.detail for span in tracer.spans()] == [
            {"records": 32}] * 2
        # the last update's own event, then the flush's three
        assert len(tracer) + len(tracer.spans()) == 1 + 3
        assert service.domain("d").stats.updates == 32

    def test_syscall_update_is_a_scalar_kernel_update(self):
        """A real crossing keeps its span, and the scalar kernel update
        keeps its own name."""
        tracer, service = traced_service()
        client = service.connect("d", transport="syscall", config=CONFIG)
        tracer.clear()
        client.update(ROW, True)
        assert forest(tracer) == [
            ("syscall.update", [("kernel.update", [])])]
        assert kinds(tracer) == ["update"]
        assert len(tracer) + len(tracer.spans()) == 3


class TestPipeline:
    def build(self):
        tracer, service = traced_service()
        service.create_domain("d", config=CONFIG)
        pipeline = ServingPipeline(service,
                                   ServingConfig(batch_window_ns=0.0))
        tracer.clear()
        return tracer, pipeline

    def test_window_0_predict_is_at_most_two_records(self):
        """The record budget of a served predict: its one wide
        ``request`` record.  A drained batch of one is no
        ``serve.dispatch`` - the record says ``rows: 1`` - and its
        kernel call opens no span: the record already names its
        domain, shard and outcome."""
        tracer, pipeline = self.build()
        future = pipeline.submit("d", ROW)
        pipeline.run()
        assert future.done and future.error is None
        assert kinds(tracer) == ["request"]
        assert forest(tracer) == []
        assert len(tracer) + len(tracer.spans()) == 1
        event, = tracer.events()
        assert (event.ts_ns, event.dur_ns) == (
            future.submitted_ns, future.latency_ns)
        assert event.detail == {
            "op": "predict", "outcome": "ok", "rows": 1,
            "trigger": "scalar", "collect_ns": 0.0, "drained_ns": 0.0,
            "settled_ns": future.completed_ns}

    def test_windowed_batch_keeps_the_stage_tree(self):
        """Predictions drained together are a real batch: one
        ``serve.dispatch{rows, trigger}`` (one crossing) with one
        ``request`` record per request filed under it as its leaves."""
        tracer, service = traced_service()
        service.create_domain("d", config=CONFIG)
        pipeline = ServingPipeline(service,
                                   ServingConfig(batch_window_ns=200.0))
        tracer.clear()
        rows = [(i, i + 1, i + 2, i + 3) for i in range(4)]
        futures = [pipeline.submit("d", row) for row in rows]
        pipeline.run()
        assert all(f.done and f.error is None for f in futures)
        assert forest(tracer) == [("serve.dispatch", [])]
        dispatch, = tracer.spans()
        assert dispatch.detail == {"rows": 4, "trigger": "timeout"}
        assert kinds(tracer) == ["batch.flush_timeout"] + ["request"] * 4
        for event in tracer.events()[1:]:
            assert event.span_id == dispatch.span_id
            assert (event.domain, event.shard) == ("d", dispatch.shard)
            assert event.detail["outcome"] == "ok"
            assert event.detail["rows"] == 4
            assert event.detail["trigger"] == "timeout"
            assert (event.detail["collect_ns"],
                    event.detail["drained_ns"]) == (0.0, 200.0)

    def test_window_0_update_is_at_most_two_records(self):
        tracer, pipeline = self.build()
        future = pipeline.submit("d", ROW, op="update", direction=True)
        pipeline.run()
        assert future.done and future.error is None
        assert kinds(tracer) == ["request"]
        assert details(tracer)[0]["op"] == "update"
        assert forest(tracer) == []
        assert len(tracer) + len(tracer.spans()) == 1

    def test_failed_over_predict_is_a_root_failover_and_its_record(self):
        """On a crashed shard a synced follower answers: the read's
        ``kernel.failover`` span is a root (window 0 opens no
        ``serve.dispatch``), its ``failover`` event inside it, and the
        request's record says ``ok`` on the crashed shard's label."""
        tracer = Tracer()
        service = ShardedService(num_shards=2, num_replicas=1,
                                 tracer=tracer)
        service.create_domain("d", config=CONFIG)
        service.sync_replicas()
        service.crash_shard(service.shard_of("d"))
        pipeline = ServingPipeline(service,
                                   ServingConfig(batch_window_ns=0.0))
        tracer.clear()
        future = pipeline.submit("d", ROW)
        pipeline.run()
        assert future.error is None
        assert future.result() == service.handle("d").predict(ROW)
        label = str(service.shard_of("d"))
        failover = tracer.spans()[0]
        assert forest(tracer)[0] == ("kernel.failover", [])
        assert (failover.domain, failover.shard, failover.status) == (
            "d", label, "ok")
        failed_over, record = tracer.events()[:2]
        assert failed_over.kind == "failover"
        assert failed_over.span_id == failover.span_id
        assert record.kind == "request" and record.span_id == 0  # a root
        assert (record.domain, record.shard,
                record.detail["outcome"]) == ("d", label, "ok")

    def test_crashed_shard_without_a_follower_says_so_twice(self):
        """No follower holds the domain: the failover stage is the only
        span, a root closed ``error:ShardDownError``, and the request's
        record says the same outcome.  No ``failover`` event: nothing
        answered."""
        tracer, service = traced_service()
        service.create_domain("d", config=CONFIG)
        service.crash_shard(service.shard_of("d"))
        pipeline = ServingPipeline(service,
                                   ServingConfig(batch_window_ns=0.0))
        tracer.clear()
        future = pipeline.submit("d", ROW)
        pipeline.run()
        assert isinstance(future.error, ShardDownError)
        label = str(service.shard_of("d"))
        assert forest(tracer) == [("kernel.failover", [])]
        failover, = tracer.spans()
        assert (failover.domain, failover.shard, failover.status) == (
            "d", label, "error:ShardDownError")
        record, = tracer.events()
        assert (record.kind, record.domain, record.shard) == (
            "request", "d", label)
        assert record.detail["outcome"] == "error:ShardDownError"

    def test_served_update_and_predict_leave_the_same_shape(self):
        """An update leaves what a predict leaves: one root ``request``
        record, no span, the same keys; only ``op`` tells them apart."""
        shapes = []
        for op in ("update", "predict"):
            tracer, pipeline = self.build()
            future = pipeline.submit("d", ROW, op=op, direction=False)
            pipeline.run()
            assert future.error is None
            assert tracer.spans() == []
            record, = tracer.events()
            assert record.detail["op"] == op
            shapes.append((record.kind, record.domain, record.shard,
                           record.span_id,
                           {**record.detail, "op": ""}))
        assert shapes[0] == shapes[1]
        assert shapes[0][0] == "request"

    def test_mixed_windowed_batch_is_one_dispatch_over_its_records(self):
        """Predicts, updates and a kernel failure drained together: one
        ``serve.dispatch`` and, under it, one ``request`` record per
        request in FIFO order, each with its own op and outcome."""
        tracer, service = traced_service()
        service.create_domain("d", config=CONFIG)
        pipeline = ServingPipeline(service,
                                   ServingConfig(batch_window_ns=200.0))
        tracer.clear()
        submits = [(ROW, "predict"), (ROW, "update"),
                   (ROW[:-1] + ("x",), "predict"), (ROW, "predict")]
        futures = [pipeline.submit("d", row, op=op, direction=True)
                   for row, op in submits]
        pipeline.run()
        assert forest(tracer) == [("serve.dispatch", [])]
        dispatch, = tracer.spans()
        assert dispatch.detail == {"rows": 4, "trigger": "timeout"}
        records = tracer.events()[1:]
        assert [(r.kind, r.span_id, r.detail["op"], r.detail["outcome"])
                for r in records] == [
            ("request", dispatch.span_id, "predict", "ok"),
            ("request", dispatch.span_id, "update", "ok"),
            ("request", dispatch.span_id, "predict", "error:FeatureError"),
            ("request", dispatch.span_id, "predict", "ok")]
        assert isinstance(futures[2].error, FeatureError)
        assert futures[3].result() == service.handle("d").predict(ROW)

    def test_failed_request_says_so_in_its_record(self):
        """A failure only the kernel can find (the count is right, an
        entry is not an int) is an ``error:`` outcome with the stage
        stamps of the batch that carried it."""
        tracer, pipeline = self.build()
        future = pipeline.submit("d", ROW[:-1] + ("x",))
        pipeline.run()
        assert isinstance(future.error, FeatureError)
        event, = tracer.events()
        assert event.kind == "request"
        assert event.detail["outcome"] == "error:FeatureError"
        assert event.dur_ns == future.latency_ns > 0
        assert event.detail["settled_ns"] == future.completed_ns

    @pytest.mark.parametrize("reason", ["domain", "policy", "quota",
                                        "feature"])
    def test_refused_request_leaves_one_record_saying_why(self, reason):
        """Refused at submit: exactly one ``request`` record of no
        duration, ``refused:<reason>``, no stage stamps and no shard -
        it never had a batch or a queue - and no ``queue.shed`` (it was
        not load-shed)."""
        owner, other = ClientIdentity(1, "owner"), ClientIdentity(2, "x")
        admission = AdmissionController()
        admission.set_quota(other, TenantQuota(predict_budget=0))
        tracer = Tracer()
        service = ShardedService(num_shards=2, tracer=tracer,
                                 admission=admission)
        service.create_domain("d", config=CONFIG)
        service.create_domain("mine", config=CONFIG,
                              policy=private_policy(owner))
        pipeline = ServingPipeline(service, ServingConfig())
        target, row, error = {
            "domain": ("ghost", ROW, DomainError),
            "policy": (service.handle("mine", other), ROW, PolicyError),
            "quota": (service.handle("d", other), ROW,
                      QuotaExceededError),
            "feature": ("d", ROW + (1,), FeatureError),
        }[reason]
        tracer.clear()
        future = pipeline.submit(target, row)
        assert future.done and isinstance(future.error, error)
        pipeline.run()
        event, = tracer.events()
        assert tracer.spans() == []
        assert (event.kind, event.ts_ns, event.dur_ns) == (
            "request", future.submitted_ns, 0.0)
        assert event.detail == {"op": "predict",
                                "outcome": f"refused:{reason}"}
        assert (event.domain, event.shard) == (
            target if isinstance(target, str) else target.domain_name, "")
        snapshot = pipeline.snapshot()
        assert (snapshot["failed"], snapshot["shed"],
                snapshot["in_flight"]) == (1, 0, 0)
        assert not service.has_domain("ghost")

    @settings(max_examples=60, deadline=None)
    @given(window=st.sampled_from([0.0, 200.0]),
           shards=st.integers(1, 3),
           schedule=st.lists(
               st.tuples(st.sampled_from([0.0, 1.0, 30.0, 250.0]),
                         st.integers(0, 3), st.booleans(),
                         st.sampled_from(["", "", "refused", "late"])),
               min_size=1, max_size=40))
    def test_every_settled_request_leaves_one_request_record(
            self, window, shards, schedule):
        """Whatever the window, shard count and arrival schedule: one
        ``request`` record per submitted request, in settle order.  A
        request refused at submit (the five-feature row) says why and
        has no extent; an admitted one has monotone stamps and the
        future's sojourn for extent - a kernel failure (the row with a
        non-int entry) included."""
        tracer = Tracer()
        service = ShardedService(num_shards=shards, tracer=tracer)
        names = [f"d{i}" for i in range(4)]
        for name in names:
            service.create_domain(name, config=CONFIG)
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=window, max_batch=4))
        futures, settled = [], []
        rows = {"": ROW, "refused": ROW + (1,),
                "late": ROW[:-1] + ("x",)}

        def arrivals():
            for delay, domain, is_update, bad in schedule:
                if delay:
                    yield delay
                future = pipeline.submit(
                    names[domain], rows[bad],
                    op="update" if is_update else "predict")
                future.add_done_callback(settled.append)
                futures.append(future)

        spawn(pipeline.engine, arrivals(), name="arrivals")
        pipeline.run()
        assert len(settled) == len(futures) == len(schedule)
        records = [event for event in tracer.events()
                   if event.kind == "request"]
        assert len(records) == len(futures)
        assert not {"queue.enqueue", "batch.dispatch"} & set(kinds(tracer))
        for future, record in zip(settled, records):
            detail = record.detail
            assert record.ts_ns == future.submitted_ns
            assert record.dur_ns == future.latency_ns
            if detail["outcome"] == "refused:feature":
                assert set(detail) == {"op", "outcome"}
                assert record.dur_ns == 0.0
                assert isinstance(future.error, FeatureError)
                continue
            assert detail["settled_ns"] == future.completed_ns
            assert future.submitted_ns <= detail["drained_ns"] \
                <= detail["settled_ns"]
            assert detail["collect_ns"] <= detail["drained_ns"]
            assert detail["outcome"] == (
                "ok" if future.error is None
                else f"error:{type(future.error).__name__}")
            assert 1 <= detail["rows"] <= 4
            assert detail["trigger"] == (
                "scalar" if window == 0.0 else
                "size" if detail["rows"] == 4 else "timeout")
            stages = request_stages(record)
            assert min(stages.values()) >= 0.0
            assert sum(stages.values()) == pytest.approx(record.dur_ns)
        # who failed, and how, is each request's own affair
        for future, (_, _, _, bad) in zip(futures, schedule):
            assert (future.error is None) == (bad == "")
