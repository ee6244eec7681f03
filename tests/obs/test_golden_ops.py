"""Golden operation traces: what one call *does*, not what it returns.

Each test drives one public operation on a traced stack and asserts the
exact records it leaves - the span tree by name and the event kinds in
order - so a change that adds a crossing, drops a stage or re-enters the
kernel on a cache hit fails here even when every score is still right.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import Tracer, span_children, validate_spans

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
    spans = tracer.spans()
    roots = validate_spans(spans)
    children = span_children(spans)

    def node(span):
        kids = sorted(children.get(span.span_id, ()),
                      key=lambda child: child.span_id)
        return span.name, [node(kid) for kid in kids]

    return [node(root) for root in sorted(roots,
                                          key=lambda s: s.span_id)]


def kinds(tracer):
    return [event.kind for event in tracer.events()]


def details(tracer):
    return [event.detail for event in tracer.events()]


class TestSyncClient:
    def test_vdso_score_cache_hit_never_enters_the_kernel(self):
        """The record budget of a sync hit: the crossing's span and the
        one event that says what the probe decided.  A plain client
        opens no span of its own, and a hit never enters the kernel."""
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG)
        client.predict(ROW)   # fill the score cache
        tracer.clear()
        client.predict(ROW)
        assert forest(tracer) == [("vdso.predict", [])]
        assert kinds(tracer) == ["predict"]
        assert details(tracer) == [{"cache": "hit"}]
        assert len(tracer) + len(tracer.spans()) == 2

    def test_vdso_score_cache_miss_is_one_kernel_predict(self):
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG)
        tracer.clear()
        client.predict(ROW)
        assert forest(tracer) == [
            ("vdso.predict", [
                ("kernel.predict", [("kernel.admission", [])])])]
        assert kinds(tracer) == ["predict"]
        assert details(tracer) == [{"cache": "miss"}]

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

    def test_resilient_client_roots_the_call_under_client(self):
        tracer, service = traced_service()
        client = service.connect("d", transport="vdso", config=CONFIG,
                                 fallback=0)
        client.predict(ROW)
        tracer.clear()
        client.predict(ROW)
        assert forest(tracer) == [
            ("client.predict", [("vdso.predict", [])])]
        assert details(tracer) == [{"cache": "hit"}]

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
        event, = tracer.events()
        assert event.kind == "predict_batch"
        assert event.detail == {"rows": 256}
        assert client.latency.syscalls == 1


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

    def test_window_0_predict_is_at_most_four_records(self):
        """The record budget of a served predict.  A drained batch of
        one is the scalar kernel call, so it leaves the scalar call's
        one span, not a batch's four-span stage tree."""
        tracer, pipeline = self.build()
        future = pipeline.submit("d", ROW)
        pipeline.run()
        assert future.done and future.error is None
        assert kinds(tracer) == ["queue.enqueue", "batch.dispatch"]
        assert forest(tracer) == [
            ("serve.dispatch", [("kernel.predict", [])])]
        assert len(tracer) + len(tracer.spans()) <= 4

    def test_windowed_batch_keeps_the_stage_tree(self):
        """Two predictions drained together are a real batch: one
        kernel call, the four-span stage tree."""
        tracer, service = traced_service()
        service.create_domain("d", config=CONFIG)
        pipeline = ServingPipeline(service,
                                   ServingConfig(batch_window_ns=200.0))
        tracer.clear()
        futures = [pipeline.submit("d", ROW), pipeline.submit("d", ROW)]
        pipeline.run()
        assert all(f.done and f.error is None for f in futures)
        assert forest(tracer) == [
            ("serve.dispatch", [
                ("kernel.predict_batch", [
                    ("kernel.route", []),
                    ("kernel.dispatch", [("plan.execute", [])])])])]

    def test_window_0_update_is_three_records(self):
        tracer, pipeline = self.build()
        future = pipeline.submit("d", ROW, op="update", direction=True)
        pipeline.run()
        assert future.done and future.error is None
        assert kinds(tracer) == ["queue.enqueue", "batch.dispatch"]
        assert forest(tracer) == [("serve.dispatch", [])]
        assert len(tracer) + len(tracer.spans()) == 3
