"""Span API semantics: causality, clocks, the one ring, and null no-ops."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.obs import (
    NULL_TRACER,
    Tracer,
    span_children,
    validate_spans,
)

FEATURES = [3, 5]
CONFIG_KW = dict(num_features=2)


class TestSpanTree:
    def test_nested_spans_record_parent_child(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        spans = tracer.spans()
        assert [s.kind for s in spans] == [
            "grandchild", "child", "sibling", "root"]
        assert [s.parent_id for s in spans] == [child, root, root, 0]
        exported = [s.as_dict() for s in spans]
        roots = validate_spans(exported)
        assert [r["span_id"] for r in roots] == [root]
        children = span_children(exported)
        assert {s["name"] for s in children[root]} == {"child", "sibling"}

    def test_events_attach_to_enclosing_span(self):
        tracer = Tracer()
        tracer.record("predict")  # outside any span
        with tracer.span("root") as root:
            tracer.record("cache_miss")
            with tracer.span("child") as child:
                tracer.record("cache_hit")
        outside, in_root, in_child = tracer.events()
        assert outside.span_id == 0
        assert in_root.span_id == root
        assert in_child.span_id == child
        # span-free events serialize without the field at all, so a
        # span-free trace is byte-identical to pre-span releases
        assert "span_id" not in outside.as_dict()
        assert in_root.as_dict()["span_id"] == root

    def test_exception_marks_span_status_and_still_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("child"):
                    raise RuntimeError("boom")
        child, root = tracer.spans()
        assert child.status == "error:RuntimeError"
        assert root.status == "error:RuntimeError"
        assert tracer.open_spans() == []
        assert tracer.span_stack == []

    def test_span_ring_is_bounded(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        spans = tracer.spans()
        assert len(spans) == 4
        assert [s.kind for s in spans] == ["s6", "s7", "s8", "s9"]
        assert tracer.span_dropped == 6
        # one ring: instants and spans share it, the oldest goes first
        tracer.record("predict")
        tracer.record("flush")
        assert [s.kind for s in tracer.spans()] == ["s8", "s9"]
        assert [e.kind for e in tracer.events()] == ["predict", "flush"]
        assert (tracer.span_dropped, tracer.dropped) == (8, 0)
        tracer.record("reset")
        assert (len(tracer.spans()), len(tracer), tracer.dropped) == (
            1, 3, 0)

    def test_clear_resets_span_state(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.span_dropped == 0
        with tracer.span("b") as b:
            assert b == 1  # ids restart after clear


class TestClocks:
    def test_explicit_clock_drives_timestamps(self):
        tracer = Tracer()
        now = [100.0]
        with tracer.span("op", clock=lambda: now[0]):
            now[0] = 160.0
        span, = tracer.spans()
        assert span.start_ns == 100.0
        assert span.ts_ns == 160.0   # a span's record ends at its end
        assert span.dur_ns == 60.0

    def test_nested_span_inherits_enclosing_clock(self):
        tracer = Tracer()
        now = [10.0]
        with tracer.span("outer", clock=lambda: now[0]):
            now[0] = 30.0
            # no own clock: the kernel span rides the transport's
            # simulated timeline instead of the tracer's sequence
            with tracer.span("inner"):
                now[0] = 45.0
        inner, outer = tracer.spans()
        assert inner.start_ns == 30.0
        assert inner.ts_ns == 45.0
        assert outer.dur_ns == 45.0 - 10.0

    def test_clock_stack_pops_on_exit(self):
        tracer = Tracer()
        with tracer.span("timed", clock=lambda: 5.0):
            pass
        with tracer.span("counted"):
            pass
        timed, counted = tracer.spans()
        assert timed.start_ns == 5.0
        # after the clocked span exits, the sequence clock is back
        assert counted.start_ns != 5.0 or counted.ts_ns != 5.0


class TestNullTracer:
    def test_null_span_is_free_and_inert(self):
        handle = NULL_TRACER.span("anything", domain="d")
        with handle as span_id:
            assert span_id == 0
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.open_spans() == []
        assert not NULL_TRACER.span_stack
        assert NULL_TRACER.span_dropped == 0


class TestValidation:
    def test_validate_rejects_orphans(self):
        orphan = _exported(span_id=2, parent_id=99, name="x")
        with pytest.raises(ValueError, match="orphan"):
            validate_spans([orphan])

    def test_validate_rejects_duplicates_and_open(self):
        a = _exported(span_id=1, parent_id=0, name="a")
        dup = _exported(span_id=1, parent_id=0, name="b")
        with pytest.raises(ValueError, match="distinct"):
            validate_spans([a, dup])
        still_open = _exported(span_id=3, parent_id=0, name="c",
                               status="open")
        with pytest.raises(ValueError, match="never closed"):
            validate_spans([still_open])

    def test_a_span_exports_as_the_span_form(self):
        tracer = Tracer()
        with tracer.span("root", domain="d", transport="vdso",
                         shard="1", detail={"rows": 2},
                         clock=iter([3.0, 7.5]).__next__):
            pass
        span, = tracer.spans()
        assert span.dur_ns == 4.5
        assert span.as_dict() == _exported(
            span_id=1, parent_id=0, name="root", start_ns=3.0, end_ns=7.5,
            domain="d", transport="vdso", shard="1", detail={"rows": 2})
        assert list(span.as_dict()) == [
            "span_id", "parent_id", "name", "start_ns", "end_ns",
            "status", "domain", "transport", "shard", "detail"]


def _exported(span_id, parent_id, name, start_ns=0.0, end_ns=0.0,
              status="ok", **fields):
    """A span as ``spans.jsonl`` and a bundle hold it."""
    return {"span_id": span_id, "parent_id": parent_id, "name": name,
            "start_ns": start_ns, "end_ns": end_ns, "status": status,
            **fields}


class TestTracedUntracedIdentity:
    """Tracing must never perturb results: same scores, same weights."""

    @given(seed=st.integers(0, 7),
           ops=st.lists(st.integers(0, 2), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_vdso_stack_identical_with_and_without_tracing(
            self, seed, ops):
        def run(tracer):
            service = PredictionService(tracer=tracer)
            client = service.connect(
                "d", config=PSSConfig(seed=seed, **CONFIG_KW))
            out = []
            for op in ops:
                if op == 0:
                    out.append(client.predict(FEATURES))
                elif op == 1:
                    client.update(FEATURES, True)
                else:
                    out.append(client.predict([1, 2]))
            out.append(service.domain("d").generation)
            return out

        assert run(NULL_TRACER) == run(Tracer())
