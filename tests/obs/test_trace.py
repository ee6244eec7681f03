"""Tracer ring-buffer semantics and the null tracer contract."""

import pytest

from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    Tracer,
    validate_spans,
)


class TestTracer:
    def test_records_in_order(self):
        tracer = Tracer()
        tracer.record("predict", domain="d", transport="vdso",
                      ts_ns=1.0, dur_ns=4.19, generation=3)
        tracer.record("cache_hit", domain="d", transport="vdso",
                      ts_ns=2.0)
        kinds = [e.kind for e in tracer.events()]
        assert kinds == ["predict", "cache_hit"]
        first = tracer.events()[0]
        assert first.ts_ns == 1.0
        assert first.dur_ns == 4.19
        assert first.generation == 3

    def test_sequence_timestamp_fallback(self):
        tracer = Tracer()
        tracer.record("fault")
        tracer.record("fault")
        stamps = [e.ts_ns for e in tracer.events()]
        assert stamps == [1.0, 2.0]

    def test_clock_used_when_no_explicit_timestamp(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        now[0] = 42.5
        tracer.record("flush")
        tracer.record("flush", ts_ns=7.0)
        assert [e.ts_ns for e in tracer.events()] == [42.5, 7.0]

    def test_ring_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record("predict", ts_ns=float(i))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.ts_ns for e in tracer.events()] == [2.0, 3.0, 4.0]

    def test_ring_wraps_repeatedly(self):
        tracer = Tracer(capacity=2)
        for i in range(7):
            tracer.record("predict", ts_ns=float(i))
        assert [e.ts_ns for e in tracer.events()] == [5.0, 6.0]
        assert tracer.dropped == 5

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            tracer.record("predict")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert tracer.events() == []

    def test_clear_inside_an_open_span_issues_no_held_id(self):
        tracer = Tracer()
        with tracer.span("a") as outer:
            tracer.clear()
            tracer.record("flush")
            with tracer.span("b") as inner:
                pass
        assert inner != outer
        assert tracer.spans()[0].parent_id == outer
        assert tracer.events()[0].span_id == outer
        roots = validate_spans(s.as_dict() for s in tracer.spans())
        assert [span["name"] for span in roots] == ["a"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_detail_round_trips_through_as_dict(self):
        tracer = Tracer()
        tracer.record("retry", detail={"attempt": 2, "errno": "EAGAIN"})
        d = tracer.events()[0].as_dict()
        assert d["detail"] == {"attempt": 2, "errno": "EAGAIN"}
        tracer.record("flush")
        assert "detail" not in tracer.events()[1].as_dict()


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.record("predict", domain="d", detail={"x": 1})
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events() == []
        NULL_TRACER.clear()
        NULL_TRACER.emit((NULL_TRACER.next_number(), 1.0, "predict"))
        assert len(NULL_TRACER) == 0 and not NULL_TRACER.span_stack

    def test_shares_record_signature_with_tracer(self):
        import inspect

        real = inspect.signature(Tracer.record)
        null = inspect.signature(NullTracer.record)
        assert list(real.parameters) == list(null.parameters)


def test_known_event_kinds_cover_instrumentation():
    # The schema the exporters rely on; duration events must be present.
    for kind in ("predict", "update", "reset", "flush",
                 "fault", "fault_injected", "retry",
                 "fallback", "breaker_open", "breaker_close",
                 "checkpoint_save", "checkpoint_restore"):
        assert kind in EVENT_KINDS
    # a score-cache probe's outcome is its predict event's detail.cache
    assert not {"cache_hit", "cache_miss"} & EVENT_KINDS
