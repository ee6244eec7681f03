"""Record-path equivalence: the tracer against a reference model, and
the exports of one fixed scenario against digests pinned before the
record path was rewritten.

Two angles on "the trace content did not change":

* a hypothesis test drives :class:`~repro.obs.Tracer` (and a
  :class:`~repro.obs.flightrec.FlightRecorder`) and a small list-based reference
  model through the same random programs of records, nested spans,
  raises and clocks, and compares everything a consumer can read;
* a pinned-digest test runs one seeded scenario through the real stack
  (sync vDSO client, syscall batch, a 200-request window-200 serve run)
  and compares the CRC-32 of each export format with constants taken
  from the commit before the rewrite.
"""

import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.serving import (
    ServingConfig,
    ServingPipeline,
    serving_slos,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.flightrec import FlightRecorder
from repro.obs.session import ObsSession
from repro.sim.process import spawn


# -- (a) the tracer against a list-based reference model --------------------


class Boom(Exception):
    """Raised inside a span by the generated programs."""


class ModelTracer:
    """What a tracer is specified to hold, written the slow way.

    One unbounded list of records, events and ended spans alike,
    trimmed to ``capacity`` on read, an explicit span stack and an
    explicit stack of inherited clocks.
    """

    def __init__(self, capacity, clock=None):
        self.capacity = capacity
        self.clock = clock
        self.seq = 0
        self.next_id = 1
        self.records = []
        self.stack = []
        self.clocks = []

    def stamp(self, clock):
        self.seq += 1
        clock = clock or self.clock
        return clock() if clock is not None else float(self.seq)

    def record(self, kind, **fields):
        ts_ns = fields.pop("ts_ns", None)
        if ts_ns is None:
            ts_ns = self.stamp(None)
        else:
            self.seq += 1
        event = {"ts_ns": ts_ns, "kind": kind, "dur_ns": 0.0,
                 "generation": 0, "domain": "", "transport": ""}
        event.update({k: v for k, v in fields.items() if v})
        if self.stack:
            event["span_id"] = self.stack[-1]["span_id"]
        self.records.append(event)

    def enter(self, name, clock, detail):
        if clock is None and self.clocks:
            clock = self.clocks[-1]
        span = {"span_id": self.next_id,
                "parent_id": (self.stack[-1]["span_id"]
                              if self.stack else 0),
                "name": name, "start_ns": self.stamp(clock),
                "end_ns": 0.0, "status": "open"}
        if detail:
            span["detail"] = dict(detail)
        self.next_id += 1
        self.stack.append(span)
        if clock is not None:
            self.clocks.append(clock)
        return span, clock

    def exit(self, span, clock, error):
        if clock is not None:
            self.clocks.pop()
        span["end_ns"] = max(self.stamp(clock), span["start_ns"])
        span["status"] = ("ok" if error is None
                          else f"error:{type(error).__name__}")
        assert self.stack.pop() is span
        self.records.append(span)

    def _held(self, spans):
        return [record for record in self.records[-self.capacity:]
                if ("status" in record) == spans]

    def events(self):
        return self._held(spans=False)

    def spans(self):
        return self._held(spans=True)

    def _issued(self, spans):
        return sum(("status" in record) == spans for record in self.records)

    @property
    def dropped(self):
        return self._issued(spans=False) - len(self.events())

    @property
    def span_dropped(self):
        return self._issued(spans=True) - len(self.spans())


#: a program is a tree: ("record", kind, ts or None) leaves and
#: ("span", name, clocked, detail, raises, children) nodes
_leaf = st.tuples(st.just("record"),
                  st.sampled_from(["predict", "update", "flush"]),
                  st.one_of(st.none(), st.floats(0.0, 1e6)))


def _node(children):
    return st.tuples(
        st.just("span"), st.sampled_from(["a", "b", "c"]),
        st.booleans(),
        st.one_of(st.none(), st.just({"rows": 3})),
        st.booleans(), st.lists(children, max_size=4))


programs = st.lists(st.recursive(_leaf, _node, max_leaves=12),
                    max_size=8)


class Ticker:
    """A simulated clock that advances every time it is read, so
    inherited and own timestamps are all distinct."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        self.now += 2.5
        return self.now


def run_real(tracer, program, clock):
    for step in program:
        if step[0] == "record":
            _, kind, ts_ns = step
            tracer.record(kind, domain="d", ts_ns=ts_ns)
            continue
        _, name, clocked, detail, raises, children = step
        try:
            with tracer.span(name, domain="d",
                             detail=dict(detail) if detail else None,
                             clock=clock if clocked else None):
                run_real(tracer, children, clock)
                if raises:
                    raise Boom(name)
        except Boom:
            pass


def run_model(model, program, clock):
    for step in program:
        if step[0] == "record":
            _, kind, ts_ns = step
            model.record(kind, domain="d", ts_ns=ts_ns)
            continue
        _, name, clocked, detail, raises, children = step
        span, inherited = model.enter(
            name, clock if clocked else None, detail)
        span["domain"] = "d"
        run_model(model, children, clock)
        model.exit(span, inherited, Boom(name) if raises else None)


def readable(tracer):
    return {
        "events": [event.as_dict() for event in tracer.events()],
        "spans": [span.as_dict() for span in tracer.spans()],
        "open": [span.as_dict() for span in tracer.open_spans()],
        "dropped": tracer.dropped,
        "span_dropped": tracer.span_dropped,
        "len": len(tracer),
    }


class TestAgainstReferenceModel:
    @given(program=programs, capacity=st.integers(1, 8),
           session_clock=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tracer_matches_model(self, program, capacity,
                                  session_clock):
        tracer = Tracer(capacity=capacity,
                        clock=Ticker(5.0) if session_clock else None)
        run_real(tracer, program, Ticker())
        model = ModelTracer(capacity,
                            clock=Ticker(5.0) if session_clock else None)
        run_model(model, program, Ticker())
        seen = readable(tracer)
        assert seen["events"] == model.events()
        assert seen["spans"] == model.spans()
        assert seen["open"] == []
        assert seen["dropped"] == model.dropped
        assert seen["span_dropped"] == model.span_dropped
        assert seen["len"] == len(model.events())

    @given(program=programs, capacity=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_flight_recorder_holds_what_a_tracer_holds(
            self, tmp_path_factory, program, capacity):
        tracer = Tracer(capacity=capacity)
        run_real(tracer, program, Ticker())
        recorder = FlightRecorder(
            tmp_path_factory.mktemp("bundles"), capacity=capacity)
        run_real(recorder, program, Ticker())
        assert readable(recorder) == readable(tracer)
        assert recorder.bundles == []   # no trigger kind was recorded

    def test_open_spans_are_visible_mid_request(self):
        tracer = Tracer()
        model = ModelTracer(tracer.capacity)
        clock = Ticker()
        with tracer.span("outer", clock=clock):
            with tracer.span("inner") as inner:
                now_open = [s.as_dict() for s in tracer.open_spans()]
                assert tracer.span_stack[-1].span_id == inner
        model_clock = Ticker()
        outer_m, c1 = model.enter("outer", model_clock, None)
        inner_m, c2 = model.enter("inner", None, None)
        assert now_open == [dict(outer_m), dict(inner_m)]
        model.exit(inner_m, c2, None)
        model.exit(outer_m, c1, None)
        assert [s.as_dict() for s in tracer.spans()] == model.spans()


# -- (b) pinned export digests of one fixed scenario ------------------------

#: CRC-32 of the three export files of :func:`pinned_scenario`.  A
#: change that moves them is re-pinned only against a structural diff
#: with the parent commit's exports: every record that changed is
#: named in CHANGES.md with why, and every other record is field for
#: field the parent's once ids are renumbered (the ``ts_ns`` of the
#: four clockless ``plan.*`` events is the tracer's record count).
PINNED = {
    "events.jsonl": 2280142613,
    "spans.jsonl": 622950946,
    "chrome.json": 646282608,
}

CONFIG = PSSConfig(num_features=4)


def _row(rng):
    return tuple(rng.randrange(1 << 16) for _ in range(4))


def pinned_scenario(tracer):
    """Sync vDSO traffic, one syscall batch, then a 200-request serve
    run at window 200 - all seeded, all on ``tracer``."""
    rng = random.Random(2023)
    service = ShardedService(num_shards=2, tracer=tracer,
                             metrics=MetricsRegistry(),
                             admission=AdmissionController())
    rows = [_row(rng) for _ in range(16)]
    hot = service.connect("hot", transport="vdso", batch_size=8,
                          config=CONFIG)
    for _ in range(300):
        row = rng.choice(rows)
        if rng.random() < 0.3:
            hot.update(row, rng.random() < 0.7)
        else:
            hot.predict(row)
    hot.flush()
    cold = service.connect("cold", transport="syscall", config=CONFIG)
    cold.predict_batch([_row(rng) for _ in range(64)])
    cold.update(rows[0], True)
    cold.reset(rows[0], False)

    served = ShardedService(num_shards=2, tracer=tracer,
                            admission=AdmissionController())
    names = ["a", "b", "c"]
    for name in names:
        served.create_domain(name, config=CONFIG)
    pipeline = ServingPipeline(
        served,
        ServingConfig(batch_window_ns=200.0, max_batch=32,
                      queue_limit=24, shed_on_page=True,
                      slo_threshold_ns=400.0),
        tracer=tracer, slos=serving_slos(400.0))

    def arrivals():
        for _ in range(200):
            yield float(rng.randrange(1, 30))
            name = rng.choice(names)
            if rng.random() < 0.2:
                pipeline.submit(name, rng.choice(rows), op="update",
                                direction=rng.random() < 0.5)
            else:
                pipeline.submit(name, rng.choice(rows))

    spawn(pipeline.engine, arrivals(), name="arrivals")
    pipeline.run()
    return pipeline


def export_digests(tracer, directory):
    trace_path = directory / "trace.json"
    ObsSession(tracer=tracer, metrics=None,
               trace_path=str(trace_path)).finish()
    files = {
        "events.jsonl": directory / "trace.jsonl",
        "spans.jsonl": directory / "trace.json.spans.jsonl",
        "chrome.json": trace_path,
    }
    return {name: zlib.crc32(path.read_bytes())
            for name, path in files.items()}


class TestPinnedExports:
    def test_scenario_covers_the_three_paths(self):
        tracer = Tracer()
        pipeline = pinned_scenario(tracer)
        kinds = {event.kind for event in tracer.events()}
        assert {"predict", "flush",
                "predict_batch", "reset", "request",
                "batch.flush_timeout"} <= kinds
        assert not {"queue.enqueue", "batch.dispatch"} & kinds
        assert {"hit", "miss"} == {
            event.detail["cache"] for event in tracer.events()
            if event.kind == "predict" and event.transport == "vdso"}
        names = {span.kind for span in tracer.spans()}
        assert not any(name.startswith("client.") for name in names)
        # buffering and a scalar read, hit or miss, open no span
        assert not {"vdso.update", "vdso.predict"} & names
        assert {"vdso.flush", "kernel.update_batch",
                "syscall.update", "kernel.update",
                "syscall.predict_batch", "plan.execute",
                "serve.dispatch"} <= names
        # a served request is its record: nothing opens under a drained
        # batch, whose requests' records are its leaves
        dispatches = {span.span_id for span in tracer.spans()
                      if span.kind == "serve.dispatch"}
        assert not any(span.parent_id in dispatches
                       for span in tracer.spans())
        assert "kernel.predict" not in names
        assert any(event.span_id in dispatches
                   for event in tracer.events() if event.kind == "request")
        assert pipeline.snapshot()["completed"] > 150
        assert tracer.dropped == 0 and tracer.span_dropped == 0

    def test_export_digests_match_the_parent_commit(self, tmp_path):
        tracer = Tracer()
        pinned_scenario(tracer)
        assert export_digests(tracer, tmp_path) == PINNED

    def test_flight_recorder_exports_the_same_bytes(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "bundles", max_bundles=0)
        pinned_scenario(recorder)
        assert export_digests(recorder, tmp_path) == PINNED
