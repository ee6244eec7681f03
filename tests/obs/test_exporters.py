"""Exporter round-trips: JSONL, Chrome trace-event JSON, validation."""

import json

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.record("predict", domain="hle", transport="vdso",
                  ts_ns=4.19, dur_ns=4.19, generation=1)
    tracer.record("cache_hit", domain="hle", transport="vdso",
                  ts_ns=8.38)
    tracer.record("predict", domain="hle", transport="syscall",
                  ts_ns=68.0, dur_ns=68.0)
    tracer.record("fault_injected", transport="injector",
                  detail={"mode": "stale_read"})
    return tracer


class TestJsonl:
    def test_one_parseable_object_per_line(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "events.jsonl"
        count = write_jsonl(tracer.events(), path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "predict"
        assert parsed[0]["dur_ns"] == 4.19
        assert parsed[3]["detail"] == {"mode": "stale_read"}


class TestChromeTrace:
    def test_valid_and_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(_sample_tracer(), path)
        assert count == 4
        data = json.loads(path.read_text())
        validate_chrome_trace(data)

    def test_one_track_per_domain_transport_pair(self):
        data = chrome_trace(_sample_tracer().events())
        names = {
            record["args"]["name"]
            for record in data["traceEvents"]
            if record["ph"] == "M" and record["name"] == "thread_name"
        }
        assert names == {"hle/vdso", "hle/syscall", "injector"}
        # Events on the same track share a tid.
        tids = {
            record["name"]: record["tid"]
            for record in data["traceEvents"] if record["ph"] != "M"
        }
        assert tids["cache_hit"] == [
            r["tid"] for r in data["traceEvents"]
            if r["ph"] != "M" and r.get("args", {}).get("generation") == 1
        ][0]

    def test_durations_become_complete_events(self):
        data = chrome_trace(_sample_tracer().events())
        by_name = {}
        for record in data["traceEvents"]:
            if record["ph"] != "M":
                by_name.setdefault(record["name"], record)
        assert by_name["predict"]["ph"] == "X"
        assert by_name["predict"]["dur"] == pytest.approx(4.19 / 1000)
        assert by_name["cache_hit"]["ph"] == "i"
        assert "dur" not in by_name["cache_hit"]

    def test_timestamps_scaled_to_microseconds(self):
        data = chrome_trace(_sample_tracer().events())
        predict = next(r for r in data["traceEvents"]
                       if r["ph"] == "X")
        assert predict["ts"] == pytest.approx(4.19 / 1000)


class TestValidation:
    def test_rejects_non_object_root(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})

    def test_rejects_record_without_ph(self):
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"pid": 1, "tid": 1, "name": "x"}]}
            )

    def test_rejects_complete_event_without_duration(self):
        record = {"ph": "X", "pid": 1, "tid": 1, "name": "p", "ts": 0.0}
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [record]})

    def test_accepts_emitted_traces(self):
        validate_chrome_trace(chrome_trace(_sample_tracer().events()))
        validate_chrome_trace(chrome_trace([]))

    def test_rejects_flow_event_without_id(self):
        record = {"ph": "s", "pid": 1, "tid": 1, "name": "f",
                  "ts": 0.0}
        with pytest.raises(ValueError, match="flow"):
            validate_chrome_trace({"traceEvents": [record]})


def _spanned_tracer() -> Tracer:
    """A client span fanning into two kernel-shard spans."""
    tracer = Tracer()
    with tracer.span("client.predict_batch", domain="d",
                     transport="client"):
        with tracer.span("kernel.predict_batch", domain="d",
                         transport="kernel", shard="0"):
            pass
        with tracer.span("kernel.predict_batch", domain="d",
                         transport="kernel", shard="1",
                         detail={"rows": 2}):
            pass
    return tracer


class TestChromeTraceSpans:
    def test_spans_become_nested_complete_events(self):
        tracer = _spanned_tracer()
        data = chrome_trace(tracer.events(), tracer.spans())
        validate_chrome_trace(data)
        span_records = [r for r in data["traceEvents"]
                        if r.get("cat") == "pss.span"]
        assert len(span_records) == 3
        assert all(r["ph"] == "X" for r in span_records)
        by_id = {r["args"]["span_id"]: r for r in span_records}
        root = next(r for r in span_records
                    if r["args"]["parent_id"] == 0)
        assert root["name"] == "client.predict_batch"
        assert all(r["args"]["status"] == "ok" for r in span_records)
        kids = [r for r in span_records
                if r["args"]["parent_id"] == root["args"]["span_id"]]
        assert len(kids) == 2
        assert any(r["args"].get("rows") == 2 for r in kids)
        assert by_id  # tracked by span id

    def test_cross_track_children_get_flow_arrows(self):
        tracer = _spanned_tracer()
        data = chrome_trace(tracer.events(), tracer.spans())
        starts = [r for r in data["traceEvents"] if r["ph"] == "s"]
        ends = [r for r in data["traceEvents"] if r["ph"] == "f"]
        # both kernel children live on other tracks than the
        # client span: one s/f pair each, bound by the child's span id
        assert len(starts) == len(ends) == 2
        assert {r["id"] for r in starts} == {r["id"] for r in ends}
        assert all(r["bp"] == "e" for r in ends)
        client_tid = next(
            r["tid"] for r in data["traceEvents"]
            if r.get("cat") == "pss.span"
            and r["name"] == "client.predict_batch")
        assert all(r["tid"] == client_tid for r in starts)
        assert all(r["tid"] != client_tid for r in ends)

    def test_same_track_children_draw_no_flows(self):
        tracer = Tracer()
        with tracer.span("outer", domain="d", transport="kernel"):
            with tracer.span("inner", domain="d", transport="kernel"):
                pass
        data = chrome_trace(tracer.events(), tracer.spans())
        assert not [r for r in data["traceEvents"]
                    if r["ph"] in ("s", "f")]

    def test_write_chrome_trace_includes_spans(self, tmp_path):
        tracer = _spanned_tracer()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(tracer, path)
        assert count == 3  # no events, three spans
        validate_chrome_trace(json.loads(path.read_text()))


class TestPrometheusHygiene:
    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("pss_hits_total",
                    domain='weird"name\\with\nnewline').inc(1)
        text = prometheus_text(reg)
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("pss_hits_total{"))
        assert '\\"' in line           # escaped quote
        assert "\\\\" in line          # escaped backslash
        assert "\\n" in line           # escaped newline
        assert "\n" not in line        # the raw newline never survives

    def test_family_headers_emitted_once_across_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("pss_hits_total", domain="a").inc(1)
        reg.counter("pss_other_total").inc(1)
        reg.counter("pss_hits_total", domain="b").inc(2)
        reg.histogram("pss_lat_ns", transport="vdso").observe(4.0)
        reg.histogram("pss_lat_ns", transport="syscall").observe(68.0)
        text = prometheus_text(reg)
        assert text.count("# TYPE pss_hits_total counter") == 1
        assert text.count("# HELP pss_hits_total") == 1
        assert text.count("# TYPE pss_lat_ns histogram") == 1
        assert text.count("# HELP pss_lat_ns") == 1
        # family series are contiguous: both hits series directly
        # follow their headers, never interleaved with other families
        lines = text.splitlines()
        start = lines.index("# TYPE pss_hits_total counter")
        assert lines[start + 1].startswith("pss_hits_total{")
        assert lines[start + 2].startswith("pss_hits_total{")

    def test_help_precedes_type_for_each_family(self):
        reg = MetricsRegistry()
        reg.gauge("pss_depth").set(2.0)
        lines = prometheus_text(reg).splitlines()
        assert lines[0].startswith("# HELP pss_depth ")
        assert lines[1] == "# TYPE pss_depth gauge"
        assert lines[2] == "pss_depth 2.0"
