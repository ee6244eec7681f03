"""Flight recorder: trigger dumps, CRC integrity, caps, postmortem CLI."""

import json

import pytest

from repro.core.config import PSSConfig
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import MetricsRegistry, Tracer
from repro.obs.exporters import write_jsonl
from repro.obs.flightrec import (
    BUNDLE_SCHEMA,
    TRIGGER_KINDS,
    FlightRecorder,
    load_bundle,
)
from repro.obs.postmortem import main as postmortem_main
from repro.obs.postmortem import render_bundle


def recorder(tmp_path, **kwargs):
    return FlightRecorder(tmp_path / "bundles", **kwargs)


class TestTriggers:
    def test_trigger_kinds_cover_the_crash_taxonomy(self):
        assert TRIGGER_KINDS == {"shard_crash", "breaker_open",
                                 "checkpoint.corrupt", "slo.page"}

    def test_trigger_event_dumps_a_bundle(self, tmp_path):
        rec = recorder(tmp_path)
        with rec.span("client.predict", domain="d"):
            rec.record("predict", domain="d")
        rec.record("shard_crash", shard="1", detail={"shard": 1})
        assert len(rec.bundles) == 1
        payload = load_bundle(rec.bundles[0])
        assert payload["trigger"] == "shard_crash"
        assert payload["schema"] == BUNDLE_SCHEMA
        kinds = [e["kind"] for e in payload["events"]]
        assert kinds == ["predict", "shard_crash"]
        assert [s["name"] for s in payload["spans"]] == \
            ["client.predict"]

    def test_open_spans_captured_as_crash_context(self, tmp_path):
        rec = recorder(tmp_path)
        with rec.span("client.predict_batch", domain="d"):
            with rec.span("kernel.failover", shard="1"):
                rec.record("shard_crash", shard="1")
        payload = load_bundle(rec.bundles[0])
        assert [s["name"] for s in payload["open_spans"]] == \
            ["client.predict_batch", "kernel.failover"]

    def test_a_hot_site_emit_still_triggers(self, tmp_path):
        rec = recorder(tmp_path, triggers=frozenset({"update"}))
        client = ShardedService(tracer=rec).connect(
            "d", transport="vdso", config=PSSConfig(num_features=2))
        client.predict((1, 2))
        assert rec.bundles == []
        client.update((1, 2), True)    # buffered: its event is emitted
        assert client.pending_updates == 1
        assert len(rec.bundles) == 1
        payload = load_bundle(rec.bundles[0])
        assert payload["trigger"] == "update"
        assert payload["events"][-1]["detail"] == {
            "direction": True, "buffered": True}

    def test_non_trigger_events_do_not_dump(self, tmp_path):
        rec = recorder(tmp_path)
        rec.record("predict")
        rec.record("cache_miss")
        assert rec.bundles == []

    def test_max_bundles_cap_suppresses_storms(self, tmp_path):
        rec = recorder(tmp_path, max_bundles=2)
        for _ in range(5):
            rec.record("shard_crash")
        assert len(rec.bundles) == 2
        assert rec.suppressed_dumps == 3

    def test_manual_dump_and_metrics_snapshot(self, tmp_path):
        rec = recorder(tmp_path)
        metrics = MetricsRegistry()
        metrics.counter("pss_shard_crashes_total").inc(3)
        rec.attach_metrics(metrics)
        path = rec.dump()
        payload = load_bundle(path)
        assert payload["trigger"] == "manual"
        assert payload["metrics"]["counters"][0]["value"] == 3

    def test_bundle_filenames_are_deterministic(self, tmp_path):
        rec = recorder(tmp_path)
        rec.record("shard_crash")
        rec.record("slo.page")
        names = [p.name for p in rec.bundles]
        assert names == ["postmortem-001-shard-crash.json",
                         "postmortem-002-slo-page.json"]


class TestBundleIntegrity:
    def test_corrupted_bundle_rejected(self, tmp_path):
        rec = recorder(tmp_path)
        rec.record("shard_crash", detail={"shard": 1})
        path = rec.bundles[0]
        wrapper = json.loads(path.read_text())
        wrapper["bundle"]["trigger"] = "tampered"
        path.write_text(json.dumps(wrapper))
        with pytest.raises(ValueError, match="CRC mismatch"):
            load_bundle(path)

    def test_non_json_and_bad_envelope_rejected(self, tmp_path):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{ not json")
        with pytest.raises(ValueError, match="not a JSON bundle"):
            load_bundle(garbled)
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps({"events": []}))
        with pytest.raises(ValueError, match="envelope"):
            load_bundle(envelope)

    def test_future_schema_rejected(self, tmp_path):
        rec = recorder(tmp_path)
        rec.record("shard_crash")
        path = rec.bundles[0]
        wrapper = json.loads(path.read_text())
        wrapper["bundle"]["schema"] = BUNDLE_SCHEMA + 1
        import zlib
        canonical = json.dumps(wrapper["bundle"], sort_keys=True,
                               separators=(",", ":"))
        wrapper["crc32"] = zlib.crc32(canonical.encode("utf-8"))
        path.write_text(json.dumps(wrapper))
        with pytest.raises(ValueError, match="schema"):
            load_bundle(path)


class TestPostmortemCLI:
    def test_renders_tree_and_critical_paths(self, tmp_path, capsys):
        rec = recorder(tmp_path)
        now = [0.0]
        with rec.span("client.predict", domain="d",
                      clock=lambda: now[0]):
            now[0] = 4.19
            with rec.span("kernel.predict", domain="d", shard="1"):
                pass
        rec.record("shard_crash", shard="1")
        status = postmortem_main([str(rec.bundles[0])])
        assert status == 0
        out = capsys.readouterr().out
        assert "trigger: shard_crash" in out
        assert "client.predict" in out
        assert "  kernel.predict" in out  # indented under its parent
        assert "slowest critical paths" in out
        assert "client.predict -> kernel.predict" in out

    def test_usage_and_load_errors_exit_2(self, tmp_path, capsys):
        assert postmortem_main([]) == 2
        assert postmortem_main(["--help"]) == 2
        assert postmortem_main([str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    #: three settled requests as a serve run's JSONL trace holds them:
    #: one that waited out a busy dispatcher, one that arrived inside
    #: the window, one served alone at window 0
    TRACE = [
        {"ts_ns": 10.0, "kind": "request", "domain": "a",
         "transport": "serving", "dur_ns": 400.0, "generation": 0,
         "shard": "1", "detail": {
             "op": "predict", "outcome": "ok", "rows": 24,
             "trigger": "timeout", "collect_ns": 110.0,
             "drained_ns": 310.0, "settled_ns": 410.0}},
        {"ts_ns": 150.0, "kind": "request", "domain": "b",
         "transport": "serving", "dur_ns": 260.0, "generation": 0,
         "shard": "1", "detail": {
             "op": "update", "outcome": "error:FeatureError", "rows": 24,
             "trigger": "timeout", "collect_ns": 110.0,
             "drained_ns": 310.0, "settled_ns": 410.0}},
        {"ts_ns": 500.0, "kind": "predict", "domain": "a",
         "transport": "vdso", "dur_ns": 4.19, "generation": 0},
        {"ts_ns": 600.0, "kind": "request", "domain": "a",
         "transport": "serving", "dur_ns": 72.19, "generation": 0,
         "detail": {
             "op": "predict", "outcome": "ok", "rows": 1,
             "trigger": "scalar", "collect_ns": 600.0,
             "drained_ns": 600.0, "settled_ns": 672.19}},
    ]

    def write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(event) + "\n"
                                for event in self.TRACE))
        return str(path)

    def test_explains_one_request_from_a_jsonl_trace(self, tmp_path,
                                                     capsys):
        assert postmortem_main(
            [self.write_trace(tmp_path), "--request", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "request 1  predict a (shard 1)  ok  batch of 24, "
            "trigger timeout",
            "  submitted at        10.00 ns",
            "  queue wait         100.00 ns   25.0 %",
            "  batch window       200.00 ns   50.0 %",
            "  crossing           100.00 ns   25.0 %",
            "  total              400.00 ns",
        ]

    def test_explains_the_slowest_requests(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert postmortem_main([path, "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3 served requests; the 2 slowest:")
        assert out.index("request 1  predict a") \
            < out.index("request 2  update b (shard 1)  "
                        "error:FeatureError")
        assert "request 3" not in out
        # arrived inside the window: no queue wait, 160 of window
        assert "  queue wait           0.00 ns    0.0 %" in out
        assert "  batch window       160.00 ns   61.5 %" in out
        assert postmortem_main([path]) == 0   # default: all three here
        assert "request 3  predict a  ok  batch of 1, trigger scalar" \
            in capsys.readouterr().out

    def test_a_refused_request_says_why_in_place_of_a_stage_table(
            self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        refused = {"ts_ns": 40.0, "kind": "request", "domain": "mine",
                   "transport": "serving", "dur_ns": 0.0, "generation": 0,
                   "detail": {"op": "update", "outcome": "refused:policy"}}
        path.write_text("".join(json.dumps(event) + "\n"
                                for event in [refused] + self.TRACE))
        assert postmortem_main([str(path), "--request", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "request 1  update mine  refused:policy",
            "  submitted at        40.00 ns",
            "  refused at submit (policy): never queued, no stages",
        ]
        assert postmortem_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3 served requests (1 more refused at "
                              "submit); the 3 slowest:")
        assert "request 1 " not in out and "request 4  predict a" in out

    def test_a_serve_run_that_sheds_counts_and_explains_its_sheds(
            self, tmp_path, capsys):
        """A request load-shed at submit leaves ``queue.shed`` and no
        ``request`` record; it is a submitted request all the same, so
        it takes its number, the header counts it and ``--request``
        says why it never had stages."""
        tracer = Tracer()
        service = ShardedService(tracer=tracer)
        service.create_domain("d", config=PSSConfig(num_features=2))
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=200.0, queue_limit=2),
            tracer=tracer)
        futures = [pipeline.submit("d", (1, 2)) for _ in range(3)]
        futures.append(pipeline.submit("d", (1, 2, 3)))
        pipeline.run()
        assert [type(f.error).__name__ for f in futures] == [
            "NoneType", "NoneType", "RequestShedError", "FeatureError"]
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.events(), path)
        # in record order: the shed, the refusal, then the two served
        assert postmortem_main([str(path), "--request", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "request 1  predict d (shard 0)  shed:queue_full",
            "  submitted at         0.00 ns",
            "  shed at submit (queue_full, depth 2): never queued, "
            "no stages",
        ]
        assert postmortem_main([str(path), "--request", "4"]) == 0
        assert "batch of 2, trigger timeout" in capsys.readouterr().out
        assert postmortem_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "2 served requests (1 more refused at submit, 1 more shed "
            "at submit); the 2 slowest:")
        assert "request 3  predict d" in out and "request 1 " not in out

    def test_slowest_ends_with_the_share_of_each_stage(self, tmp_path,
                                                       capsys):
        """Over the requests it lists: 400 + 260 ns of sojourn, 100 of
        it queue wait, 200 + 160 batch window, 100 + 100 crossing."""
        path = self.write_trace(tmp_path)
        assert postmortem_main([path, "--slowest", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "their summed sojourn: queue wait 15 % / batch window 55 % "
            "/ crossing 30 %")
        refused = {"ts_ns": 40.0, "kind": "request", "domain": "mine",
                   "transport": "serving", "dur_ns": 0.0, "generation": 0,
                   "detail": {"op": "update", "outcome": "refused:policy"}}
        alone = tmp_path / "refused.jsonl"
        alone.write_text(json.dumps(refused) + "\n")
        assert postmortem_main([str(alone)]) == 0   # nothing to share out
        assert capsys.readouterr().out.splitlines() == [
            "0 served requests (1 more refused at submit); the 0 slowest:"]

    def test_explain_usage_errors_exit_2(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert postmortem_main([path, "--request", "9"]) == 2
        assert "no request 9" in capsys.readouterr().err
        assert postmortem_main([path, "--request"]) == 2
        bundle = tmp_path / "bundle.json"
        assert postmortem_main([str(bundle), "--slowest", "1"]) == 2
        assert capsys.readouterr().err.count("usage:") == 2

    def test_render_bundle_reports_orphans_as_roots(self):
        # a ring-evicted parent must not hide its surviving children
        payload = {
            "schema": BUNDLE_SCHEMA, "trigger": "manual", "seq": 1,
            "events": [], "open_spans": [], "dropped_events": 0,
            "dropped_spans": 1, "metrics": None,
            "spans": [{"span_id": 7, "parent_id": 3, "name": "leaf",
                       "start_ns": 0.0, "end_ns": 1.0,
                       "status": "ok"}],
        }
        text = render_bundle(payload)
        assert "leaf" in text
