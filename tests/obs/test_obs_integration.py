"""End-to-end observability: traced stack, metrics plumbing, reports."""

import pytest

from repro.core import (
    FaultPlan,
    PredictionService,
    PSSConfig,
    ResilienceConfig,
)
from repro.core.persistence import CheckpointManager
from repro.obs import MetricsRegistry, Tracer
from repro.obs.session import ObsSession

FEATURES = [3, 5]
CONFIG_KW = dict(num_features=2)


def traced_service(**service_kwargs):
    tracer = Tracer()
    metrics = MetricsRegistry()
    service = PredictionService(tracer=tracer, metrics=metrics,
                                **service_kwargs)
    return service, tracer, metrics


def kinds(tracer):
    return [event.kind for event in tracer.events()]


class TestTransportTracing:
    def test_vdso_predict_traces_event_and_cache_activity(self):
        service, tracer, _ = traced_service()
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        client.predict(FEATURES)
        assert [event.detail for event in tracer.events()
                if event.kind == "predict"] == [
            {"cache": "miss"}, {"cache": "hit"}]

    def test_syscall_path_traces_updates_and_resets(self):
        service, tracer, _ = traced_service()
        client = service.connect("d", transport="syscall",
                                 config=PSSConfig(**CONFIG_KW))
        client.update(FEATURES, True)
        client.reset(FEATURES, reset_all=True)
        assert "update" in kinds(tracer)
        assert "reset" in kinds(tracer)

    def test_flush_traces_batched_delivery(self):
        service, tracer, _ = traced_service()
        client = service.connect("d", config=PSSConfig(**CONFIG_KW),
                                 batch_size=4)
        for _ in range(3):
            client.update(FEATURES, True)
        client.flush()
        flushes = [e for e in tracer.events() if e.kind == "flush"]
        assert flushes and flushes[-1].detail["records"] == 3

    def test_timestamps_follow_simulated_time(self):
        service, tracer, _ = traced_service()
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        client.predict([9, 9])
        predicts = [e for e in tracer.events() if e.kind == "predict"]
        assert predicts[0].ts_ns < predicts[1].ts_ns
        assert predicts[0].ts_ns == pytest.approx(
            client.latency.total_ns - predicts[1].dur_ns, rel=1e-6
        ) or predicts[0].ts_ns < client.latency.total_ns

    def test_disabled_tracer_records_nothing(self):
        service = PredictionService()
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        client.update(FEATURES, True)
        client.flush()
        assert len(service.tracer) == 0


class TestMetricsPlumbing:
    def test_latency_histograms_populated_per_transport(self):
        service, _, metrics = traced_service()
        vdso = service.connect("d", config=PSSConfig(**CONFIG_KW))
        syscall = service.connect("d", transport="syscall")
        vdso.predict(FEATURES)
        syscall.predict(FEATURES)
        vh = metrics.merged_histogram("pss_vdso_read_ns", domain="d")
        sh = metrics.merged_histogram("pss_syscall_ns", domain="d")
        assert vh.count == 1
        assert vh.p50 == pytest.approx(4.19)
        assert sh.count == 1
        assert sh.p50 == pytest.approx(68.0)

    def test_cache_counters_mirror_account(self):
        service, _, metrics = traced_service()
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        client.predict(FEATURES)
        hits = metrics.counter("pss_score_cache_hits_total",
                               domain="d", transport="vdso", shard="0")
        assert hits.value == client.latency.cache_hits == 1

    def test_metrics_only_service_works_without_tracer(self):
        metrics = MetricsRegistry()
        service = PredictionService(metrics=metrics)
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        assert metrics.merged_histogram("pss_vdso_read_ns").count == 1


class TestFaultAndResilienceTracing:
    def test_injected_faults_and_retries_traced(self):
        service, tracer, _ = traced_service()
        client = service.connect(
            "d", transport="syscall", config=PSSConfig(**CONFIG_KW),
            resilience=ResilienceConfig(max_attempts=3,
                                        breaker_threshold=1000),
            fallback=1,
            fault_plan=FaultPlan(seed=3, syscall_failure_rate=0.5),
        )
        for _ in range(40):
            client.predict(FEATURES)
        seen = kinds(tracer)
        assert "fault_injected" in seen
        assert "fault" in seen
        assert "retry" in seen

    def test_breaker_transitions_and_fallbacks_traced(self):
        service, tracer, _ = traced_service()
        client = service.connect(
            "d", transport="syscall", config=PSSConfig(**CONFIG_KW),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=2,
                                        breaker_cooldown=3),
            fallback=7,
            fault_plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
        )
        for _ in range(8):
            client.predict(FEATURES)
        seen = kinds(tracer)
        assert "breaker_open" in seen
        assert "fallback" in seen
        reasons = {e.detail["reason"] for e in tracer.events()
                   if e.kind == "fallback"}
        assert "breaker_open" in reasons

    def test_tracing_does_not_perturb_fault_sequence(self):
        def run(tracer_on: bool):
            if tracer_on:
                service, _, _ = traced_service()
            else:
                service = PredictionService()
            client = service.connect(
                "d", transport="syscall", config=PSSConfig(**CONFIG_KW),
                resilience=ResilienceConfig(max_attempts=2,
                                            breaker_threshold=4,
                                            breaker_cooldown=2),
                fallback=1,
                fault_plan=FaultPlan(seed=11, syscall_failure_rate=0.3),
            )
            return [client.predict(FEATURES) for _ in range(60)], \
                client.stats.fallback_predictions

        assert run(True) == run(False)


class TestCheckpointTracing:
    def test_save_and_restore_traced(self, tmp_path):
        service, tracer, _ = traced_service()
        service.create_domain("d", config=PSSConfig(**CONFIG_KW))
        manager = CheckpointManager(service, tmp_path / "ckpt.json",
                                    interval=1)
        manager.checkpoint()
        assert manager.recover()
        saves = [e for e in tracer.events()
                 if e.kind == "checkpoint_save"]
        restores = [e for e in tracer.events()
                    if e.kind == "checkpoint_restore"]
        assert saves and saves[0].detail["corrupted"] is False
        assert restores and restores[0].detail["ok"] is True

    def test_failed_restore_traced(self, tmp_path):
        service, tracer, _ = traced_service()
        path = tmp_path / "ckpt.json"
        path.write_text("{ not json")
        manager = CheckpointManager(service, path)
        assert not manager.recover()
        restores = [e for e in tracer.events()
                    if e.kind == "checkpoint_restore"]
        assert restores and restores[0].detail["ok"] is False


class TestReports:
    def test_reports_carry_percentiles_and_resilience(self):
        service, _, _ = traced_service()
        plain = service.connect("d", config=PSSConfig(**CONFIG_KW))
        plain.predict(FEATURES)
        degradable = service.connect(
            "d", resilience=ResilienceConfig(), fallback=1
        )
        degradable.predict(FEATURES)
        (report,) = service.reports()
        assert "vdso_read_ns" in report.latency_percentiles
        snap = report.latency_percentiles["vdso_read_ns"]
        assert snap["p50"] == pytest.approx(4.19)
        assert report.resilience is not None
        assert report.resilience.predictions == 1

    def test_resilience_stats_shared_across_clients(self):
        service, _, _ = traced_service()
        a = service.connect("d", config=PSSConfig(**CONFIG_KW),
                            resilience=ResilienceConfig(), fallback=1)
        b = service.connect("d", resilience=ResilienceConfig(),
                            fallback=1)
        a.predict(FEATURES)
        b.predict(FEATURES)
        (report,) = service.reports()
        assert report.resilience.predictions == 2

    def test_uninstrumented_reports_stay_bare(self):
        service = PredictionService()
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        (report,) = service.reports()
        assert report.latency_percentiles == {}
        assert report.resilience is None


def session_for(argv):
    """The session the experiment runner opens for ``argv``."""
    from repro.bench.experiments.latency import LATENCY
    from repro.bench.runner import parse

    args = parse(LATENCY, argv)
    return ObsSession.open(args.trace, args.metrics, args.slo,
                           args.flight_recorder)


class TestCliGlue:
    def test_trace_and_metrics_flags_open_instruments(self):
        session = session_for(["--quick", "--trace", "out.json",
                               "--metrics"])
        assert session.active
        assert session.tracer.enabled
        assert session.metrics is not None
        assert session.trace_path == "out.json"

    def test_inactive_without_flags(self):
        session = session_for(["--quick"])
        assert not session.active
        assert not session.tracer.enabled
        assert session.metrics is None

    def test_trace_requires_path(self):
        with pytest.raises(SystemExit):
            session_for(["--trace"])

    def test_finish_writes_artifacts(self, tmp_path):
        path = tmp_path / "trace.json"
        session = session_for(["--trace", str(path), "--metrics"])
        service = PredictionService(tracer=session.tracer,
                                    metrics=session.metrics)
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        summary = session.finish()
        assert path.exists()
        assert (tmp_path / "trace.jsonl").exists()
        assert "Prometheus" in summary
        import json

        from repro.obs import validate_chrome_trace

        validate_chrome_trace(json.loads(path.read_text()))

    def test_finish_writes_spans_jsonl(self, tmp_path):
        import json

        from repro.obs import Span

        path = tmp_path / "trace.json"
        session = session_for(["--trace", str(path)])
        service = PredictionService(tracer=session.tracer)
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        summary = session.finish()
        spans_path = tmp_path / "trace.json.spans.jsonl"
        assert spans_path.exists()
        assert "spans ->" in summary
        parsed = [Span.from_dict(json.loads(line))
                  for line in spans_path.read_text().splitlines()]
        assert any(span.name == "vdso.predict" for span in parsed)

    def test_slo_flag_enables_tracing_and_health_table(self):
        session = session_for(["--slo"])
        assert session.slo
        assert session.tracer.enabled  # implied, even without --trace
        service = PredictionService(tracer=session.tracer)
        client = service.connect("d", config=PSSConfig(**CONFIG_KW))
        client.predict(FEATURES)
        summary = session.finish()
        assert "SLO health" in summary
        assert "predict-latency" in summary
        assert "verdict" in summary

    def test_flight_recorder_flag_builds_recorder(self, tmp_path):
        from repro.obs import FlightRecorder, load_bundle

        session = session_for(["--flight-recorder",
                               str(tmp_path / "fr"), "--metrics"])
        assert isinstance(session.tracer, FlightRecorder)
        session.tracer.record("shard_crash", shard="1")
        summary = session.finish()
        assert len(session.tracer.bundles) == 1
        assert "post-mortem bundle" in summary
        payload = load_bundle(session.tracer.bundles[0])
        # --metrics attaches the registry to every bundle snapshot
        assert payload["metrics"] is not None

    def test_flight_recorder_requires_directory(self):
        with pytest.raises(SystemExit):
            session_for(["--flight-recorder"])
