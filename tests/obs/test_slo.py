"""SLO engine: windows, burn rates, verdicts, paging."""

import pytest

from repro.obs import SLO, SLOEngine, SLOVerdict, Tracer, default_slos
from repro.obs.trace import TraceEvent


def event(kind, ts_ns, dur_ns=0.0, domain="d", shard="",
          detail=None):
    return TraceEvent(kind=kind, ts_ns=ts_ns, domain=domain,
                      transport="t", dur_ns=dur_ns, generation=0,
                      detail=detail, shard=shard, span_id=0)


class TestSLODeclaration:
    def test_rejects_bad_kind_objective_and_windows(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLO("x", "availability")
        with pytest.raises(ValueError, match="objective"):
            SLO("x", "latency", objective=1.0)
        with pytest.raises(ValueError, match="windows"):
            SLO("x", "latency", short_window_ns=50.0,
                long_window_ns=10.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine([SLO("same", "error"), SLO("same", "latency")])

    def test_scope_matching(self):
        everything = SLO("a", "error", scope="*")
        tenant = SLO("b", "error", scope="d")
        shard = SLO("c", "error", scope="shard:2")
        e = event("predict", 1.0, domain="d", shard="2")
        assert everything.matches(e)
        assert tenant.matches(e)
        assert shard.matches(e)
        assert not SLO("d", "error", scope="other").matches(e)
        assert not SLO("e", "error", scope="shard:0").matches(e)

    def test_default_slos_cover_three_kinds(self):
        kinds = {slo.kind for slo in default_slos()}
        assert kinds == {"latency", "error", "staleness"}


class TestClassification:
    def test_latency_slo_times_selected_ops(self):
        engine = SLOEngine([SLO("lat", "latency", threshold_ns=100.0)])
        engine.consume([
            event("predict", 1.0, dur_ns=4.19),    # good
            event("predict", 2.0, dur_ns=500.0),   # bad
            event("cache_hit", 3.0, dur_ns=999.0),  # not an op: ignored
        ])
        verdict, = engine.evaluate()
        assert (verdict.good, verdict.bad) == (1, 1)

    def test_error_slo_counts_faults_against_ops(self):
        engine = SLOEngine([SLO("err", "error", objective=0.5)])
        engine.consume([
            event("predict", 1.0),
            event("fault", 2.0),
            event("update", 3.0),
        ])
        verdict, = engine.evaluate()
        assert (verdict.good, verdict.bad) == (2, 1)

    def test_error_slo_counts_a_refused_op_bad(self):
        """A refused vDSO read is its one event, naming the refusal in
        ``detail.outcome``: that op is bad, whatever served it."""
        engine = SLOEngine([SLO("err", "error", objective=0.5)])
        engine.consume([
            event("predict", 1.0, detail={"cache": "hit"}),
            event("predict", 2.0, detail={
                "cache": "miss", "outcome": "error:QuotaExceededError"}),
            event("predict", 3.0, detail={
                "cache": "miss", "outcome": "error:ShardDownError"}),
            event("predict", 4.0, detail={"outcome": "ok"}),
        ])
        verdict, = engine.evaluate()
        assert (verdict.good, verdict.bad) == (2, 2)

    def test_staleness_slo_uses_failover_lag(self):
        engine = SLOEngine([SLO("stale", "staleness", max_lag=2)])
        engine.consume([
            event("failover", 1.0, detail={"lag": 1}),   # within bound
            event("failover", 2.0, detail={"lag": 5}),   # too stale
            event("stale_read", 3.0),                    # always bad
        ])
        verdict, = engine.evaluate()
        assert (verdict.good, verdict.bad) == (1, 2)


class TestBurnAndVerdicts:
    def test_clean_window_is_ok_with_full_budget(self):
        engine = SLOEngine([SLO("lat", "latency", threshold_ns=10.0)])
        for i in range(20):
            engine.observe("lat", float(i), good=True)
        verdict, = engine.evaluate()
        assert verdict.verdict == "ok"
        assert verdict.short_burn == 0.0
        assert verdict.budget_remaining == 1.0

    def test_slow_burn_warns_without_paging(self):
        # 2% bad at a 99% objective: burn 2.0 - over budget pace but
        # not at page speed on both windows.
        slo = SLO("lat", "latency", objective=0.99, threshold_ns=10.0,
                  short_window_ns=10.0, long_window_ns=100.0)
        engine = SLOEngine([slo])
        for i in range(100):
            engine.observe("lat", float(i), good=(i % 50 != 0))
        verdict, = engine.evaluate()
        assert verdict.verdict == "warn"
        assert verdict.long_burn == pytest.approx(2.0)

    def test_fast_burn_on_both_windows_pages_once(self):
        tracer = Tracer()
        slo = SLO("err", "error", objective=0.9,
                  short_window_ns=10.0, long_window_ns=100.0)
        engine = SLOEngine([slo], tracer=tracer)
        for i in range(50):
            engine.observe("err", float(i), good=False)
        first, = engine.evaluate()
        assert first.verdict == "page"
        assert first.budget_remaining == 0.0
        engine.evaluate()  # still paging: same excursion, no new event
        pages = [e for e in tracer.events() if e.kind == "slo.page"]
        assert len(pages) == 1
        assert pages[0].detail["slo"] == "err"
        assert pages[0].detail["short_burn"] >= SLOEngine.PAGE_BURN

    def test_recovery_rearms_the_page(self):
        tracer = Tracer()
        slo = SLO("err", "error", objective=0.9,
                  short_window_ns=10.0, long_window_ns=10.0)
        engine = SLOEngine([slo], tracer=tracer)
        for i in range(10):
            engine.observe("err", float(i), good=False)
        engine.evaluate()  # page #1
        for i in range(10, 40):
            engine.observe("err", float(i), good=True)
        ok, = engine.evaluate()  # bad samples aged out of the window
        assert ok.verdict == "ok"
        for i in range(40, 50):
            engine.observe("err", float(i), good=False)
        engine.evaluate()  # page #2: a new excursion
        pages = [e for e in tracer.events() if e.kind == "slo.page"]
        assert len(pages) == 2

    def test_samples_age_out_of_the_long_window(self):
        slo = SLO("lat", "latency", threshold_ns=10.0,
                  short_window_ns=5.0, long_window_ns=10.0)
        engine = SLOEngine([slo])
        engine.observe("lat", 0.0, good=False)
        engine.observe("lat", 100.0, good=True)
        verdict, = engine.evaluate()
        assert (verdict.good, verdict.bad) == (1, 0)

    def test_verdict_serializes(self):
        verdict = SLOVerdict(slo="a", scope="*", kind="error",
                             verdict="ok", good=1, bad=0,
                             short_burn=0.0, long_burn=0.0,
                             budget_remaining=1.0)
        assert verdict.as_dict()["verdict"] == "ok"
