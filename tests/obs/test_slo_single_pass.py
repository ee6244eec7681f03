"""``SLOEngine.evaluate`` counts both windows in one walk.

``TwoPassEngine`` restores the evaluation it replaced - one
``_window`` scan of the whole deque per window - and hypothesis drives
both engines with the same stream of observations (any timestamp
order, through ``observe`` and through ``consume``) and evaluations.
Verdicts, burns and the ``slo.page`` events must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SLO, SLOEngine, SLOVerdict, Tracer
from repro.obs.trace import TraceEvent


class TwoPassEngine(SLOEngine):
    """The previous ``evaluate``: two full scans per SLO."""

    def _window(self, slo, window_ns):
        cutoff = self._now - window_ns
        good = bad = 0
        for ts_ns, ok in self._samples[slo.name]:
            if ts_ns < cutoff:
                continue
            if ok:
                good += 1
            else:
                bad += 1
        return good, bad

    def evaluate(self):
        verdicts = []
        for slo in self.slos:
            samples = self._samples[slo.name]
            cutoff = self._now - slo.long_window_ns
            while samples and samples[0][0] < cutoff:
                samples.popleft()
            good, bad = self._window(slo, slo.long_window_ns)
            long_burn = self._burn(good, bad, slo.objective)
            short_good, short_bad = self._window(slo, slo.short_window_ns)
            short_burn = self._burn(short_good, short_bad, slo.objective)
            if short_burn >= self.PAGE_BURN and long_burn >= self.PAGE_BURN:
                verdict = "page"
            elif long_burn >= self.WARN_BURN \
                    or short_burn >= self.PAGE_BURN:
                verdict = "warn"
            else:
                verdict = "ok"
            if verdict == "page":
                if slo.name not in self._paging:
                    self._paging.add(slo.name)
                    self.tracer.record(
                        "slo.page", domain=slo.scope, transport="slo",
                        ts_ns=self._now,
                        detail={"slo": slo.name,
                                "short_burn": round(short_burn, 3),
                                "long_burn": round(long_burn, 3)})
            else:
                self._paging.discard(slo.name)
            verdicts.append(SLOVerdict(
                slo=slo.name, scope=slo.scope, kind=slo.kind,
                verdict=verdict, good=good, bad=bad,
                short_burn=short_burn, long_burn=long_burn,
                budget_remaining=max(0.0, 1.0 - long_burn)))
        return verdicts


def slos():
    return (
        SLO("lat", "latency", objective=0.9, threshold_ns=50.0,
            short_window_ns=20.0, long_window_ns=100.0),
        SLO("lat-tight", "latency", objective=0.5, threshold_ns=10.0,
            short_window_ns=100.0, long_window_ns=100.0),
        SLO("errors", "error", objective=0.75,
            short_window_ns=5.0, long_window_ns=40.0),
    )


def event(kind, ts_ns, dur_ns):
    return TraceEvent(kind=kind, ts_ns=ts_ns, domain="d", transport="t",
                      dur_ns=dur_ns, generation=0, detail=None,
                      shard="", span_id=0)


#: timestamps on a coarse grid and in no particular order, so samples
#: land exactly on both cutoffs and stale ones arrive mid-deque
stamps = st.integers(0, 300).map(float)
actions = st.one_of(
    st.tuples(st.just("observe"),
              st.sampled_from(["lat", "lat-tight", "errors"]),
              stamps, st.booleans()),
    st.tuples(st.just("consume"), st.lists(
        st.tuples(st.sampled_from(["predict", "fault", "update"]),
                  stamps, st.sampled_from([5.0, 30.0, 80.0])),
        max_size=6)),
    st.tuples(st.just("evaluate")),
)


class TestSinglePassEqualsTwoPass:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(actions, max_size=40))
    def test_verdicts_burns_and_pages_identical(self, stream):
        new_tracer, old_tracer = Tracer(), Tracer()
        new = SLOEngine(slos(), tracer=new_tracer)
        old = TwoPassEngine(slos(), tracer=old_tracer)
        for action in [*stream, ("evaluate",)]:
            for engine in (new, old):
                if action[0] == "observe":
                    engine.observe(*action[1:])
                elif action[0] == "consume":
                    engine.consume(event(*fields)
                                   for fields in action[1])
                else:
                    engine.evaluate()
            if action[0] == "evaluate":
                # evaluate() is idempotent between observations, so
                # calling it again to read the rows changes nothing
                assert [v.as_dict() for v in new.evaluate()] \
                    == [v.as_dict() for v in old.evaluate()]
                assert new._samples == old._samples
                assert new._paging == old._paging
        assert [e.as_dict() for e in new_tracer.events()] \
            == [e.as_dict() for e in old_tracer.events()]
