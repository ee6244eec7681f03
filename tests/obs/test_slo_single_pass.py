"""``SLOEngine.evaluate`` counts both windows with bisections.

``TwoPassEngine`` is the frozen reference: its own deque of
``(ts, good)`` samples, aged from the head, and one scan of the whole
deque per window, counting no sample stamped after the evaluation.
Hypothesis drives it and the engine with the same observations and
evaluations in two shapes - any timestamp order (through ``observe``
and ``consume``), and the serving pipeline's (a monotone clock, a
drained batch settling at one ``now``, evaluations past the last
sample and, as the pipeline's lazy grid makes them, before it,
thousands of samples).  Verdicts, burns and the ``slo.page`` events
must agree exactly, and after every evaluation the engine must hold
exactly the reference's samples not aged out, sorted.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SLO, SLOEngine, SLOVerdict, Tracer
from repro.obs.trace import TraceEvent


class TwoPassEngine(SLOEngine):
    """The reference: a deque of samples and two full scans per SLO."""

    def __init__(self, slos, tracer):
        super().__init__(slos, tracer=tracer)
        self._samples = {slo.name: deque() for slo in self.slos}
        self._at = 0.0

    def observe(self, slo_name, ts_ns, good):
        self._samples[slo_name].append((ts_ns, good))
        if ts_ns > self.latest_ns:
            self.latest_ns = ts_ns

    def _window(self, slo, window_ns):
        cutoff = self._at - window_ns
        good = bad = 0
        for ts_ns, ok in self._samples[slo.name]:
            if not cutoff <= ts_ns <= self._at:
                continue
            if ok:
                good += 1
            else:
                bad += 1
        return good, bad

    def in_window(self, slo, bad_only=False):
        """Sorted timestamps of the samples not aged out of the long
        window at the last evaluation (later ones included)."""
        cutoff = self._at - slo.long_window_ns
        return sorted(ts_ns for ts_ns, ok in self._samples[slo.name]
                      if ts_ns >= cutoff and not (bad_only and ok))

    def evaluate(self, now=None):
        self._at = self.latest_ns if now is None else now
        verdicts = []
        for slo in self.slos:
            samples = self._samples[slo.name]
            cutoff = self._at - slo.long_window_ns
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
                        ts_ns=self._at,
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
#: land exactly on both cutoffs and stale ones arrive mid-window
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

#: the pipeline's shape: the clock advances on an integer grid (so
#: samples sit on the cutoffs), a drained batch of up to 32 settles at
#: one ``now`` (bit i of the mask: request i missed its limit), and an
#: evaluation judges a grid point: at the clock - often past the last
#: sample, sometimes long enough after it that the windows empty - or,
#: judged lazily, up to 10 ns before it, never before the last one
settle = st.tuples(st.just("settle"), st.integers(0, 3),
                   st.integers(1, 32),
                   st.one_of(st.just(0), st.integers(0, 2**32 - 1)))
judge = st.tuples(st.just("evaluate"),
                  st.one_of(st.integers(0, 8), st.just(150)),
                  st.one_of(st.just(0), st.integers(0, 10)))
traffic = st.lists(st.one_of(settle, settle, settle, judge),
                   min_size=200, max_size=300)


def check_window(new, old):
    """The engine holds exactly the reference's in-window samples,
    sorted: every timestamp, and the bad ones on their own."""
    for slo in new.slos:
        assert new._times[slo.name] == old.in_window(slo)
        assert new._bad[slo.name] == old.in_window(slo, bad_only=True)


def check_evaluate(new, old, now=None):
    assert [v.as_dict() for v in new.evaluate(now)] \
        == [v.as_dict() for v in old.evaluate(now)]
    check_window(new, old)
    assert new._paging == old._paging


class TestSinglePassEqualsTwoPass:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(actions, max_size=40))
    def test_verdicts_burns_and_pages_identical(self, stream):
        new_tracer, old_tracer = Tracer(), Tracer()
        new = SLOEngine(slos(), tracer=new_tracer)
        old = TwoPassEngine(slos(), tracer=old_tracer)
        for action in [*stream, ("evaluate",)]:
            if action[0] == "evaluate":
                check_evaluate(new, old)
                # evaluate() is idempotent between observations
                check_evaluate(new, old)
                continue
            for engine in (new, old):
                if action[0] == "observe":
                    engine.observe(*action[1:])
                else:
                    engine.consume(event(*fields)
                                   for fields in action[1])
        assert [e.as_dict() for e in new_tracer.events()] \
            == [e.as_dict() for e in old_tracer.events()]

    @settings(max_examples=60, deadline=None)
    @given(traffic)
    def test_pipeline_traffic_verdicts_burns_and_pages_identical(
            self, stream):
        new_tracer, old_tracer = Tracer(), Tracer()
        new = SLOEngine(slos(), tracer=new_tracer)
        old = TwoPassEngine(slos(), tracer=old_tracer)
        now = at = 0.0
        for action in [*stream, ("evaluate", 0, 0)]:
            now += action[1]
            if action[0] == "evaluate":
                at = max(at, now - action[2])
                check_evaluate(new, old, at)
                continue
            _, _, size, mask = action
            for i in range(size):
                for engine in (new, old):
                    engine.observe("lat", now, good=not mask >> i & 1)
        assert not new._unsorted
        assert [e.as_dict() for e in new_tracer.events()] \
            == [e.as_dict() for e in old_tracer.events()]
