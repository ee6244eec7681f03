"""A stretch of idle grid points is judged once and counted, exactly.

The pipeline judges its SLOs at the grid points ``start + k *
slo_eval_interval_ns`` when a submit or the end of ``run()`` reaches
them, and once the latest sample has left every window it judges the
points left up to now as one evaluation counted for all.
``EveryPoint`` is the reference: it evaluates each grid point on its
own.  Hypothesis drives both with the same bursts (pages, with a 100 ns
threshold) and idle gaps of up to 100 µs, fed from outside the engine
and from a sim process; the counters, the ``slo.page`` records and
every request's outcome must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline, serving_slos
from repro.obs import Tracer
from repro.sim.process import spawn


class EveryPoint(ServingPipeline):
    """The reference: one evaluation per grid point, none counted."""

    def _judge_until(self, now):
        interval = self.config.slo_eval_interval_ns
        while self._next_eval <= now:
            self.evals += 1
            verdicts = self.slo_engine.evaluate(self._next_eval)
            paging = frozenset(v.scope for v in verdicts
                               if v.verdict == "page")
            if paging:
                self.page_evals += 1
                if not self._paging_scopes:
                    self.page_excursions += 1
            self._paging_scopes = paging
            self._eval_k += 1
            self._next_eval = self._eval_start + self._eval_k * interval


def play(kind, steps, from_engine):
    tracer = Tracer()
    service = ShardedService(tracer=tracer)
    service.create_domain("d")
    pipeline = kind(service, ServingConfig(shed_on_page=True,
                                           slo_threshold_ns=100.0),
                    slos=serving_slos(100.0))
    calls = []
    evaluate = pipeline.slo_engine.evaluate
    pipeline.slo_engine.evaluate = lambda now: calls.append(now) \
        or evaluate(now)
    futures = []
    if from_engine:
        def arrivals():
            for burst, gap in steps:
                futures.extend(pipeline.submit("d", (1, 2))
                               for _ in range(burst))
                yield gap

        spawn(pipeline.engine, arrivals())
        pipeline.run()
    else:
        for burst, gap in steps:
            futures.extend(pipeline.submit("d", (1, 2))
                           for _ in range(burst))
            pipeline.run(until=pipeline.engine.now + gap)
    pages = [event.as_dict() for event in tracer.events()
             if event.kind == "slo.page"]
    outcomes = [type(future.error).__name__ for future in futures]
    return (pipeline.snapshot()["slo"], pages, outcomes,
            pipeline.engine.now), len(calls)


#: a burst of submits at one instant (100 ns each to serve, so a burst
#: of 30 misses the threshold and pages), then a gap: within a window,
#: or long enough that every window empties
steps = st.lists(st.tuples(st.integers(0, 40),
                           st.one_of(st.floats(0.0, 5_000.0),
                                     st.floats(0.0, 100_000.0))),
                 min_size=1, max_size=30)


@settings(max_examples=80, deadline=None)
@given(steps, st.booleans())
def test_a_counted_stretch_judges_what_every_point_judges(steps, from_engine):
    lazy, lazy_calls = play(ServingPipeline, steps, from_engine)
    every, every_calls = play(EveryPoint, steps, from_engine)
    assert lazy == every
    assert lazy_calls <= every_calls


def test_an_idle_millisecond_costs_what_its_windows_hold():
    """One request, then a millisecond of nothing: 500 grid points,
    evaluated one by one only while the sample is in the 20 µs long
    window (10 points), then once for the remaining 490."""
    for from_engine in (False, True):
        (slo, _, _, now), calls = play(ServingPipeline, [(1, 1e6)],
                                       from_engine)
        assert (now, slo["evals"], calls) == (1e6, 500, 11)
