"""A future builds its event and callback list only when asked to.

``EagerFuture`` below is the previous implementation in miniature (a
``SimEvent`` allocated per future and fired at every settlement, a
callback list allocated per future); the hypothesis test drives both
through the same schedule of waits, callbacks and settlements and
requires the same log - every resume at the same simulated time, with
the same payload, in the same engine order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serving import CompletionFuture
from repro.sim.engine import Engine
from repro.sim.process import SimEvent, Wait, spawn


class EagerFuture:
    """The pre-lazy future: event and list built up front."""

    def __init__(self, engine, submitted_ns=0.0):
        self.done = False
        self.submitted_ns = submitted_ns
        self.completed_ns = 0.0
        self._event = SimEvent(engine)
        self._value = None
        self._callbacks = []

    def complete(self, value, ts_ns=0.0):
        if self.done:
            raise RuntimeError("future already completed")
        self.done = True
        self._value = value
        self.completed_ns = ts_ns
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        self._event.fire(self)

    def result(self):
        return self._value

    def wait(self):
        return 0 if self.done else self._event.wait()

    def add_done_callback(self, callback):
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)


class TestLazyAllocation:
    def test_nothing_is_built_until_asked_for(self):
        future = CompletionFuture(Engine(), submitted_ns=1.0)
        assert future._event is None and future._callbacks is None
        future.complete(7, ts_ns=4.0)
        assert future._event is None and future._callbacks is None
        assert future.result() == 7 and future.latency_ns == 3.0

    def test_wait_before_settlement_parks_on_one_event(self):
        engine = Engine()
        future = CompletionFuture(engine)
        first, second = future.wait(), future.wait()
        assert isinstance(first, Wait) and isinstance(second, Wait)
        assert first.event is second.event is future._event

    def test_wait_after_settlement_is_a_zero_sleep(self):
        future = CompletionFuture(Engine())
        future.complete(1)
        assert future.wait() == 0
        assert future._event is None

    def test_engineless_future_never_parks(self):
        future = CompletionFuture()
        assert future.wait() == 0

    def test_callbacks_before_and_after_settlement(self):
        future = CompletionFuture(Engine())
        seen = []
        future.add_done_callback(lambda f: seen.append(("a", f.done)))
        future.add_done_callback(lambda f: seen.append(("b", f.done)))
        assert seen == []
        future.complete(3)
        assert seen == [("a", True), ("b", True)]
        assert future._callbacks is None
        future.add_done_callback(lambda f: seen.append(("late", f.done)))
        assert seen[-1] == ("late", True)

    def test_callback_registered_from_a_callback_runs_at_once(self):
        future = CompletionFuture(Engine())
        seen = []
        future.add_done_callback(
            lambda f: f.add_done_callback(lambda g: seen.append("inner")))
        future.complete(None)
        assert seen == ["inner"]

    @pytest.mark.parametrize("first, second", [
        ("complete", "complete"), ("complete", "fail"),
        ("fail", "complete"), ("fail", "fail"),
    ])
    def test_a_second_settle_raises_and_keeps_the_first(self, first,
                                                        second):
        future = CompletionFuture(Engine())
        seen = []
        future.add_done_callback(seen.append)

        def settle(how, value):
            if how == "complete":
                future.complete(value, ts_ns=5.0)
            else:
                future.fail(ValueError(value), ts_ns=5.0)

        settle(first, "one")
        with pytest.raises(RuntimeError, match="already completed"):
            settle(second, "two")
        assert seen == [future]
        if first == "complete":
            assert future.result() == "one"
        else:
            assert future.error.args == ("one",)

    def test_parked_process_resumes_with_the_future_at_settle_time(self):
        engine = Engine()
        future = CompletionFuture(engine, submitted_ns=0.0)
        log = []

        def waiter():
            payload = yield future.wait()
            log.append((engine.now, payload is future, future.result()))

        def settler():
            yield 40
            future.complete("v", ts_ns=engine.now)
            log.append((engine.now, "settled"))

        spawn(engine, waiter())
        spawn(engine, settler())
        engine.run()
        # The waiter resumes inside complete(), before the settler's
        # next statement, at the settle time.
        assert log == [(40.0, True, "v"), (40.0, "settled")]


def run_schedule(make_future, settle_at, waiters, callbacks):
    """Drive one schedule; returns the ordered log of what happened."""
    engine = Engine()
    futures = [make_future(engine) for _ in settle_at]
    log = []

    def waiter(name, index, start):
        yield start
        log.append(("wait", name, engine.now, futures[index].done))
        payload = yield futures[index].wait()
        log.append(("resumed", name, engine.now,
                    payload is futures[index] or payload,
                    futures[index].result()))

    def registrar(name, index, start):
        yield start
        futures[index].add_done_callback(
            lambda f: log.append(("callback", name, engine.now,
                                  f.result())))

    def settler(index, at):
        yield at
        futures[index].complete(("value", index), ts_ns=engine.now)
        log.append(("settled", index, engine.now))

    for index, at in enumerate(settle_at):
        spawn(engine, settler(index, at))
    for name, (index, start) in enumerate(waiters):
        spawn(engine, waiter(name, index % len(futures), start))
    for name, (index, start) in enumerate(callbacks):
        spawn(engine, registrar(name, index % len(futures), start))
    engine.run()
    return log, engine.now


times = st.integers(0, 6).map(float)


class TestLazyEqualsEager:
    @settings(max_examples=150, deadline=None)
    @given(
        settle_at=st.lists(times, min_size=1, max_size=4),
        waiters=st.lists(st.tuples(st.integers(0, 3), times),
                         max_size=6),
        callbacks=st.lists(st.tuples(st.integers(0, 3), times),
                           max_size=4),
    )
    def test_same_times_payloads_and_engine_order(self, settle_at,
                                                  waiters, callbacks):
        lazy = run_schedule(CompletionFuture, settle_at, waiters,
                            callbacks)
        eager = run_schedule(EagerFuture, settle_at, waiters, callbacks)
        assert lazy == eager
