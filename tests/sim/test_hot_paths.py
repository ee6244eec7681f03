"""The engine's and the process layer's short cuts change nothing.

One bound ``_wake`` per process instead of a ``lambda`` per yield,
exact-type tests ahead of the ``isinstance`` chain, ``fire`` returning
at once with no waiters, and ``step`` skipping the cancelled-set probe
while the set is empty: each is checked here against the behaviour it
replaced - the firing order of a plain sorted model, every numeric
command type, and a re-yielded ``Wait``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import SimEvent, Wait, spawn


class Seconds(float):
    """A float subclass: takes the ``isinstance`` path, not ``is``."""


class TestNumericCommands:
    @pytest.mark.parametrize("delay", [
        7, 7.0, True, Seconds(7.0),
    ])
    def test_every_number_type_sleeps(self, delay):
        engine = Engine()
        woke = []

        def body():
            yield delay
            woke.append(engine.now)

        spawn(engine, body())
        engine.run()
        assert woke == [float(delay)]
        assert type(engine.now) is float

    @pytest.mark.parametrize("delay", [-1, -0.5, Seconds(-2.0)])
    def test_negative_delays_rejected_on_both_paths(self, delay):
        engine = Engine()

        def body():
            yield delay

        spawn(engine, body(), name="neg")
        with pytest.raises(SimulationError, match="negative delay"):
            engine.run()

    def test_wait_subclass_still_parks(self):
        class NamedWait(Wait):
            pass

        engine = Engine()
        event = SimEvent(engine)
        got = []

        def body():
            got.append((yield NamedWait(event)))

        spawn(engine, body())
        engine.run()
        assert event.waiter_count == 1
        event.fire("x")
        assert got == ["x"]


class TestWakeCallback:
    def test_one_callback_object_for_every_sleep(self):
        engine = Engine()

        def body():
            yield 1.0
            yield 2.0

        process = spawn(engine, body())
        scheduled = []
        while engine._queue:
            scheduled.append(engine._queue[0][2])
            engine.step()
        assert len(scheduled) == 3  # start-up step + two sleeps
        assert all(callback is process._wake for callback in scheduled)
        assert process.finished

    def test_wake_after_finish_is_a_no_op(self):
        engine = Engine()

        def body():
            yield 1.0

        process = spawn(engine, body())
        engine.run()
        process._wake()
        process.resume("late")
        assert process.finished


class TestFireWithoutWaiters:
    def test_returns_zero_and_keeps_later_waiters(self):
        engine = Engine()
        event = SimEvent(engine)
        assert event.fire("nobody") == 0
        got = []

        def body():
            got.append((yield event.wait()))

        spawn(engine, body())
        engine.run()
        assert event.fire("somebody") == 1
        assert got == ["somebody"]
        assert event.fire() == 0

    def test_a_reyielded_wait_parks_again(self):
        """The Dispatcher builds one ``Wait`` and yields it for ever."""
        engine = Engine()
        event = SimEvent(engine)
        got = []

        def body():
            parked = event.wait()
            while True:
                got.append((yield parked))

        spawn(engine, body())
        engine.run()
        for payload in ("a", "b", "c"):
            assert event.fire(payload) == 1
        assert got == ["a", "b", "c"]

    def test_waiter_added_during_fire_waits_for_the_next_one(self):
        engine = Engine()
        event = SimEvent(engine)
        got = []

        def body():
            while True:
                got.append((yield event.wait()))

        spawn(engine, body())
        engine.run()
        assert event.fire(1) == 1   # the body re-parks inside fire()
        assert got == [1] and event.waiter_count == 1


class TestEngineClockAndCancel:
    def test_clock_is_now(self):
        engine = Engine()
        clock = engine.clock
        assert clock() == engine.now == 0.0
        engine.schedule(12.5, lambda: None)
        engine.run()
        assert clock() == engine.now == 12.5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), st.integers(0, 5)),
            st.tuples(st.just("cancel"), st.integers(0, 40)),
            st.tuples(st.just("step"), st.just(0)),
        ), max_size=40))
    def test_firing_order_matches_a_sorted_model(self, ops):
        """Random schedule / cancel / step interleavings fire exactly
        what a sorted (time, seq) list with eager removal would."""
        engine = Engine()
        fired = []
        model = []       # pending (time, seq), not cancelled
        model_fired = []
        model_now = 0.0
        issued = []
        for op, arg in ops:
            if op == "schedule":
                seq = engine.schedule(
                    float(arg), lambda k=len(issued): fired.append(k))
                issued.append(seq)
                model.append((model_now + arg, seq, len(issued) - 1))
            elif op == "cancel" and issued:
                seq = issued[arg % len(issued)]
                engine.cancel(seq)
                model = [entry for entry in model if entry[1] != seq]
            else:
                stepped = engine.step()
                assert stepped == bool(model)
                if model:
                    model.sort()
                    model_now, _seq, key = model.pop(0)
                    model_fired.append(key)
                assert engine.now == model_now
        engine.run()
        model_fired.extend(key for _t, _s, key in sorted(model))
        assert fired == model_fired
        assert engine.pending() == 0
