"""Tests for simulated processes and events."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import PARK, SimEvent, spawn


class TestProcessBasics:
    def test_delays_accumulate(self):
        eng = Engine()
        trace = []

        def body():
            trace.append(eng.now)
            yield 10
            trace.append(eng.now)
            yield 15
            trace.append(eng.now)

        spawn(eng, body())
        eng.run()
        assert trace == [0.0, 10.0, 25.0]

    def test_finished_flag(self):
        eng = Engine()

        def body():
            yield 5

        p = spawn(eng, body())
        assert p.finished is False
        eng.run()
        assert p.finished is True

    def test_negative_yield_rejected(self):
        eng = Engine()

        def body():
            yield -3

        spawn(eng, body())
        with pytest.raises(SimulationError):
            eng.run()

    def test_unknown_command_rejected(self):
        eng = Engine()

        def body():
            yield "nonsense"

        spawn(eng, body())
        with pytest.raises(SimulationError):
            eng.run()


class TestPark:
    def test_a_parked_process_waits_for_its_owner(self):
        """``PARK`` schedules nothing: the engine drains around the
        parked process, and only a direct ``resume`` continues it, at
        the simulated now, with the payload it is given."""
        eng = Engine()
        trace = []

        def body():
            while True:
                payload = yield PARK
                trace.append((eng.now, payload))
                yield 5.0

        p = spawn(eng, body())
        eng.run()
        assert trace == [] and not p.finished
        eng.run(until=20.0)
        p.resume("a")
        eng.run()
        p.resume("b")
        assert trace == [(20.0, "a"), (25.0, "b")]


class TestSimEvent:
    def test_wait_blocks_until_fire(self):
        eng = Engine()
        evt = SimEvent(eng)
        trace = []

        def waiter():
            yield evt.wait()
            trace.append(("woke", eng.now))

        def firer():
            yield 30
            evt.fire()

        spawn(eng, waiter())
        spawn(eng, firer())
        eng.run()
        assert trace == [("woke", 30.0)]

    def test_fire_wakes_all(self):
        eng = Engine()
        evt = SimEvent(eng)
        woke = []

        def waiter(i):
            yield evt.wait()
            woke.append(i)

        for i in range(3):
            spawn(eng, waiter(i))

        def firer():
            yield 5
            assert evt.fire() == 3

        spawn(eng, firer())
        eng.run()
        assert sorted(woke) == [0, 1, 2]

    def test_payload_passed_to_waiter(self):
        eng = Engine()
        evt = SimEvent(eng)
        got = []

        def waiter():
            payload = yield evt.wait()
            got.append(payload)

        spawn(eng, waiter())
        eng.schedule(1, lambda: evt.fire("hello"))
        eng.run()
        assert got == ["hello"]
