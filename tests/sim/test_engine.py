"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(30, lambda: order.append("c"))
        eng.schedule(10, lambda: order.append("a"))
        eng.schedule(20, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        eng = Engine()
        order = []
        for tag in "abc":
            eng.schedule(5, lambda t=tag: order.append(t))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(42, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [42.0]
        assert eng.now == 42.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        eng.run()
        seen = []
        eng.schedule_at(25, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [25.0]

    def test_nested_scheduling(self):
        eng = Engine()
        times = []

        def first():
            times.append(eng.now)
            eng.schedule(5, second)

        def second():
            times.append(eng.now)

        eng.schedule(10, first)
        eng.run()
        assert times == [10.0, 15.0]


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        event_id = eng.schedule(10, lambda: fired.append(1))
        eng.cancel(event_id)
        eng.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        event_id = eng.schedule(20, lambda: None)
        eng.cancel(event_id)
        assert eng.pending() == 1


class TestRunUntil:
    def test_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.schedule(10, lambda: fired.append("early"))
        eng.schedule(100, lambda: fired.append("late"))
        eng.run(until=50)
        assert fired == ["early"]
        assert eng.now == 50.0
        eng.run()
        assert fired == ["early", "late"]

    def test_until_advances_clock_even_when_idle(self):
        eng = Engine()
        eng.run(until=123)
        assert eng.now == 123.0

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_max_events_guard(self):
        eng = Engine()

        def rearm():
            eng.schedule(1, rearm)

        eng.schedule(1, rearm)
        with pytest.raises(SimulationError):
            eng.run(max_events=1000)
