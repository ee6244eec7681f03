"""The engine's and the process layer's short cuts change nothing.

One bound ``_wake`` per process instead of a ``lambda`` per yield,
exact-type tests ahead of the ``isinstance`` chain, ``fire`` returning
at once with no waiters, ``step`` skipping the cancelled-set probe
while the set is empty, one ``resume`` frame for a body, its command and
an uncontended grant, and ``now`` read as an attribute: each is checked
here against the behaviour it replaced - the firing order of a plain
sorted model, every numeric command type, a re-yielded ``Wait``, and
random programs run on the frozen simulator in ``reference_sim.py``.
What one event executes is pinned by call counts, so a regression
fails by count, not by time.
"""

import functools
import itertools
import os
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim
from repro.sim.engine import Engine, SimulationError
from repro.sim.process import SimEvent, Wait, spawn
from repro.sim.resources import SimMutex, SimSemaphore
from tests.sim import reference_sim

#: the live simulator, shaped like the one-module ``reference_sim``
live_sim = SimpleNamespace(Engine=Engine, SimEvent=SimEvent, Wait=Wait,
                           spawn=spawn, SimMutex=SimMutex,
                           SimSemaphore=SimSemaphore)


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
        """A body may build one ``Wait`` and yield it for ever."""
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


class TestStepIsTheEventBoundary:
    def test_run_calls_step_once_per_fired_event(self):
        """A ``step`` shadowed on the instance before ``run`` (as the
        benchmark harness does) sees every event."""
        engine = Engine()
        fired = []
        for delay in (3.0, 1.0, 2.0, 2.0):
            engine.schedule(delay, lambda d=delay: fired.append(d))
        cancelled = engine.schedule(1.5, lambda: fired.append("x"))
        engine.cancel(cancelled)
        inner = engine.step
        results = []
        engine.step = lambda: results.append(inner()) or results[-1]
        engine.run()
        assert fired == [1.0, 2.0, 2.0, 3.0]
        assert results == [True] * 4


# -- the live simulator against the frozen one ------------------------------

#: what a bare ``yield`` op yields, by kind, from a small int
COMMANDS = {
    "float": float,
    "int": int,
    "bool": lambda v: bool(v % 2),
    "sub": Seconds,
    "neg": lambda v: -v - 0.5,
    "junk": lambda v: f"junk-{v}",
}
# common kinds listed more than once: a program mostly runs, sometimes
# fails on a negative delay or an unknown command
YIELD_KINDS = ("float", "float", "float", "int", "int", "bool", "sub",
               "sub", "float", "int", "neg", "junk")

_leaf = st.one_of(
    st.tuples(st.just("yield"), st.sampled_from(YIELD_KINDS),
              st.integers(0, 6)),
    st.tuples(st.just("wait"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("fire"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("timer"), st.integers(0, 1), st.integers(0, 6),
              st.integers(0, 9)),
    st.tuples(st.just("post"), st.integers(0, 1)),
)
_ops = st.lists(st.recursive(_leaf, lambda inner: st.one_of(
    st.tuples(st.just("lock"), st.integers(0, 1),
              st.lists(inner, max_size=3)),
    st.tuples(st.just("sem"), st.integers(0, 1), st.booleans(),
              st.lists(inner, max_size=3)),
    st.tuples(st.just("nested"), st.lists(inner, max_size=3)),
), max_leaves=8), max_size=5)
_programs = st.tuples(
    st.lists(_ops, min_size=2, max_size=5),           # one list per process
    st.tuples(st.integers(0, 2), st.integers(0, 2)),  # semaphore permits
    st.one_of(st.none(), st.integers(0, 30).map(float)),  # run(until)
)


def simulate(sim, program, permits, until):
    """Run ``program`` on simulator module ``sim``; everything observable."""
    engine = sim.Engine()
    events = [sim.SimEvent(engine) for _ in range(2)]
    mutexes = [sim.SimMutex(engine, name=f"m{i}") for i in range(2)]
    sems = [sim.SimSemaphore(engine, n) for n in permits]
    named_wait = type("NamedWait", (sim.Wait,), {})
    trace = []

    def run_ops(name, ops, steps):
        for op in ops:
            kind = op[0]
            if kind == "yield":
                got = yield COMMANDS[op[1]](op[2])
            elif kind == "wait":
                event = events[op[1]]
                got = yield named_wait(event) if op[2] else event.wait()
            elif kind == "fire":
                got = ("fired", events[op[1]].fire(op[2]))
            elif kind == "post":
                got = sems[op[1]].release()
            elif kind == "timer":
                engine.schedule(float(op[2]),
                                functools.partial(events[op[1]].fire, op[3]))
                got = "timer"
            elif kind == "lock":
                mutex = mutexes[op[1]]
                got = yield mutex.acquire()
                trace.append((engine.now, name, next(steps), ("locked", got)))
                yield from run_ops(name, op[2], steps)
                mutex.release()
            elif kind == "sem":
                sem = sems[op[1]]
                got = yield sem.acquire_front() if op[2] else sem.acquire()
                trace.append((engine.now, name, next(steps), ("held", got)))
                yield from run_ops(name, op[3], steps)
                sem.release()
            else:
                got = yield from run_ops(name, op[1], steps)
            trace.append((engine.now, name, next(steps), got))
        return len(ops)

    # a pulse process fires both events and posts a permit to the second
    # semaphore every 2 ns, so parked and queued bodies are woken from
    # another body, not only by what the programs do themselves
    pulse = [op for k in range(8)
             for op in (("yield", "float", 2), ("fire", 0, k), ("fire", 1, k),
                        ("post", 1))]
    processes = [
        sim.spawn(engine, run_ops(f"p{i}", ops, itertools.count()),
                  name=f"p{i}")
        for i, ops in enumerate([*program, pulse])
    ]
    error = None
    try:
        engine.run(until=until)
    except Exception as exc:   # the type is what must agree
        error = type(exc).__name__
    return {
        "trace": trace,
        "error": error,
        "now": engine.now,
        "seq": engine._seq,
        "pending": engine.pending(),
        "finished": [p.finished for p in processes],
        "mutexes": [(m.acquisitions, m.contended_acquisitions,
                     m.total_wait_ns, m.peak_queue_depth, m.is_locked,
                     m.queue_depth) for m in mutexes],
        "sems": [s.available for s in sems],
        "waiters": [e.waiter_count for e in events],
    }


class TestAgainstTheFrozenSimulator:
    @settings(max_examples=300, deadline=None)
    @given(_programs)
    def test_random_programs_run_identically(self, case):
        program, permits, until = case
        live = simulate(live_sim, program, permits, until)
        frozen = simulate(reference_sim, program, permits, until)
        assert live == frozen

    def test_the_property_reaches_every_path(self):
        """One hand-written program through every op the property draws:
        contended and uncontended grants, both semaphore commands, a
        timer-fired and a body-fired wake, a Wait subclass, nested
        ``yield from`` and every numeric command type."""
        program = [
            [("lock", 0, [("yield", "float", 3)]),
             ("sem", 0, True, [("wait", 0, True)]),
             ("nested", [("yield", "sub", 1), ("yield", "bool", 1)])],
            [("yield", "int", 1), ("lock", 0, [("fire", 0, 7)]),
             ("timer", 0, 2, 8), ("sem", 0, False, [("yield", "float", 1)])],
            [("wait", 0, False), ("sem", 0, False, [])],
        ]
        live = simulate(live_sim, program, (1, 0), None)
        assert live == simulate(reference_sim, program, (1, 0), None)
        assert live["error"] is None and all(live["finished"])
        assert live["mutexes"][0][:2] == (2, 1)     # one contended grant
        assert (2.0, "p2", 0, 0) in live["trace"]   # woken by a body's fire
        assert (5.0, "p0", 4, 8) in live["trace"]   # ... and by a timer's

    @pytest.mark.parametrize("kind", ["neg", "junk"])
    def test_a_bad_command_fails_alike(self, kind):
        program = [[("yield", "float", 1), ("yield", kind, 2)],
                   [("yield", "float", 5)]]
        live = simulate(live_sim, program, (0, 0), None)
        assert live["error"] == "SimulationError"
        assert live == simulate(reference_sim, program, (0, 0), None)


# -- what one event executes ------------------------------------------------

SIM_DIR = os.path.dirname(os.path.abspath(repro.sim.__file__))


def sim_calls(action):
    """The ``repro.sim`` functions entered while ``action()`` runs, by
    name: Python-level calls only - a process body's own frames and
    builtins (``send``, ``heappush``) are not counted."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SIM_DIR):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


class TestWhatAnEventExecutes:
    def test_a_float_sleep_is_step_resume_schedule(self):
        engine = Engine()

        def sleeper(delay):
            while True:
                yield delay

        spawn(engine, sleeper(1.0))
        spawn(engine, sleeper(3.0))
        engine.step()
        engine.step()                 # both start-up steps done
        assert sim_calls(engine.step) == {
            "step": 1, "resume": 1, "schedule": 1}

    def test_an_event_wake_from_fire_is_one_resume(self):
        engine = Engine()
        event = SimEvent(engine)
        got = []

        def waiter():
            parked = event.wait()
            while True:
                got.append((yield parked))

        def firer():
            yield 2.0
            event.fire("x")
            yield 1.0

        spawn(engine, waiter())
        spawn(engine, firer())
        engine.step()
        engine.step()                 # the waiter is parked
        # the firer's own wake and sleep, plus fire and the waiter's one
        # resume (its body re-parks in the same frame)
        assert sim_calls(engine.step) == {
            "step": 1, "resume": 2, "fire": 1, "schedule": 1}
        assert got == ["x"] and event.waiter_count == 1
        assert sim_calls(lambda: event.fire("y")) == {
            "fire": 1, "resume": 1}
        assert got == ["x", "y"]

    def test_an_uncontended_acquire_is_acquire_and_grant(self):
        engine = Engine()
        sem = SimSemaphore(engine, permits=1)

        def worker():
            yield 1.0
            yield sem.acquire()
            yield 1.0
            sem.release()

        def other():
            yield 5.0

        spawn(engine, worker())
        spawn(engine, other())
        engine.step()
        engine.step()
        # granted at once: the body carries on in the same resume, so
        # the wake is step + resume + acquire + _grant and then the next
        # sleep's schedule - no second resume
        assert sim_calls(engine.step) == {
            "step": 1, "resume": 1, "acquire": 1, "_grant": 1,
            "schedule": 1}
        assert sem.available == 0
        engine.run()
        assert sem.available == 1
