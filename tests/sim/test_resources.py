"""Tests for simulated mutex, semaphore, and RNG streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import SimMutex, SimSemaphore
from repro.sim.process import spawn
from repro.sim.rng import RngStreams


class TestSimMutex:
    def test_mutual_exclusion_serializes(self):
        eng = Engine()
        m = SimMutex(eng)
        active = []
        overlaps = []

        def worker(i):
            yield m.acquire()
            active.append(i)
            if len(active) > 1:
                overlaps.append(tuple(active))
            yield 100
            active.remove(i)
            m.release()

        for i in range(4):
            spawn(eng, worker(i))
        eng.run()
        assert overlaps == []
        assert eng.now == 400.0  # fully serialized

    def test_fifo_handoff(self):
        eng = Engine()
        m = SimMutex(eng)
        order = []

        def worker(i):
            yield i  # stagger arrival
            yield m.acquire()
            order.append(i)
            yield 50
            m.release()

        for i in range(3):
            spawn(eng, worker(i))
        eng.run()
        assert order == [0, 1, 2]

    def test_release_unowned_raises(self):
        eng = Engine()
        m = SimMutex(eng)
        with pytest.raises(SimulationError):
            m.release()

    def test_statistics(self):
        eng = Engine()
        m = SimMutex(eng)

        def worker():
            yield m.acquire()
            yield 10
            m.release()

        for _ in range(3):
            spawn(eng, worker())
        eng.run()
        assert m.acquisitions == 3
        assert m.contended_acquisitions == 2
        assert m.total_wait_ns == pytest.approx(10 + 20)
        assert m.peak_queue_depth == 2

    def test_is_locked_observable(self):
        eng = Engine()
        m = SimMutex(eng)
        observed = []

        def holder():
            yield m.acquire()
            yield 100
            m.release()

        def observer():
            yield 50
            observed.append(m.is_locked)
            yield 100
            observed.append(m.is_locked)

        spawn(eng, holder())
        spawn(eng, observer())
        eng.run()
        assert observed == [True, False]


class TestSimSemaphore:
    def test_permits_bound_the_holders(self):
        eng = Engine()
        sem = SimSemaphore(eng, permits=2)
        concurrent = [0]
        peak = [0]

        def worker():
            yield sem.acquire()
            concurrent[0] += 1
            peak[0] = max(peak[0], concurrent[0])
            yield 100
            concurrent[0] -= 1
            sem.release()

        for _ in range(5):
            spawn(eng, worker())
        eng.run()
        assert peak[0] == 2

    def test_negative_permits_rejected(self):
        with pytest.raises(SimulationError):
            SimSemaphore(Engine(), permits=-1)


class TestRngStreams:
    def test_streams_are_deterministic(self):
        a = RngStreams(seed=7).stream("x").random()
        b = RngStreams(seed=7).stream("x").random()
        assert a == b

    def test_streams_are_independent(self):
        streams = RngStreams(seed=7)
        x = streams.stream("x")
        y = streams.stream("y")
        seq_x = [x.random() for _ in range(5)]
        # Drawing from y must not perturb x's future sequence.
        fresh = RngStreams(seed=7)
        fx = fresh.stream("x")
        _ = [fresh.stream("y").random() for _ in range(100)]
        assert [fx.random() for _ in range(5)] == seq_x

    def test_different_names_differ(self):
        streams = RngStreams(seed=7)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_fork_changes_family(self):
        base = RngStreams(seed=7)
        forked = base.fork(1)
        assert base.stream("x").random() != forked.stream("x").random()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.text(min_size=1, max_size=10))
    def test_any_seed_name_combo_works(self, seed, name):
        value = RngStreams(seed).stream(name).random()
        assert 0.0 <= value < 1.0
