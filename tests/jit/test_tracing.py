"""Tests for the tracing-JIT state machine and the mini-VM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jit.interp import VM
from repro.jit.params import JitParams, with_param
from repro.jit.program import (
    Block,
    Call,
    Function,
    Guard,
    Loop,
    LoopNestBuilder,
    Program,
)
from repro.jit.tracing import CostModel, TracingJit


def leaf(loop_id="L", trips=10, body_ops=20, guards=()):
    return Loop(loop_id=loop_id, trips=trips, body_ops=body_ops,
                guards=guards)


def prog(*nodes, name="p"):
    return Program(name=name, body=tuple(nodes), setup_ops=0)


class TestTraceOps:
    def test_leaf_trace_is_body(self):
        assert leaf(body_ops=33).trace_ops() == 33

    def test_nested_trace_unrolls_children(self):
        inner = leaf("i", trips=10, body_ops=5)
        outer = Loop("o", trips=4, body_ops=2, children=(inner,))
        assert outer.trace_ops() == 2 + 10 * 5

    def test_call_inlined_into_trace(self):
        f = Function("f", body_ops=7)
        loop = Loop("l", trips=3, body_ops=2, children=(Call(f),))
        assert loop.trace_ops() == 9

    def test_builder_produces_expected_structure(self):
        program = (LoopNestBuilder("k")
                   .nest("main", (4, 5, 6), body_ops=10)
                   .build())
        loops = program.loops()
        assert len(loops) == 3
        assert [loop.trips for loop in loops] == [4, 5, 6]


class TestHotnessThreshold:
    def test_loop_compiles_after_threshold(self):
        # threshold 49 < 5 bumps of 10 even after the slight decay
        vm = VM(with_param(JitParams(), threshold=49, decay=1))
        loop = leaf(trips=10)
        program = prog(loop)
        for _ in range(4):  # counter ~40 < 49
            vm.run_program(program)
        assert not vm.jit.loop_state("L").compiled
        vm.run_program(program)  # counter ~50 -> hot
        assert vm.jit.loop_state("L").compiled

    def test_lower_threshold_compiles_sooner(self):
        eager = VM(with_param(JitParams(), threshold=10))
        eager.run_program(prog(leaf(trips=10)))
        assert eager.jit.loop_state("L").compiled

    def test_compiled_runs_faster_steady_state(self):
        slow = VM(with_param(JitParams(), threshold=10**9))  # never hot
        fast = VM(with_param(JitParams(), threshold=1))
        program = prog(leaf(trips=50, body_ops=40))
        fast.run_program(program)  # warmup/compile
        t_fast = fast.run_program(program)
        t_slow = slow.run_program(program)
        assert t_fast < t_slow / 5


class TestTraceLimit:
    def test_oversized_trace_aborts(self):
        vm = VM(with_param(JitParams(), threshold=1, trace_limit=100))
        vm.run_program(prog(leaf(body_ops=200)))
        assert vm.jit.stats.trace_aborts == 1
        assert not vm.jit.loop_state("L").compiled

    def test_blacklisted_after_max_aborts(self):
        vm = VM(with_param(JitParams(), threshold=1, trace_limit=100))
        program = prog(leaf(body_ops=200))
        for _ in range(5):
            vm.run_program(program)
        state = vm.jit.loop_state("L")
        assert state.blacklisted
        assert vm.jit.stats.trace_aborts == vm.jit.costs.max_trace_aborts

    def test_raised_limit_allows_compilation(self):
        vm = VM(with_param(JitParams(), threshold=1, trace_limit=300))
        vm.run_program(prog(leaf(body_ops=200)))
        assert vm.jit.loop_state("L").compiled

    def test_outer_loop_of_deep_nest_exceeds_limit(self):
        program = (LoopNestBuilder("k", setup_ops=0)
                   .nest("main", (4, 100, 50), body_ops=30)
                   .build())
        outer, mid, inner = program.loops()
        params = JitParams()
        assert inner.trace_ops() <= params.trace_limit
        assert outer.trace_ops() > params.trace_limit


class TestGuardsAndBridges:
    def test_guard_failures_counted(self):
        vm = VM(with_param(JitParams(), threshold=1))
        loop = leaf(trips=30, guards=(Guard(every=10, side_ops=5),))
        program = prog(loop)
        vm.run_program(program)  # compile
        vm.run_program(program)
        assert vm.jit.stats.guard_failures >= 3

    def test_bridge_compiled_after_eagerness(self):
        vm = VM(with_param(JitParams(), threshold=1, trace_eagerness=5))
        loop = leaf(trips=100, guards=(Guard(every=10, side_ops=5),))
        program = prog(loop)
        vm.run_program(program)
        assert vm.jit.stats.bridges_compiled == 1

    def test_bridged_failures_are_cheaper(self):
        eager = VM(with_param(JitParams(), threshold=1,
                              trace_eagerness=1))
        lazy = VM(with_param(JitParams(), threshold=1,
                             trace_eagerness=10**6))
        loop = leaf(trips=100, guards=(Guard(every=4, side_ops=30),))
        program = prog(loop)
        eager.run_program(program)
        lazy.run_program(program)
        t_eager = sum(eager.run_program(program) for _ in range(5))
        t_lazy = sum(lazy.run_program(program) for _ in range(5))
        assert t_eager < t_lazy


class TestFunctionThreshold:
    def test_function_compiles_at_threshold(self):
        vm = VM(with_param(JitParams(), function_threshold=3))
        f = Function("f", body_ops=50)
        program = prog(Call(f))
        for _ in range(2):
            vm.run_program(program)
        assert not vm.jit.function_state("f").compiled
        vm.run_program(program)
        assert vm.jit.function_state("f").compiled
        assert vm.jit.stats.functions_compiled == 1


class TestDecay:
    def test_counters_decay_between_uses(self):
        vm = VM(with_param(JitParams(), threshold=10**9, decay=100))
        rare = prog(leaf("rare", trips=10), name="rare")
        busy = prog(leaf("busy", trips=10), name="busy")
        vm.run_program(rare)
        counter_before = vm.jit.loop_state("rare").counter
        for _ in range(300):
            vm.run_program(busy)
        vm.run_program(rare)
        # The bump added 10, but decay removed more than that.
        assert vm.jit.loop_state("rare").counter < counter_before + 10

    def test_zero_elapsed_no_decay(self):
        jit = TracingJit(JitParams())
        state = jit.loop_state("x")
        state.counter = 100.0
        jit._apply_decay(state)
        assert state.counter == 100.0


class TestLongevity:
    def test_unused_compiled_loop_freed(self):
        vm = VM(with_param(JitParams(), threshold=1, loop_longevity=1))
        target = prog(leaf("target", trips=10), name="t")
        vm.run_program(target)
        assert vm.jit.loop_state("target").compiled
        filler = prog(leaf("filler", trips=10), name="f")
        for _ in range(50):
            vm.run_program(filler)
        assert not vm.jit.loop_state("target").compiled
        assert vm.jit.stats.loops_freed >= 1

    def test_long_longevity_keeps_loop(self):
        vm = VM(with_param(JitParams(), threshold=1,
                           loop_longevity=10**6))
        target = prog(leaf("target", trips=10), name="t")
        vm.run_program(target)
        filler = prog(leaf("filler", trips=10), name="f")
        for _ in range(50):
            vm.run_program(filler)
        assert vm.jit.loop_state("target").compiled


class TestCodeCache:
    def test_cache_evicts_lru(self):
        costs = CostModel(code_cache_ops=100)
        vm = VM(with_param(JitParams(), threshold=1), costs)
        a = prog(leaf("a", body_ops=60), name="a")
        b = prog(leaf("b", body_ops=60), name="b")
        vm.run_program(a)
        vm.run_program(b)  # evicts a
        assert vm.jit.stats.cache_evictions == 1
        assert not vm.jit.loop_state("a").compiled
        assert vm.jit.loop_state("b").compiled


class FullWalkJit(TracingJit):
    """The reference expiry: test every compiled loop on every entry."""

    def _expire_old_traces(self, current_id):
        horizon = (self.params.loop_longevity
                   * self.costs.longevity_tick_scale)
        for loop_id in list(self._lru):
            if loop_id == current_id:
                continue
            if self._tick - self._loops[loop_id].last_use_tick > horizon:
                self._free(loop_id)
                self.stats.loops_freed += 1


#: a dozen loops whose traces (20-75 ops) overflow a 300-op cache
LOOPS = [leaf(f"L{i}", trips=10, body_ops=20 + 5 * i) for i in range(12)]


class TestExpiryStopsAtFirstLiveLoop:
    """Each iteration sets ``loop_longevity``, as the tuner does, then
    runs a program's loops in order: a shorter longevity expires several
    loops at once, the entered one (the least recently used) first."""

    @settings(max_examples=300, deadline=None)
    @given(programs=st.lists(st.lists(st.integers(0, len(LOOPS) - 1),
                                      min_size=1, max_size=8, unique=True),
                             min_size=1, max_size=3),
           iterations=st.lists(st.tuples(st.integers(0, 2),
                                         st.integers(1, 8)), max_size=40),
           threshold=st.integers(1, 40))
    def test_frees_exactly_what_the_full_walk_frees(self, programs,
                                                    iterations, threshold):
        params = with_param(JitParams(), threshold=threshold)
        costs = CostModel(code_cache_ops=300, longevity_tick_scale=1)
        jit, reference = TracingJit(params, costs), FullWalkJit(params, costs)
        for which, longevity in iterations:
            params = with_param(params, loop_longevity=longevity)
            jit.set_params(params)
            reference.set_params(params)
            for index in programs[which % len(programs)]:
                assert jit.enter_loop(LOOPS[index]) \
                    == reference.enter_loop(LOOPS[index])
                assert jit.stats == reference.stats
        for loop in LOOPS:
            assert jit.loop_state(loop.loop_id) \
                == reference.loop_state(loop.loop_id)


class TestCounters:
    def test_papi_counters_accumulate(self):
        vm = VM()
        vm.run_program(prog(Block(1000)))
        window = vm.counters.snapshot_and_reset()
        assert window.instructions == 1000
        assert window.l1d_hits + window.l1d_misses == 1000
        assert window.elapsed_ns > 0
        assert vm.counters.instructions == 0

    def test_compiled_code_misses_less(self):
        from repro.jit.counters import PapiCounters
        interp = PapiCounters()
        interp.record_ops(10_000, compiled=False)
        compiled = PapiCounters()
        compiled.record_ops(10_000, compiled=True)
        assert compiled.l1d_misses < interp.l1d_misses

    def test_feature_vector_is_rounded(self):
        from repro.jit.counters import PapiCounters
        c = PapiCounters(instructions=1234, l1d_hits=5000, l1d_misses=9,
                         elapsed_ns=1_999_000)
        features = c.feature_vector()
        assert features[0] == 1000
        assert features[2] == 2000  # 1999 us -> 2000


class TestValidation:
    def test_loop_rejects_zero_trips(self):
        with pytest.raises(ValueError):
            Loop("x", trips=0, body_ops=1)

    def test_guard_rejects_every_below_two(self):
        with pytest.raises(ValueError):
            Guard(every=1)

    def test_builder_rejects_empty_nest(self):
        with pytest.raises(ValueError):
            LoopNestBuilder("x").nest("t", (), body_ops=1)
