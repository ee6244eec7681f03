"""The tracing-JIT runtime: counters, traces, guards, bridges, decay.

This is a *cost-model* JIT: it does not generate code, but it makes the
same decisions a PyPy-style tracing JIT makes, at the same points, driven
by the same six Table 1 parameters, and charges simulated nanoseconds for
each consequence:

* loops run interpreted until their header counter crosses ``threshold``;
* tracing records one body iteration (unrolling through nested loops and
  inlining calls); traces longer than ``trace_limit`` abort with
  ABORT_TOO_LONG after burning the recording cost, and a loop that aborts
  repeatedly is blacklisted;
* compiled traces run ~10x faster but pay a per-entry cost (boxing and
  transfer into machine code), so compiling an *outer* loop also removes
  the inner loop's entry overhead;
* guard failures fall back to the interpreter until ``trace_eagerness``
  failures trigger bridge compilation;
* counters decay over time (``decay``), keeping lukewarm loops cold;
* compiled code unused for ``loop_longevity`` ticks is freed, and the
  code cache has finite capacity with LRU eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jit.params import JitParams
from repro.jit.program import Function, Loop


@dataclass(frozen=True)
class CostModel:
    """Simulated-nanosecond costs of the VM's mechanisms."""

    interp_ns_per_op: float = 25.0
    compiled_ns_per_op: float = 1.2
    tracing_ns_per_op: float = 60.0
    compile_ns_per_op: float = 80.0
    #: entering/leaving a compiled trace (boxing, register shuffling)
    trace_entry_ns: float = 250.0
    guard_fail_ns: float = 250.0
    call_interp_ns: float = 120.0
    call_compiled_ns: float = 5.0
    #: code cache capacity in trace operations
    code_cache_ops: int = 50_000
    #: tracing attempts after which a loop is blacklisted
    max_trace_aborts: int = 3
    #: global ticks per decay application
    decay_tick_interval: int = 100
    #: longevity is expressed in these many global ticks
    longevity_tick_scale: int = 5


@dataclass
class GuardState:
    """Cumulative failure accounting for one guard in one trace."""

    failures: int = 0
    bridged: bool = False


@dataclass
class LoopState:
    """JIT book-keeping for one loop."""

    counter: float = 0.0
    compiled: bool = False
    blacklisted: bool = False
    trace_ops: int = 0
    trace_aborts: int = 0
    guards: dict[int, GuardState] = field(default_factory=dict)
    last_decay_tick: int = 0
    last_use_tick: int = 0
    #: total times this loop's compiled trace was entered
    compiled_entries: int = 0
    compiles: int = 0


@dataclass
class FunctionState:
    """JIT book-keeping for one function."""

    calls: int = 0
    compiled: bool = False


@dataclass
class JitStats:
    """Counters describing what the JIT did (exposed to tests/reports)."""

    loops_compiled: int = 0
    trace_aborts: int = 0
    bridges_compiled: int = 0
    guard_failures: int = 0
    functions_compiled: int = 0
    loops_freed: int = 0
    cache_evictions: int = 0
    compiles_declined: int = 0


class TracingJit:
    """The JIT state machine; one instance per simulated process."""

    def __init__(self, params: JitParams,
                 costs: CostModel | None = None) -> None:
        self.params = params
        self.costs = costs or CostModel()
        self.stats = JitStats()
        self._loops: dict[str, LoopState] = {}
        self._functions: dict[str, FunctionState] = {}
        self._tick = 0
        self._cache_used = 0
        #: total function invocations (loop invocations are ``tick``)
        self.total_calls = 0
        #: loop/call entries that took the interpreter path - each one is
        #: a hot-check, i.e. a prediction-service consultation point in
        #: the latency-sensitive configuration
        self.interp_entries = 0
        # compiled loop ids, least recently used first; a touch follows a
        # ``last_use_tick`` stamp, so this is ascending ``last_use_tick``
        self._lru: dict[str, None] = {}

    # -- parameter updates (the tuner changes these between iterations) ---

    def set_params(self, params: JitParams) -> None:
        """Adopt new tuning parameters; compiled code stays valid."""
        self.params = params

    # -- state access -------------------------------------------------------

    def loop_state(self, loop_id: str) -> LoopState:
        if loop_id not in self._loops:
            self._loops[loop_id] = LoopState(last_decay_tick=self._tick)
        return self._loops[loop_id]

    def function_state(self, name: str) -> FunctionState:
        if name not in self._functions:
            self._functions[name] = FunctionState()
        return self._functions[name]

    @property
    def tick(self) -> int:
        return self._tick

    # -- decay / longevity ----------------------------------------------------

    def _apply_decay(self, state: LoopState) -> None:
        """Decay the hotness counter for elapsed global ticks."""
        elapsed = self._tick - state.last_decay_tick
        if elapsed <= 0:
            return
        intervals = elapsed / self.costs.decay_tick_interval
        factor = (1.0 - self.params.decay / 1000.0) ** intervals
        state.counter *= factor
        state.last_decay_tick = self._tick

    def _expire_old_traces(self, current_id: str) -> None:
        """Free compiled loops unused for ``loop_longevity`` ticks; the
        walk stops at the first live loop, as every later one is live."""
        horizon = (self.params.loop_longevity
                   * self.costs.longevity_tick_scale)
        expired: list[str] = []
        for loop_id in self._lru:
            if loop_id == current_id:
                continue
            if self._tick - self._loops[loop_id].last_use_tick <= horizon:
                break
            expired.append(loop_id)
        for loop_id in expired:
            self._free(loop_id)
            self.stats.loops_freed += 1

    def _free(self, loop_id: str) -> None:
        state = self._loops[loop_id]
        if not state.compiled:
            return
        state.compiled = False
        state.counter = 0.0
        state.guards.clear()
        self._cache_used -= state.trace_ops
        del self._lru[loop_id]

    def _reserve_cache(self, ops: int, loop_id: str) -> None:
        """Make room in the code cache, evicting LRU traces."""
        while (self._cache_used + ops > self.costs.code_cache_ops
               and self._lru):
            victim = next(iter(self._lru))
            if victim == loop_id:
                break
            self._free(victim)
            self.stats.cache_evictions += 1
        self._cache_used += ops

    def _touch(self, loop_id: str) -> None:
        self._lru.pop(loop_id, None)
        self._lru[loop_id] = None

    # -- the decision points ----------------------------------------------------

    def enter_loop(self, loop: Loop) -> tuple[str, float]:
        """Called once per loop invocation; returns (mode, upfront_ns).

        Mode is "compiled" or "interp".  Drives counter bumps, decay,
        hotness checks, tracing (with possible abort), compilation, and
        code-cache management.
        """
        self._tick += 1
        state = self.loop_state(loop.loop_id)
        cost = 0.0

        self._expire_old_traces(loop.loop_id)

        if state.compiled:
            state.last_use_tick = self._tick
            state.compiled_entries += 1
            self._touch(loop.loop_id)
            return "compiled", self.costs.trace_entry_ns

        if state.blacklisted:
            self.interp_entries += 1
            return "interp", 0.0

        self._apply_decay(state)
        state.counter += loop.trips
        if state.counter < self.params.threshold:
            self.interp_entries += 1
            return "interp", 0.0

        # Hot: trace one iteration of the body.
        trace_ops = loop.trace_ops()
        if trace_ops > self.params.trace_limit:
            # ABORT_TOO_LONG: recording burned until the limit was hit.
            cost += self.params.trace_limit * self.costs.tracing_ns_per_op
            state.trace_aborts += 1
            state.counter = 0.0
            self.stats.trace_aborts += 1
            if state.trace_aborts >= self.costs.max_trace_aborts:
                state.blacklisted = True
            self.interp_entries += 1
            return "interp", cost

        # Profitability gate: every compiled entry pays trace_entry_ns,
        # so a tiny loop (few trips x few body ops) loses to the
        # interpreter on every single invocation, forever.  Declining is
        # strictly better than compiling here, whatever the threshold.
        steady_compiled = (self.costs.trace_entry_ns
                           + loop.trips * trace_ops
                           * self.costs.compiled_ns_per_op)
        steady_interp = (loop.trips * trace_ops
                         * self.costs.interp_ns_per_op)
        if steady_compiled >= steady_interp:
            state.blacklisted = True
            self.stats.compiles_declined += 1
            self.interp_entries += 1
            return "interp", cost

        cost += trace_ops * self.costs.tracing_ns_per_op
        cost += trace_ops * self.costs.compile_ns_per_op
        self._reserve_cache(trace_ops, loop.loop_id)
        state.compiled = True
        state.trace_ops = trace_ops
        state.last_use_tick = self._tick
        state.compiles += 1
        self._touch(loop.loop_id)
        self.stats.loops_compiled += 1
        # The iteration that triggered compilation still runs compiled.
        state.compiled_entries += 1
        return "compiled", cost + self.costs.trace_entry_ns

    def run_guards(self, loop: Loop, trips: int) -> float:
        """Account guard behaviour for ``trips`` compiled iterations."""
        state = self.loop_state(loop.loop_id)
        cost = 0.0
        for index, guard in enumerate(loop.guards):
            failures = trips // guard.every
            if not failures:
                continue
            self.stats.guard_failures += failures
            gstate = state.guards.setdefault(index, GuardState())
            if not gstate.bridged:
                remaining = self.params.trace_eagerness - gstate.failures
                expensive = min(failures, max(remaining, 0))
                cost += expensive * (
                    self.costs.guard_fail_ns
                    + guard.side_ops * self.costs.interp_ns_per_op
                )
                gstate.failures += failures
                if gstate.failures >= self.params.trace_eagerness:
                    cost += (guard.side_ops
                             * self.costs.compile_ns_per_op)
                    gstate.bridged = True
                    self.stats.bridges_compiled += 1
                failures -= expensive
            cost += failures * (
                guard.side_ops * self.costs.compiled_ns_per_op
            )
        return cost

    def interp_guard_cost(self, loop: Loop, trips: int) -> float:
        """Guard side paths under interpretation (no failures, just ops)."""
        cost = 0.0
        for guard in loop.guards:
            cost += (trips // guard.every) * (
                guard.side_ops * self.costs.interp_ns_per_op
            )
        return cost

    def enter_call(self, function: Function) -> tuple[str, float]:
        """Called per function invocation; returns (mode, upfront_ns)."""
        state = self.function_state(function.name)
        state.calls += 1
        self.total_calls += 1
        if state.compiled:
            return "compiled", self.costs.call_compiled_ns
        self.interp_entries += 1
        if state.calls >= self.params.function_threshold:
            state.compiled = True
            self.stats.functions_compiled += 1
            cost = function.body_ops * (
                self.costs.tracing_ns_per_op
                + self.costs.compile_ns_per_op
            )
            return "compiled", cost + self.costs.call_compiled_ns
        return "interp", self.costs.call_interp_ns
