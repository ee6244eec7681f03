"""PSS-guided JIT parameter tuning (paper Listing 2 / Section 4.3).

After each benchmark iteration the tuner feeds rounded PAPI counters to
the prediction service; a positive prediction moves the JIT parameters one
step up the aggressiveness ladder (compile sooner, allow bigger traces),
a negative one moves them down.  Feedback compares the iteration's time
against the previous iteration: faster rewards the decision, slower
penalizes it.

Transport matters here (paper Section 5.2.4): with the vDSO transport,
consulting the service is ~4 ns; with raw syscalls every consultation
costs the 68 ns boundary crossing *plus* the indirect cost of the mode
switch on the application (pipeline drain and cache/TLB pollution - the
FlexSC-style "syscall footprint"), which is why the paper's PSS-syscall
configuration loses on latency-sensitive workloads.  The tuner also lets
the JIT consult the service at each compilation decision (hot-loop checks)
when ``consult_per_decision`` is set, which is the configuration used for
the latency-sensitive macrobenchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import PredictionService, PSSConfig
from repro.core.client import PSSClient
from repro.jit.interp import VM
from repro.jit.params import DEFAULT_LADDER_INDEX, JitParams, LADDER

#: indirect application-side cost of one syscall beyond its direct
#: latency: pipeline drain plus icache/dcache/TLB pollution (the "syscall
#: footprint" measured by FlexSC, OSDI'10: thousands of cycles of reduced
#: user-mode IPC after returning)
SYSCALL_FOOTPRINT_NS = 1500.0

#: the vDSO read has no mode switch; only its direct latency applies
VDSO_FOOTPRINT_NS = 0.0


@dataclass
class IterationRecord:
    """One benchmark iteration as reported by a runner."""

    index: int
    duration_ns: float
    ladder_index: int
    cumulative_ns: float


@dataclass
class TunerReport:
    """Everything a tuning session produced."""

    program: str
    policy: str
    iterations: list[IterationRecord] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        return sum(r.duration_ns for r in self.iterations)

    def series_seconds(self) -> list[float]:
        """Cumulative time in seconds per iteration (Figure 5 y-axis)."""
        return [r.cumulative_ns / 1e9 for r in self.iterations]


class BaselineRunner:
    """Default JIT parameters, never consulted, never changed."""

    policy = "baseline"

    def __init__(self, vm: VM | None = None) -> None:
        self.vm = vm or VM(JitParams())

    def run(self, program, iterations: int) -> TunerReport:
        """Run ``iterations`` iterations; ``program`` may be a Program or
        a callable ``iteration -> Program`` for churning workloads."""
        factory = program if callable(program) else (lambda _i: program)
        report = TunerReport(program=factory(0).name, policy=self.policy)
        cumulative = 0.0
        for index in range(iterations):
            duration = self.vm.run_program(factory(index))
            self.vm.counters.snapshot_and_reset()
            cumulative += duration
            report.iterations.append(IterationRecord(
                index, duration, DEFAULT_LADDER_INDEX, cumulative
            ))
        return report


class PSSTuner:
    """Listing 2: predict -> set parameters -> run -> update."""

    #: smoothing factor of the duration baseline
    EMA_ALPHA = 0.05
    #: relative change below which feedback is withheld (noise floor)
    DEAD_ZONE = 0.01
    #: spikes beyond this factor feed feedback but not the EMA - letting
    #: them in would make every following normal iteration look like an
    #: improvement and reward whatever direction happened to be active
    OUTLIER = 1.08
    #: iterations without any feedback before an exploration excursion
    EXPLORE_AFTER = 50
    #: iterations to *stay* at the explored ladder end - parameter changes
    #: pay off with a delay (counters must re-cross thresholds), so a
    #: drive-by visit would never observe the benefit
    EXPLORE_DWELL = 30

    def __init__(self, service: PredictionService | None = None,
                 domain: str = "pypy-jit",
                 transport: str = "vdso",
                 vm: VM | None = None,
                 consult_per_decision: bool = False,
                 batch_size: int = 1,
                 fault_plan=None,
                 resilience=None,
                 identity=None) -> None:
        self.service = service or PredictionService()
        self.client: PSSClient = self.service.connect(
            domain,
            identity=identity,
            config=PSSConfig(num_features=4, weight_bits=6,
                             training_margin=6),
            transport=transport,
            batch_size=batch_size,
            resilience=resilience,
            # The degraded decision is "hold position": the run loop
            # checks last_prediction_was_fallback and skips the ladder
            # move entirely, so the fallback score itself is unused.
            fallback=0,
            fault_plan=fault_plan,
        )
        self.vm = vm or VM(LADDER[DEFAULT_LADDER_INDEX])
        self.ladder_index = DEFAULT_LADDER_INDEX
        self.consult_per_decision = consult_per_decision
        # Exploration state: when the dead zone starves the predictor of
        # feedback (a flat plateau), walk to one ladder end so a distant
        # optimum can be discovered; alternate ends between excursions.
        self._quiet_iterations = 0
        self._excursion_steps = 0
        self._explore_up = True
        self._footprint_ns = (SYSCALL_FOOTPRINT_NS
                              if transport == "syscall"
                              else VDSO_FOOTPRINT_NS)

    @property
    def policy(self) -> str:
        return f"pss-{self.client.transport_name}"

    def _consult_overhead_ns(self, decisions: int) -> float:
        """Application-side time spent consulting the service."""
        latency = self.client.latency_model
        if self.client.transport_name == "syscall":
            per_call = latency.syscall_ns + self._footprint_ns
        else:
            per_call = latency.vdso_predict_ns
        return decisions * per_call

    def run(self, program, iterations: int) -> TunerReport:
        """Run the Listing 2 loop; ``program`` may be a Program or a
        callable ``iteration -> Program`` for churning workloads."""
        factory = program if callable(program) else (lambda _i: program)
        report = TunerReport(program=factory(0).name, policy=self.policy)
        ema: float | None = None
        previous_features: list[int] | None = None
        previous_direction_up: bool | None = None
        cumulative = 0.0

        for index in range(iterations):
            # The ladder position joins the rounded PAPI counters as a
            # feature: "should I get more aggressive" depends on where
            # the parameters already are.
            features = [self.ladder_index] + \
                self.vm.counters.feature_vector()
            decision_up = self.client.predict_bool(features)
            # Degraded service: the JIT's static fallback is "no move" -
            # current parameters are known-good, so hold the ladder
            # position until predictions come back.
            degraded = self.client.last_prediction_was_fallback
            overhead_calls = 1  # the Listing 2 per-iteration predict

            # Plateau exploration: with no feedback for a while, force a
            # walk to one end of the ladder so its effect gets measured.
            if degraded:
                pass
            elif self._excursion_steps > 0:
                decision_up = self._explore_up
                self._excursion_steps -= 1
            elif self._quiet_iterations >= self.EXPLORE_AFTER:
                self._excursion_steps = (len(LADDER) - 1
                                         + self.EXPLORE_DWELL)
                self._explore_up = not self._explore_up
                decision_up = self._explore_up
                self._quiet_iterations = 0

            # Move one step along the aggressiveness ladder.
            if degraded:
                pass
            elif decision_up:
                self.ladder_index = min(self.ladder_index + 1,
                                        len(LADDER) - 1)
            else:
                self.ladder_index = max(self.ladder_index - 1, 0)
            self.vm.set_params(LADDER[self.ladder_index])

            interp_before = self.vm.jit.interp_entries
            stats = self.vm.jit.stats
            aborts_before = stats.trace_aborts

            duration = self.vm.run_program(factory(index))
            self.vm.counters.snapshot_and_reset()
            # Trace-abort iterations are poisoned samples: the recording
            # cost is a one-off (the loop gets blacklisted) yet lands as
            # a spike exactly when the tuner tries a bigger trace budget,
            # teaching exactly the wrong lesson.  Ordinary compilation
            # cost stays in the signal - paying it repeatedly *is* the
            # regime cost the tuner must perceive (e.g. longevity churn).
            compile_transient = stats.trace_aborts != aborts_before

            if self.consult_per_decision:
                # Latency-sensitive mode: the runtime consults the
                # service at every *interpreter-path* loop entry and call
                # site (each hot-check asks "worth compiling now?"), so
                # un-jitted churny code keeps paying transport latency -
                # which is where the syscall configuration loses.
                decisions = (self.vm.jit.interp_entries
                             - interp_before)
                overhead_calls += decisions
            duration += self._consult_overhead_ns(overhead_calls)

            # Listing 2 feedback: did the new parameters speed us up?
            # Iteration times are noisy (workload churn), so instead of
            # the raw previous iteration we compare against a smoothed
            # baseline and ignore changes inside a small dead zone.
            # Iterations that paid one-off tracing/compilation costs are
            # warmup transients: their duration reflects the *investment*,
            # not the regime, so they neither train nor update the EMA.
            if compile_transient:
                report.iterations.append(IterationRecord(
                    index, duration, self.ladder_index,
                    cumulative + duration,
                ))
                cumulative += duration
                if degraded:
                    previous_features = None
                    previous_direction_up = None
                else:
                    previous_features = features
                    previous_direction_up = decision_up
                continue

            if ema is not None and previous_features is not None:
                if duration < ema * (1.0 - self.DEAD_ZONE):
                    self.client.update(previous_features,
                                       direction=previous_direction_up)
                    self._quiet_iterations = 0
                elif duration > ema * (1.0 + self.DEAD_ZONE):
                    self.client.update(
                        previous_features,
                        direction=not previous_direction_up,
                    )
                    self._quiet_iterations = 0
                else:
                    self._quiet_iterations += 1
            if ema is None:
                ema = duration
            elif duration <= ema * self.OUTLIER:
                ema = (1 - self.EMA_ALPHA) * ema \
                    + self.EMA_ALPHA * duration

            if degraded:
                # A held position trains nothing: the decision was not
                # the predictor's, so the next iteration's time says
                # nothing about its weights.
                previous_features = None
                previous_direction_up = None
            else:
                previous_features = features
                previous_direction_up = decision_up

            cumulative += duration
            report.iterations.append(IterationRecord(
                index, duration, self.ladder_index, cumulative
            ))

        self.client.flush()
        return report
