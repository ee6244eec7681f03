"""Benchmark harness for the JIT scenario (Figures 3, 4, and 5).

Each comparison starts fresh simulated processes (new VM, cold JIT) for
the baseline and for each PSS configuration, runs the same program for a
fixed number of iterations, and reports total times - matching the
paper's "time spent in the first 20 and 50 iterations" methodology for
PolyBench and the cumulative iteration series for the macrobenchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import PredictionService
from repro.jit.interp import VM
from repro.jit.params import JitParams
from repro.jit.tuner import BaselineRunner, PSSTuner, TunerReport


@dataclass
class KernelComparison:
    """One Figure 3/4 bar: PSS improvement on one kernel."""

    kernel: str
    iterations: int
    baseline_ns: float
    pss_ns: float

    @property
    def improvement(self) -> float:
        """Relative improvement of PSS over the default JIT settings."""
        return self.baseline_ns / self.pss_ns - 1.0


def run_polybench_kernel(program_builder, iterations: int,
                         service: PredictionService | None = None,
                         fault_plan=None,
                         resilience=None) -> KernelComparison:
    """Baseline vs PSS-tuned run of one kernel (fresh VMs for each).

    ``fault_plan``/``resilience`` run the tuner on a degradable client:
    the baseline is unaffected (it never consults the service), so the
    comparison isolates what service faults cost the PSS configuration.
    """
    program = program_builder()
    baseline = BaselineRunner(VM(JitParams()))
    baseline_report = baseline.run(program, iterations)

    tuner = PSSTuner(service=service, fault_plan=fault_plan,
                     resilience=resilience)
    pss_report = tuner.run(program_builder(), iterations)

    return KernelComparison(
        kernel=program.name,
        iterations=iterations,
        baseline_ns=baseline_report.total_ns,
        pss_ns=pss_report.total_ns,
    )


@dataclass
class MacroComparison:
    """One Figure 5 subplot: three iteration series for one benchmark."""

    benchmark: str
    baseline: TunerReport
    pss: TunerReport
    pss_syscall: TunerReport

    @property
    def pss_improvement(self) -> float:
        return self.baseline.total_ns / self.pss.total_ns - 1.0

    @property
    def syscall_improvement(self) -> float:
        return self.baseline.total_ns / self.pss_syscall.total_ns - 1.0


def run_macro_benchmark(program_builder, iterations: int,
                        runs: int = 1,
                        tracer=None,
                        metrics=None) -> MacroComparison:
    """Baseline vs PSS(vDSO) vs PSS(syscall), averaged across runs.

    The paper runs each macrobenchmark five times and plots the average
    iteration series; pass ``runs=5`` to match (each run uses fresh
    processes).
    """
    def averaged(reports: list[TunerReport]) -> TunerReport:
        first = reports[0]
        if len(reports) == 1:
            return first
        merged = TunerReport(program=first.program, policy=first.policy)
        count = len(reports)
        for i, record in enumerate(first.iterations):
            merged.iterations.append(type(record)(
                index=record.index,
                duration_ns=sum(
                    r.iterations[i].duration_ns for r in reports
                ) / count,
                ladder_index=record.ladder_index,
                cumulative_ns=sum(
                    r.iterations[i].cumulative_ns for r in reports
                ) / count,
            ))
        return merged

    base_runs, pss_runs, sys_runs = [], [], []
    name = None
    for _ in range(runs):
        workload = program_builder()
        name = workload(0).name if callable(workload) else workload.name
        base_runs.append(
            BaselineRunner(VM(JitParams())).run(workload, iterations)
        )
        pss_runs.append(PSSTuner(
            service=PredictionService(tracer=tracer, metrics=metrics),
            transport="vdso", consult_per_decision=True,
        ).run(program_builder(), iterations))
        sys_runs.append(PSSTuner(
            service=PredictionService(tracer=tracer, metrics=metrics),
            transport="syscall", consult_per_decision=True,
        ).run(program_builder(), iterations))

    return MacroComparison(
        benchmark=name,
        baseline=averaged(base_runs),
        pss=averaged(pss_runs),
        pss_syscall=averaged(sys_runs),
    )
