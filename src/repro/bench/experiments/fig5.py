"""Figure 5: macrobenchmark cumulative-time series.

For each of the four macrobenchmarks, regenerates the three series the
paper plots - baseline, PSS (vDSO) and PSS-syscall - as cumulative
seconds per iteration, plus the end-to-end improvements.  A cell is one
macrobenchmark; ``--quick`` runs a fifth of the paper's iterations.
"""

from __future__ import annotations

from repro.bench.runner import Experiment
from repro.bench.tables import format_table, pct, series_summary
from repro.jit.macro import MACROBENCHMARKS
from repro.jit.runner import run_macro_benchmark


def grid(args) -> list[tuple]:
    scale = 0.2 if args.quick else 1.0
    return [(name, max(50, int(iterations * scale)))
            for name, (_factory, iterations) in MACROBENCHMARKS.items()]


def cell(spec, tracer, metrics):
    """One benchmark's MacroComparison."""
    name, iterations = spec
    return run_macro_benchmark(MACROBENCHMARKS[name][0], iterations,
                               tracer=tracer, metrics=metrics)


def render(comparisons, args) -> str:
    average = sum(c.pss_improvement for c in comparisons) / len(comparisons)
    lines = [
        "Figure 5: macrobenchmarks (cumulative seconds; improvements "
        "vs baseline)",
        format_table(
            ["benchmark", "iters", "PSS", "PSS-syscall"],
            [[c.benchmark, len(c.baseline.iterations),
              pct(c.pss_improvement), pct(c.syscall_improvement)]
             for c in comparisons],
        ),
        f"\naverage PSS improvement: {pct(average)} (paper: +12% avg)",
    ]
    for c in comparisons:
        lines += [
            f"\n{c.benchmark} cumulative-seconds series:",
            f"  baseline    {series_summary(c.baseline.series_seconds())}",
            f"  PSS         {series_summary(c.pss.series_seconds())}",
            f"  PSS-syscall {series_summary(c.pss_syscall.series_seconds())}",
        ]
    return "\n".join(lines)


FIG5 = Experiment("fig5", "Figure 5: macrobenchmarks", grid, cell, render)
