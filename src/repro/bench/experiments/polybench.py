"""Figures 3 and 4: PSS improvement on PolyBenchPython, first 20 / 50
iterations.

Both figures share one cell - one kernel, baseline vs PSS on fresh
processes and a fresh service - and differ only in the iteration count.
"""

from __future__ import annotations

import math

from repro.bench.runner import Experiment
from repro.bench.tables import format_table, pct
from repro.core import PredictionService
from repro.jit.polybench import KERNELS
from repro.jit.runner import run_polybench_kernel


def cell(spec, tracer, metrics):
    """One kernel's KernelComparison at ``iterations``."""
    name, iterations = spec
    return run_polybench_kernel(
        KERNELS[name], iterations,
        service=PredictionService(tracer=tracer, metrics=metrics))


def polybench(figure: int, iterations: int, paper_avg: str) -> Experiment:
    title = f"Figure {figure}: PolyBenchPython"

    def grid(args) -> list[tuple]:
        return [(kernel, iterations) for kernel in KERNELS]

    def render(comparisons, args) -> str:
        improvements = [c.improvement for c in comparisons]
        geomean = math.expm1(
            sum(math.log1p(x) for x in improvements) / len(improvements))
        return "\n".join([
            f"{title}, first {iterations} iterations",
            format_table(
                ["kernel", "baseline (ms)", "PSS (ms)", "improvement"],
                [[c.kernel, f"{c.baseline_ns / 1e6:.2f}",
                  f"{c.pss_ns / 1e6:.2f}", pct(c.improvement)]
                 for c in sorted(comparisons, key=lambda c: -c.improvement)],
            ),
            "",
            f"average improvement: "
            f"{pct(sum(improvements) / len(improvements))} "
            f"(paper: {paper_avg})",
            f"geomean improvement: {pct(geomean)}",
        ])

    return Experiment(f"fig{figure}", f"{title}, {iterations} iterations",
                      grid, cell, render)


FIG3 = polybench(3, 20, "+15.38%")
FIG4 = polybench(4, 50, "+11.11%")
