"""Figure 2: HTMBench and PSS lock elision normalised to vanilla STAMP.

Regenerates the nine subfigures' bars: for each STAMP workload and thread
count in {1, 2, 4, 8, 16}, the improvement of the HTMBench-like profiled
configuration and of PSS over the lock-based baseline.

A cell is one whole workload, not one bar: a single PSS service persists
across all thread counts of a workload (the paper's system-service
training persistence), so a bar depends on the bars before it.
"""

from __future__ import annotations

from repro.bench.figures import bar_chart
from repro.bench.runner import REPORT, Experiment
from repro.bench.tables import fastpath_table, format_table, pct
from repro.core import PredictionService
from repro.htm import compare_policies
from repro.htm.stamp import FIGURE2_ORDER, PROFILES

THREAD_COUNTS = (1, 2, 4, 8, 16)


def grid(args) -> list[tuple]:
    threads, seeds = ((1, 4, 16), (0,)) if args.quick \
        else (THREAD_COUNTS, (0, 1, 2))
    return [(name, threads, seeds) for name in FIGURE2_ORDER]


def cell(spec, tracer, metrics) -> tuple[list, list]:
    """One workload's ComparisonRows and its (label, DomainReport)s."""
    name, threads, seeds = spec
    service = PredictionService(tracer=tracer, metrics=metrics)
    rows = [compare_policies(PROFILES[name], count, seeds=seeds,
                             service=service)
            for count in threads]
    return rows, [(name, report) for report in service.reports()]


def render(results, args) -> str:
    rows = [row for cell_rows, _reports in results for row in cell_rows]
    top_threads = max(r.threads for r in rows)
    top = [r for r in rows if r.threads == top_threads]
    lines = [
        "Figure 2: HLE improvement over vanilla STAMP",
        format_table(
            ["workload", "threads", "HTMBench", "PSS"],
            [[r.workload, r.threads, pct(r.htmbench_improvement),
              pct(r.pss_improvement)] for r in rows],
        ),
        "",
        f"PSS bars at {top_threads} threads:",
        bar_chart([r.workload for r in top],
                  [r.pss_improvement for r in top]),
        "",
        # the paper's 'HLE +34% on average': the mean bar height
        f"average PSS improvement:      "
        f"{pct(sum(r.pss_improvement for r in rows) / len(rows))} "
        f"(paper: +34%)",
        f"average HTMBench improvement: "
        f"{pct(sum(r.htmbench_improvement for r in rows) / len(rows))}",
    ]
    if args.report:
        lines += ["", "fast-path effectiveness (per workload):",
                  fastpath_table(report for _rows, reports in results
                                 for report in reports)]
    return "\n".join(lines)


FIG2 = Experiment("fig2", "Figure 2: hardware lock elision on STAMP",
                  grid, cell, render, flags=(REPORT,))
