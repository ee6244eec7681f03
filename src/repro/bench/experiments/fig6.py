"""Figure 6: stutterp average-latency improvement over the vanilla kernel.

For every mmap-N worker count, regenerates the Gorman-patch bar and the
four successive PSS-run bars.  A cell is one column: its four PSS runs
share one service (later runs start from trained weights), and no
column shares anything with another.
"""

from __future__ import annotations

from repro.bench.figures import bar_chart
from repro.bench.runner import REPORT, Experiment
from repro.bench.tables import fastpath_table, format_table, pct
from repro.core import PredictionService
from repro.mm import FIGURE6_WORKERS, compare_throttles


def grid(args) -> list[tuple]:
    if args.quick:
        return [(count, 150_000_000.0) for count in (4, 12, 30, 64)]
    return [(count, None) for count in FIGURE6_WORKERS]


def cell(spec, tracer, metrics) -> tuple:
    """One Figure6Column and its (label, DomainReport)s."""
    count, duration_ns = spec
    kwargs = {} if duration_ns is None else {"duration_ns": duration_ns}
    service = PredictionService(tracer=tracer, metrics=metrics)
    column = compare_throttles(count, seed=0, pss_runs=4, service=service,
                               **kwargs)
    return column, [(f"mmap-{count}", report)
                    for report in service.reports()]


def render(results, args) -> str:
    columns = [column for column, _reports in results]
    # the paper's '33% average latency reduction': the mean over all
    # PSS bars
    bars = [bar for c in columns for bar in c.pss_run_improvements]
    lines = [
        "Figure 6: stutterp latency improvement over vanilla",
        format_table(
            ["workers", "vanilla (us)", "gorman", "PSS r1", "PSS r2",
             "PSS r3", "PSS r4"],
            [[f"mmap-{c.workers}", f"{c.vanilla_latency_ns / 1e3:.0f}",
              pct(c.gorman_improvement)]
             + [pct(x) for x in c.pss_run_improvements]
             for c in columns],
        ),
        "\nbest PSS run per worker count:",
        bar_chart([f"mmap-{c.workers}" for c in columns],
                  [max(c.pss_run_improvements) for c in columns]),
        f"\naverage PSS latency improvement: "
        f"{pct(sum(bars) / len(bars))} (paper: +33%)",
    ]
    if args.report:
        lines += ["", "fast-path effectiveness (per worker count):",
                  fastpath_table(report for _column, reports in results
                                 for report in reports)]
    return "\n".join(lines)


FIG6 = Experiment("fig6", "Figure 6: stutterp page reclaim",
                  grid, cell, render, flags=(REPORT,))
