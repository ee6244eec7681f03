"""Figure 2: HTMBench and PSS lock elision normalised to vanilla STAMP.

Regenerates the nine subfigures' bars: for each STAMP workload and thread
count in {1, 2, 4, 8, 16}, the improvement of the HTMBench-like profiled
configuration and of PSS over the lock-based baseline.

Run with ``python -m repro.bench.experiments.fig2``; pass ``--quick`` to
sweep a reduced grid.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.core import PredictionService
from repro.htm import ComparisonRow, compare_policies
from repro.htm.stamp import FIGURE2_ORDER, PROFILES
from repro.bench.figures import bar_chart
from repro.bench.tables import (
    fastpath_table,
    format_table,
    pct,
    resilience_table,
)
from repro.obs import obs_from_args

THREAD_COUNTS = (1, 2, 4, 8, 16)


@dataclass
class Figure2Result:
    """All Figure 2 data points plus the paper's headline average."""

    rows: list[ComparisonRow] = field(default_factory=list)
    #: per-workload (label, DomainReport) pairs for --report output
    domain_reports: list = field(default_factory=list)

    @property
    def average_pss_improvement(self) -> float:
        """Mean PSS bar height - the paper's 'HLE +34% on average'."""
        if not self.rows:
            return 0.0
        return sum(r.pss_improvement for r in self.rows) / len(self.rows)

    @property
    def average_htmbench_improvement(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.htmbench_improvement for r in self.rows) \
            / len(self.rows)


def run_figure2(workloads=FIGURE2_ORDER,
                thread_counts=THREAD_COUNTS,
                seeds=(0, 1, 2),
                tracer=None,
                metrics=None) -> Figure2Result:
    """Compute every bar of Figure 2.

    A single PSS service persists across all runs of one workload (the
    paper's system-service training persistence).  ``tracer`` and
    ``metrics`` instrument every workload's service.
    """
    result = Figure2Result()
    for name in workloads:
        service = PredictionService(tracer=tracer, metrics=metrics)
        for threads in thread_counts:
            result.rows.append(compare_policies(
                PROFILES[name], threads, seeds=seeds, service=service,
            ))
        result.domain_reports.extend(
            (name, report) for report in service.reports()
        )
    return result


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    session = obs_from_args(args)
    quick = "--quick" in args
    result = run_figure2(
        thread_counts=(1, 4, 16) if quick else THREAD_COUNTS,
        seeds=(0,) if quick else (0, 1, 2),
        tracer=session.tracer if session.tracer.enabled else None,
        metrics=session.metrics,
    )
    print("Figure 2: HLE improvement over vanilla STAMP")
    print(format_table(
        ["workload", "threads", "HTMBench", "PSS"],
        [
            [r.workload, r.threads, pct(r.htmbench_improvement),
             pct(r.pss_improvement)]
            for r in result.rows
        ],
    ))
    print()
    top_threads = max(r.threads for r in result.rows)
    top = [r for r in result.rows if r.threads == top_threads]
    print(f"PSS bars at {top_threads} threads:")
    print(bar_chart([r.workload for r in top],
                    [r.pss_improvement for r in top]))
    print()
    print(f"average PSS improvement:      "
          f"{pct(result.average_pss_improvement)} (paper: +34%)")
    print(f"average HTMBench improvement: "
          f"{pct(result.average_htmbench_improvement)}")
    if "--report" in args:
        print()
        print("fast-path effectiveness (per workload):")
        print(fastpath_table(result.domain_reports))
        print()
        print("resilience (degraded-mode activity):")
        print(resilience_table(result.domain_reports))
    if session.active:
        summary = session.finish()
        if summary:
            print()
            print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
