"""Figure 6: stutterp average-latency improvement over the vanilla kernel.

For every mmap-N worker count, regenerates the Gorman-patch bar and the
four successive PSS-run bars (the service persists across the four runs).

Run with ``python -m repro.bench.experiments.fig6``; ``--quick`` reduces
the sweep.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.bench.figures import bar_chart
from repro.bench.tables import (
    fastpath_table,
    format_table,
    pct,
    resilience_table,
)
from repro.core import PredictionService
from repro.mm import FIGURE6_WORKERS, Figure6Column, compare_throttles
from repro.obs import obs_from_args


@dataclass
class Figure6Result:
    columns: list[Figure6Column] = field(default_factory=list)
    #: per-worker-count (label, DomainReport) pairs for --report output
    domain_reports: list = field(default_factory=list)

    @property
    def average_pss_improvement(self) -> float:
        """Mean over all PSS bars - the paper's '33% average latency
        reduction' headline."""
        bars = [
            bar for col in self.columns
            for bar in col.pss_run_improvements
        ]
        return sum(bars) / len(bars) if bars else 0.0


def run_figure6(workers=FIGURE6_WORKERS, seed: int = 0,
                pss_runs: int = 4,
                duration_ns: float | None = None,
                tracer=None,
                metrics=None) -> Figure6Result:
    result = Figure6Result()
    for count in workers:
        kwargs = {} if duration_ns is None else \
            {"duration_ns": duration_ns}
        # One service per column, as compare_throttles would create
        # internally - owned here so --report can read its domains.
        service = PredictionService(tracer=tracer, metrics=metrics)
        result.columns.append(
            compare_throttles(count, seed=seed, pss_runs=pss_runs,
                              service=service, **kwargs)
        )
        result.domain_reports.extend(
            (f"mmap-{count}", report) for report in service.reports()
        )
    return result


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    session = obs_from_args(args)
    quick = "--quick" in args
    result = run_figure6(
        workers=(4, 12, 30, 64) if quick else FIGURE6_WORKERS,
        duration_ns=150_000_000.0 if quick else None,
        tracer=session.tracer if session.tracer.enabled else None,
        metrics=session.metrics,
    )
    print("Figure 6: stutterp latency improvement over vanilla")
    print(format_table(
        ["workers", "vanilla (us)", "gorman", "PSS r1", "PSS r2",
         "PSS r3", "PSS r4"],
        [
            [f"mmap-{c.workers}", f"{c.vanilla_latency_ns / 1e3:.0f}",
             pct(c.gorman_improvement)]
            + [pct(x) for x in c.pss_run_improvements]
            for c in result.columns
        ],
    ))
    print("\nbest PSS run per worker count:")
    print(bar_chart(
        [f"mmap-{c.workers}" for c in result.columns],
        [max(c.pss_run_improvements) for c in result.columns],
    ))
    print(f"\naverage PSS latency improvement: "
          f"{pct(result.average_pss_improvement)} (paper: +33%)")
    if "--report" in args:
        print()
        print("fast-path effectiveness (per worker count):")
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
