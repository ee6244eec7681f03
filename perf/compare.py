"""Compare two sets of result files, metric by metric.

    python3 perf/compare.py --base A1.json A2.json ... --new B1.json ...

For every workload x end-to-end metric this prints each side's median
and quartiles and a verdict against the metric's bound (metrics.py):

* ``REGRESSION`` - the new median is worse than the base median by more
  than the bound;
* ``unresolved`` - it is not, but one side's own spread (quartile
  distance over median) is wider than the bound, so "no change" cannot
  be claimed - unless every new run reads better than every base run;
* ``ok`` - within the bound, and the spread is narrow enough to say so.

Runs of one seed are additionally compared *exactly* on everything that
is simulated or counted (``sim_*``, the requests sent / ok / shed /
failed, the score and input digests): a host-speed change must leave those bit-identical.  The exit
code is non-zero on any REGRESSION or exact difference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Iterator

import metrics as declared

#: same seed => must be identical on both sides
EXACT = ("sim_ns_per_op", "sim_p50_ns", "sim_p99_ns",
         "sim_slo_rate_per_us")


def untraced_runs(paths: list[Path]) -> Iterator[tuple[int, dict[str, Any]]]:
    """(seed, run) for every end-to-end run in the given files."""
    for path in paths:
        document = json.loads(path.read_text())
        for entry in document["trajectory"]:
            for run in entry["runs"]:
                if not run["trace"]:
                    yield entry["seed"], run


def collect(paths: list[Path]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run."""
    table: dict[str, dict[str, list[float]]] = {}
    for _seed, run in untraced_runs(paths):
        by_metric = table.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            by_metric.setdefault(name, []).append(entry["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    first, _second, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: list[float]) -> float:
    first, median, third = quartiles(values)
    return (third - first) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, worsening as a share of the base median)."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worsening = (sign * (new_median - base_median) / abs(base_median)
                 if base_median else 0.0)
    if worsening > bound:
        return "REGRESSION", worsening
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", worsening
    return "ok", worsening


def exact_differences(base: list[Path], new: list[Path]) -> list[str]:
    """Differences in seed-determined values between runs of one seed."""
    def keyed(paths: list[Path]) -> dict[tuple[int, str], dict[str, Any]]:
        table: dict[tuple[int, str], dict[str, Any]] = {}
        for seed, run in untraced_runs(paths):
            values = {name: run["metrics"][name]["value"]
                      for name in EXACT}
            values["score_digest"] = run["score_digest"]
            values["input_digest"] = run["input_digest"]
            values["requests"] = run["requests"]
            previous = table.setdefault((seed, run["workload"]), values)
            if previous != values:
                table[(seed, run["workload"])] = {"<unstable>": True}
        return table

    left, right = keyed(base), keyed(new)
    problems = []
    for key in sorted(set(left) & set(right)):
        if left[key] != right[key]:
            differing = sorted(
                name for name in set(left[key]) | set(right[key])
                if left[key].get(name) != right[key].get(name))
            problems.append(f"seed {key[0]} {key[1]}: "
                            f"{', '.join(differing)} differ")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = collect(args.base), collect(args.new)
    bad = False
    for workload in sorted(set(base) & set(new)):
        print(f"\n== {workload} ==")
        print(f"  {'metric':<22}{'base q1/median/q3':>38}"
              f"{'new q1/median/q3':>38}  {'worse by':>9}  bound  verdict")
        for name, _unit, better, bound in declared.END_TO_END:
            old_values = base[workload][name]
            new_values = new[workload][name]
            what, worsening = verdict(old_values, new_values, better,
                                      bound)
            bad |= what == "REGRESSION"
            cells = ["/".join(f"{value:.6g}" for value in quartiles(v))
                     for v in (old_values, new_values)]
            print(f"  {name:<22}{cells[0]:>38}{cells[1]:>38}  "
                  f"{worsening:>+9.2%}  {bound:>5.0%}  {what}"
                  f"  (n={len(old_values)}/{len(new_values)})")
    differences = exact_differences(args.base, args.new)
    print("\n== seed-determined values, runs of one seed ==")
    for line in differences or ["  identical"]:
        print(f"  {line}" if differences else line)
    return 1 if bad or differences else 0


if __name__ == "__main__":
    sys.exit(main())
