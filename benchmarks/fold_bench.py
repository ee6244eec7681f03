"""Fold ``perf/run.py --out`` files into ``BENCH_trajectory.json``.

    python benchmarks/fold_bench.py --commit SHA --src-tree SHA RESULTS.json...

Every run in the files is a repeat of one program; per (seed, workload,
pass, metric) the append-only trajectory keeps n, median and quartiles,
never a chunk sample.  ``--commit`` is the commit the measured checkout
was at, ``--src-tree`` the ``src/`` tree that ran: ``git rev-parse
SHA:src``, or ``git write-tree --prefix=src/`` for a staged change that
has no commit yet - its entry then carries its parent's ``commit``, a
``src_tree`` that is not the parent's, and belongs to the commit that
added it (docs/PERFORMANCE.md, "Measuring it").
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"
COLUMNS = ["workload", "pass", "metric", "unit", "n", "q1", "median", "q3"]


def fold(paths: list[Path]) -> list[dict]:
    """One entry per seed: how it was run, one row of COLUMNS per metric."""
    samples: dict[int, dict[tuple, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    settings: dict[int, dict] = {}
    for path in paths:
        for entry in json.loads(path.read_text())["trajectory"]:
            how = {key: entry[key] for key in ("seconds", "python", "numpy")}
            if entry["smoke"] or settings.setdefault(entry["seed"],
                                                     how) != how:
                raise SystemExit(f"{path}: smoke run or mixed settings")
            for run in entry["runs"]:
                which = "traced" if run["trace"] else "untraced"
                for name, metric in run["metrics"].items():
                    samples[entry["seed"]][
                        run["workload"], which, name, metric["unit"]
                    ].append(metric["value"])
    entries = []
    for seed, metrics in sorted(samples.items()):
        rows = []
        for key, values in metrics.items():
            quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            rows.append([*key, len(values),
                         *(float(f"{q:.6g}") for q in quartiles)])
        entries.append({"seed": seed, **settings[seed], "rows": rows})
    return entries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--src-tree", required=True)
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args()
    entries = (json.loads(TRAJECTORY.read_text())["trajectory"]
               if TRAJECTORY.exists() else [])
    entries += [{"commit": args.commit, "src_tree": args.src_tree, **entry}
                for entry in fold(args.results)]
    blocks = []  # one metric row per line: an entry greps and diffs by line
    for entry in entries:
        rows = ",\n".join(f"  {json.dumps(row)}" for row in entry.pop("rows"))
        blocks.append(f' {json.dumps(entry)[:-1]}, "rows": [\n{rows}\n ]}}')
    TRAJECTORY.write_text(
        f'{{"schema": 2, "columns": {json.dumps(COLUMNS)}, "trajectory": [\n'
        + ",\n".join(blocks) + "\n]}\n")


if __name__ == "__main__":
    main()
