"""The paper's figures, each run once through the experiment runner.

For every figure the ``--quick`` grid runs once; on its rows:

* the rendered text must equal ``tests/bench/golden/<fig>_quick.txt``
  byte for byte (a change that means to move a figure re-pins its
  golden in the same commit and says why);
* the rows must keep the shape the paper claims;
* the grid's last cell, run alone, must return the row it returns
  inside the grid (cells are independent units).

Run with ``PYTHONPATH=src python -m pytest benchmarks -q`` (about a
minute; the CI ``figures-golden`` job).
"""

from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.runner import parse, rows

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "bench" / "golden"

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")


@pytest.fixture(scope="module")
def quick():
    """name -> (parsed flags, rows) of the figure's ``--quick`` grid,
    computed once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            experiment = EXPERIMENTS[name]
            args = parse(experiment, ["--quick"])
            cache[name] = args, rows(experiment, args)
        return cache[name]

    return get


@pytest.mark.parametrize("name", FIGURES)
def test_quick_output_matches_golden(name, quick):
    args, results = quick(name)
    printed = EXPERIMENTS[name].render(results, args) + "\n"
    assert printed == (GOLDEN / f"{name}_quick.txt").read_text()


@pytest.mark.parametrize("name", FIGURES)
def test_last_quick_cell_alone_returns_its_grid_row(name, quick):
    experiment = EXPERIMENTS[name]
    args, results = quick(name)
    alone = experiment.cell(experiment.grid(args)[-1], None, None)
    assert alone == results[-1]


def test_fig2_shape(quick):
    _args, results = quick("fig2")
    by_key = {(r.workload, r.threads): r
              for cell_rows, _reports in results for r in cell_rows}
    # Elision-friendly workloads win big at 16 threads.
    for workload in ("genome", "ssca2", "vacation-low", "kmeans-high"):
        row = by_key[(workload, 16)]
        assert row.pss_improvement > 0.15, workload
        assert row.htmbench_improvement > 0.15, workload
    # Labyrinth's long transactions never elide: no benefit, no loss.
    for (workload, _threads), row in by_key.items():
        if workload == "labyrinth":
            assert abs(row.pss_improvement) < 0.06
            assert abs(row.htmbench_improvement) < 0.06
    # Consulting the service costs little where there is nothing to win.
    for (workload, threads), row in by_key.items():
        if threads == 1:
            assert row.pss_improvement > -0.08, workload


def test_fig3_shape(quick):
    _args, comparisons = quick("fig3")
    improvements = sorted(c.improvement for c in comparisons)
    assert len(comparisons) == 30
    # Paper: +15.38 % on average at 20 iterations ...
    assert 0.05 < sum(improvements) / len(improvements) < 0.30
    # ... "the largest improvement is over 120%" ...
    assert improvements[-1] > 1.0
    # ... and "the largest slowdown is only around 6%".
    assert improvements[0] > -0.25


def test_fig4_shape(quick):
    _args, comparisons = quick("fig4")
    improvements = [c.improvement for c in comparisons]
    # Paper: +11.11 % on average at 50 iterations, and "the improvement
    # is still significantly larger than the slowdown".
    assert 0.03 < sum(improvements) / len(improvements) < 0.30
    gains = sum(x for x in improvements if x > 0)
    losses = -sum(x for x in improvements if x < 0)
    assert gains > 3 * losses


def test_fig5_shape(quick):
    _args, comparisons = quick("fig5")
    by_name = {c.benchmark: c for c in comparisons}
    # Paper: aiohttp +22.17 %, gunicorn +18.66 %, djangocms +2.54 %.
    assert by_name["aiohttp"].pss_improvement > 0.08
    assert by_name["gunicorn"].pss_improvement > 0.05
    assert abs(by_name["djangocms"].pss_improvement) < 0.10
    # Section 5.2.4: the vDSO beats the syscall transport everywhere,
    # and the syscall variant slows aiohttp below its baseline.
    for name, comparison in by_name.items():
        assert comparison.syscall_improvement < \
            comparison.pss_improvement + 0.02, name
    assert by_name["aiohttp"].syscall_improvement < 0.02


def test_fig6_shape(quick):
    _args, results = quick("fig6")
    columns = [column for column, _reports in results]
    bars = [bar for c in columns for bar in c.pss_run_improvements]
    # Paper: 33 % average latency reduction; the direction reproduces.
    assert sum(bars) / len(bars) > 0.0
    # "PSS can outperform the baseline implementation now merged into
    # the kernel": the best PSS run beats Gorman on the pressured
    # columns.
    pressured = [c for c in columns if c.workers >= 21]
    wins = sum(1 for c in pressured
               if max(c.pss_run_improvements) > c.gorman_improvement)
    assert wins >= len(pressured) - 1
