"""A cell is a unit: run alone, the last cell of an experiment's
``--quick`` grid returns the row it returns inside the grid.

This is the independence the runner's serial loop assumes and a
fan-out over cells would rely on.  The experiments cheap enough for
tier-1 are checked here; the figures are checked by
``benchmarks/test_paper.py`` on the same rows it compares with their
goldens.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.runner import parse, rows


@pytest.mark.parametrize("name", ["latency", "tenants", "chaos", "serve"])
def test_last_quick_cell_alone_returns_its_grid_row(name):
    experiment = EXPERIMENTS[name]
    args = parse(experiment, ["--quick"])
    inside = rows(experiment, args)[-1]
    alone = experiment.cell(experiment.grid(args)[-1], None, None)
    assert alone == inside
