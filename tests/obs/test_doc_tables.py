"""docs/OBSERVABILITY.md's trace-kind and metric tables are the ones
``docs/generate_tables.py`` prints from the registries, and its
watch-budget table the one it prints from ``BENCH_trajectory.json``.

The generator refuses a registry name without a row and a row naming
something no registry holds, so a kind or metric cannot be added,
renamed or retired without the table changing; this test then fails
until ``docs/generate_tables.py --write`` has been run.  It refuses a
``perf/`` workload whose committed ``obs_overhead_x`` is over its watch
budget the same way, so this test fails while one is.
"""

import importlib.util
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parents[2] / "docs"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location(
        "generate_tables", DOCS / "generate_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_tables_are_the_generated_ones(generator):
    committed = generator.committed(
        (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8"))
    assert committed == generator.tables(), (
        "run: PYTHONPATH=src python docs/generate_tables.py --write")


def test_a_name_without_a_row_is_refused(generator, monkeypatch):
    monkeypatch.setattr(generator, "EVENT_KINDS",
                        generator.EVENT_KINDS | {"vdso.teleport"})
    with pytest.raises(SystemExit, match="'vdso.teleport' has no row"):
        generator.tables()


def test_a_row_for_a_retired_name_is_refused(generator, monkeypatch):
    monkeypatch.setattr(generator, "EVENT_KINDS",
                        generator.EVENT_KINDS - {"request"})
    with pytest.raises(SystemExit, match="unknown event kind 'request'"):
        generator.tables()


def test_a_ratio_over_its_watch_budget_is_refused(generator, monkeypatch):
    monkeypatch.setitem(generator.WATCH_BUDGETS, "sync_churn", 1.0)
    with pytest.raises(SystemExit,
                       match="'sync_churn': obs_overhead_x .* over its "
                             "budget 1.0"):
        generator.tables()
