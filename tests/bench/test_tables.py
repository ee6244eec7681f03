"""Tests for the bench formatting helpers and experiment drivers."""

from repro.bench.tables import format_table, pct, series_summary


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long-header"],
                            [["xxxxx", 1], ["y", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[:2])
        assert "long-header" in lines[0]

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestPct:
    def test_signs(self):
        assert pct(0.5) == "+50.0%"
        assert pct(-0.125) == "-12.5%"


class TestSeriesSummary:
    def test_short_series_verbatim(self):
        assert series_summary([1.0, 2.0]) == "1 -> 2"

    def test_long_series_downsampled(self):
        summary = series_summary(list(range(100)), points=4)
        assert summary.count("->") == 3
        assert summary.startswith("0")
        assert summary.endswith("99")

    def test_empty(self):
        assert series_summary([]) == "<empty>"


class TestExperimentDrivers:
    """Smoke tests: each experiment's cell runs end to end at tiny scale."""

    def test_fig2_driver(self):
        from argparse import Namespace

        from repro.bench.experiments.fig2 import cell, render

        rows, reports = cell(("ssca2", (2,), (0,)), None, None)
        assert [(r.workload, r.threads) for r in rows] == [("ssca2", 2)]
        assert {label for label, _report in reports} == {"ssca2"}
        text = render([(rows, reports)], Namespace(report=False))
        assert f"average PSS improvement:      " \
               f"{pct(rows[0].pss_improvement)}" in text

    def test_fig3_driver_structure(self):
        from repro.bench.experiments.polybench import cell

        comparisons = [cell((name, 5), None, None)
                       for name in ("gemm", "mvt")]
        assert [c.kernel for c in comparisons] == ["gemm", "mvt"]
        assert {c.iterations for c in comparisons} == {5}

    def test_fig5_driver(self):
        from repro.bench.experiments.fig5 import cell
        from repro.jit.macro import MACROBENCHMARKS

        comparisons = [cell((name, 50), None, None)
                       for name in MACROBENCHMARKS]
        assert [c.benchmark for c in comparisons] == [
            "aiohttp", "djangocms", "flaskblogging", "gunicorn"]

    def test_fig6_driver(self):
        from repro.bench.experiments.fig6 import cell

        column, reports = cell((12, 30_000_000.0), None, None)
        assert column.workers == 12
        assert len(column.pss_run_improvements) == 4
        assert [label for label, _report in reports] == ["mmap-12"]

    def test_latency_driver(self):
        from repro.bench.experiments.latency import run_latency

        result = run_latency(calls=200)
        assert result.simulated_speedup > 16
        assert result.wall_vdso_ns > 0

    def test_every_experiment_is_declared_once(self):
        from repro.bench.experiments import EXPERIMENTS

        for name, experiment in EXPERIMENTS.items():
            assert experiment.name == name
            assert callable(experiment.grid)
            assert callable(experiment.cell)
            assert callable(experiment.render)
