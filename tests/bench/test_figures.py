"""Tests for the ASCII figure rendering and the CLI."""

from pathlib import Path

import pytest

from repro.bench.figures import BAR_WIDTH, bar_chart

GOLDEN = Path(__file__).parent / "golden"


class TestBarChart:
    def test_longest_value_gets_full_width(self):
        text = bar_chart(["a", "b"], [1.0, 0.5])
        bars = [line.split()[-1] for line in text.splitlines()]
        assert bars[0] == "+" * BAR_WIDTH
        assert bars[1] == "+" * (BAR_WIDTH // 2)

    def test_negative_values_use_minus_bars(self):
        text = bar_chart(["x"], [-0.4])
        assert "-" * 5 in text
        assert "+" not in text.split()[-1]

    def test_zero_series(self):
        text = bar_chart(["x"], [0.0])
        assert "x" in text

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert bar_chart([], []) == "<empty>"

    def test_custom_format(self):
        text = bar_chart(["a"], [3.0], fmt=lambda v: f"{v:.0f}ms")
        assert "3ms" in text


class TestCli:
    def test_models_command(self, capsys):
        from repro.__main__ import main

        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "perceptron" in out

    def test_unknown_command_lists_experiments(self, capsys):
        from repro.__main__ import main

        assert main(["figure99"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'figure99'" in err
        for name in ("fig2", "fig6", "latency"):
            assert name in err
        # `check` is no command: unknown like any other
        assert main(["check"]) == 2
        assert "unknown command 'check'" in capsys.readouterr().err

    def test_no_command_lists_experiments(self, capsys):
        from repro.__main__ import main

        assert main([]) == 2
        out = capsys.readouterr().out
        assert "experiments:" in out
        assert "Figure 2" in out
        assert "--trace" in out
        assert "  check" not in out

    def test_observability_flags_accepted(self, capsys, tmp_path):
        from repro.__main__ import main

        trace = tmp_path / "t.json"
        assert main(["latency", "--trace", str(trace),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert trace.exists()
        assert "metrics snapshot" in out

    def test_experiment_registry_covers_all_figures(self):
        from repro.__main__ import EXPERIMENTS

        assert set(EXPERIMENTS) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "latency",
            "tenants", "serve", "chaos",
        }

    def test_a_flag_is_honoured_or_refused(self, capsys):
        """A flag no experiment reads is an argparse error, not a no-op."""
        from repro.__main__ import main

        for argv in (["latency", "--seed", "3"], ["fig2", "--chaos"]):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_tenants_quick_prints_its_golden(self, capsys):
        """argv -> runner -> print, byte for byte."""
        from repro.__main__ import main

        assert main(["tenants", "--quick"]) == 0
        assert capsys.readouterr().out == \
            (GOLDEN / "tenants_quick.txt").read_text()
