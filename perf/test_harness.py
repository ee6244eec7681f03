"""Checks on the harness itself.  Not part of tier-1; run explicitly:

    python3 -m pytest perf/test_harness.py -q

The one slow test drives the whole runner in ``--smoke`` mode (every
workload, both passes, a few percent of the work).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(PERF)]

import calibrate  # noqa: E402
import compare  # noqa: E402
import inputs as inp  # noqa: E402
import metrics as declared  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the declaration ----------------------------------------------------------


def test_names_and_units_are_well_formed():
    names = ([name for name, *_ in declared.END_TO_END]
             + [name for name, *_ in declared.PER_LAYER]
             + list(inp.WORKLOADS))
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for _name, unit, *_ in declared.END_TO_END + declared.PER_LAYER:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_declares_exactly_what_the_harness_reports(
        benchmark_json):
    assert sorted(benchmark_json) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads"]
    assert benchmark_json["command"] == ["python3", "perf/run.py"]
    assert benchmark_json["paths"] == ["perf"]
    assert benchmark_json["workloads"] == [
        {"name": w.name, "why": w.why} for w in inp.WORKLOADS.values()]
    assert benchmark_json["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in declared.END_TO_END]
    assert benchmark_json["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in declared.PER_LAYER]


def test_benchmark_json_is_within_the_contract_limits(benchmark_json):
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert 1 <= benchmark_json["run_seconds"] <= 60
    bounds = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in benchmark_json["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(inp.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    workload = inp.WORKLOADS[name]
    first = inp.make_inputs(workload, 7, inp.SMOKE)
    again = inp.make_inputs(workload, 7, inp.SMOKE)
    other = inp.make_inputs(workload, 8, inp.SMOKE)
    assert first.digest == again.digest
    assert first.chunk(0) == again.chunk(0)
    assert first.digest != other.digest


def test_batch_cold_rows_never_repeat():
    rows = inp.make_inputs(inp.WORKLOADS["batch_cold"], 0, inp.SMOKE) \
        .fresh_rows(0, 50_000)
    assert len(set(rows)) == len(rows)


# -- spans and normalisation --------------------------------------------------


def test_self_times_sum_to_the_root_span():
    recorder = spans.SpanRecorder()

    class Layers:
        def leaf(self):
            return sum(range(200))

        def middle(self):
            return self.leaf() + self.leaf()

        def top(self):
            return self.middle() + self.leaf()

    layers = Layers()
    for attr in ("leaf", "middle", "top"):
        recorder.wrap(layers, attr, f"layer.{attr}")
    for _ in range(50):
        layers.top()
    recorder.unwrap_all()
    assert "top" not in vars(layers)   # the class's method is back
    drained = recorder.drain()
    by_name = spans.self_times(drained)
    assert {name: layer.calls for name, layer in by_name.items()} == {
        "layer.top": 50, "layer.middle": 50, "layer.leaf": 150}
    assert sum(layer.self_ns for layer in by_name.values()) \
        == spans.root_ns(drained) == by_name["layer.top"].total_ns
    assert all(layer.self_ns >= 0 for layer in by_name.values())
    rows = drained.as_rows()
    assert rows[0]["parent"] == -1 and rows[1]["parent"] == 0


def test_normalisation_arithmetic():
    ref = calibrate.CAL_REF_NS
    # a host exactly as fast as the reference changes nothing
    assert calibrate.normalise(1_000.0, ref, ref) == 1_000.0
    # a host twice as slow reports twice the wall time: halved back
    assert calibrate.normalise(2_000.0, 2 * ref, 2 * ref) == 1_000.0
    # the two slices are averaged
    assert calibrate.normalise(1_500.0, ref, 2 * ref) == 1_000.0
    assert calibrate.calibration_slice(2_000) > 0


def test_compare_flags_regressions_and_wide_spreads():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10)[0] == "ok"
    worse = [value * 1.2 for value in steady]
    assert compare.verdict(steady, worse, "lower", 0.10)[0] \
        == "REGRESSION"
    assert compare.verdict(steady, worse, "higher", 0.10)[0] == "ok"
    noisy = [80.0, 120.0, 95.0, 130.0, 75.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    # every new run better than every base run: resolved despite spread
    better = [value / 2 for value in noisy]
    assert compare.verdict(noisy, better, "lower", 0.10)[0] == "ok"


# -- the runner, end to end ---------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    (entry,) = json.loads(out.read_text())["trajectory"]
    return {"lines": lines, "entry": entry}


def test_smoke_prints_the_contract_line_for_every_pass(smoke):
    lines = smoke["lines"]
    assert len(lines) == 2 * len(inp.WORKLOADS)
    wanted = {0: declared.end_to_end_units(), 1: declared.per_layer_units()}
    for line, run in zip(lines, smoke["entry"]["runs"]):
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        units = wanted[run["trace"]]
        assert {name: entry["unit"]
                for name, entry in line["metrics"].items()} == units
        for entry in line["metrics"].values():
            assert isinstance(entry["value"], (int, float))


def test_smoke_reports_sent_ok_shed_failed_for_every_workload(smoke):
    untraced = [run for run in smoke["entry"]["runs"] if not run["trace"]]
    assert [run["workload"] for run in untraced] == list(inp.WORKLOADS)
    for run in untraced:
        requests = run["requests"]
        assert requests["sent"] == (requests["ok"] + requests["shed"]
                                    + requests["failed"])
        assert requests["sent"] > 0 and requests["mismatches"] == 0
        assert requests["checked_against_reference"] > 0
        assert run["metrics"]["op_norm_ns"]["value"] > 0
        assert run["metrics"]["setup_s"]["value"] > 0


def test_smoke_result_file_carries_provenance_and_samples(smoke):
    entry = smoke["entry"]
    for key in ("commit", "seed", "python", "numpy", "cal_ref_ns"):
        assert key in entry
    for run in entry["runs"]:
        assert isinstance(run["vectorized_plan_path"], bool)
        assert len(run["charges"]) == len(declared.SIM_CHARGES)
        # the untraced pass is measured in several interpreters
        parts = [run] if run["trace"] else run["parts"]
        assert len(parts) == (1 if run["trace"] else 2)
        for part in parts:
            samples = part["samples"]
            assert len(samples["chunk_kinds"]) \
                == len(samples["chunk_norm_ns_per_op"]) \
                == len(samples["chunk_wall_ns_per_op"])
            assert part["setup_norm_s"] > 0
            assert ("S" if run["trace"] else "T") in samples["chunk_kinds"]
        if run["trace"]:
            assert run["span_self"]
        else:
            assert isinstance(run["score_digest"], int)


def test_runner_fails_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and perf/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "sync_hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{")
                   for line in done.stdout.splitlines())
