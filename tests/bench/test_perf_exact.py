"""The smoke-output comparer names every value that moved."""

import json

from tests.bench.perf_exact import GOLDEN, differences, exact_outputs

SMOKE = {"trajectory": [{"runs": [
    {"workload": "w", "trace": 0, "counts": {"kernel.updates": 3.0},
     "score_digest": 11, "input_digest": 12,
     "metrics": {"sim_p50_ns": {"value": 4.19, "unit": "sim_ns"},
                 "op_norm_ns": {"value": 1700.0, "unit": "ns/op"}}},
    {"workload": "w", "trace": 1, "counts": {},
     "metrics": {"sim.events": {"value": 9.0, "unit": "count"},
                 "harness.ops": {"value": 5.0, "unit": "count"},
                 "weights.dot_norm_ns": {"value": 1.0, "unit": "ns"}}},
]}]}


def test_exact_outputs_are_what_is_counted():
    assert exact_outputs(SMOKE) == {
        "w.plain.input_digest": 12, "w.plain.kernel.updates": 3.0,
        "w.plain.score_digest": 11, "w.plain.sim_p50_ns": 4.19,
        "w.traced.sim.events": 9.0}


def test_every_moved_or_missing_value_is_named():
    golden = exact_outputs(SMOKE)
    got = dict(golden, **{"w.plain.score_digest": 10})
    del got["w.traced.sim.events"]
    assert differences(golden, golden) == []
    assert [line.split(":")[0] for line in differences(golden, got)] \
        == ["w.plain.score_digest", "w.traced.sim.events"]


def test_the_golden_pins_both_passes_of_every_workload():
    names = json.loads(GOLDEN.read_text())
    assert {name.split(".")[0] for name in names} == {
        "sync_hot", "sync_churn", "batch_cold", "serve_scalar",
        "serve_batched"}
    assert {name.split(".")[1] for name in names} == {"plain", "traced"}
