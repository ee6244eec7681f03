"""The benchmark's declared metrics: names, units, directions, bounds.

``BENCHMARK.json`` lists exactly these (perf/test_harness.py checks the
two against each other); run.py reports exactly these and refuses to
print a result with one missing.
"""

from __future__ import annotations

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a
#: regression.  ``sim_ns`` are *simulated* nanoseconds; host durations
#: are calibration-normalised (see calibrate.py).
#:
#: Each bound is at least three times the widest spread (quartile
#: distance of ten runs on ten seeds, over their median) seen while the
#: benchmark was built.  For the host-time metrics that spread is set
#: by the host, not by the harness: between its quiet and its busy
#: spells the container shifts a workload's cost *relative to the
#: calibration kernel* by up to 10% (batch_cold, the memory-heavy one,
#: up; sync_churn down), and ten runs that straddle a shift spread
#: 3-9%.  The simulated metrics repeat exactly for one seed; their
#: spread is the sampling of the schedule from seed to seed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_norm_ns", "ns/op", "lower", 0.20),
    ("obs_overhead_x", "x", "lower", 0.20),
    ("sim_ns_per_op", "sim_ns", "lower", 0.05),
    ("sim_p50_ns", "sim_ns", "lower", 0.05),
    ("sim_p99_ns", "sim_ns", "lower", 0.10),
    ("sim_slo_rate_per_us", "req/us", "higher", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

_NORM = "ns"          # normalised host ns per call (per row for batches)
_COUNT = "count"
_SHARE = "fraction"

LADDER_PREDICT = (
    "weights.dot_norm_ns", "perceptron.predict_norm_ns",
    "domain.predict_norm_ns", "handle.predict_norm_ns",
    "kernel.predict_norm_ns", "transport.vdso_predict_norm_ns",
    "transport.syscall_predict_norm_ns", "client.predict_norm_ns",
    "resilient.predict_norm_ns", "pipeline.submit_settle_norm_ns",
)
LADDER_TAXES = (
    "perceptron.predict_tax_norm_ns", "domain.predict_tax_norm_ns",
    "handle.predict_tax_norm_ns", "transport.vdso_predict_tax_norm_ns",
    "client.predict_tax_norm_ns", "resilient.predict_tax_norm_ns",
    "pipeline.submit_settle_tax_norm_ns",
)
LADDER_UPDATE = (
    "perceptron.update_norm_ns", "handle.update_norm_ns",
    "kernel.update_norm_ns", "transport.vdso_update_norm_ns",
    "transport.flush_norm_ns", "client.update_norm_ns",
)
LADDER_BATCH = (
    "plans.score_rows_norm_ns", "weights.dot_batch16_norm_ns",
    "weights.dot_batch256_norm_ns", "perceptron.predict_batch256_norm_ns",
    "kernel.predict_batch256_norm_ns",
    "transport.syscall_predict_batch256_norm_ns",
    "client.predict_batch16_norm_ns", "client.predict_batch256_norm_ns",
)
#: serve self times: metric -> the harness span it is read from
SERVE_SELF = {
    "serving.submit_self_norm_ns": "serving.submit",
    "admission.admit_request_norm_ns": "admission.admit_request",
    "kernel.serve_predict_batch_norm_ns": "kernel.serve_predict_batch",
    "kernel.serve_update_norm_ns": "kernel.serve_update",
    "serving.settle_self_norm_ns": "serving.settle",
    "obs.slo_evaluate_norm_ns": "obs.slo_evaluate",
    "sim.engine_self_norm_ns": "sim.engine_step",
    "harness.arrival_self_norm_ns": "harness.arrival",
}
COUNTS = (
    ("weights.index_cache_hit_share", _SHARE),
    ("weights.generation_bumps", _COUNT),
    ("transport.score_cache_hit_share", _SHARE),
    ("transport.flushes", _COUNT),
    ("transport.updates_per_flush", _COUNT),
    ("plans.compiles", _COUNT),
    ("plans.hits", _COUNT),
    ("kernel.predictions", _COUNT),
    ("kernel.updates", _COUNT),
    ("admission.refusals", _COUNT),
    ("sim.events", _COUNT),
    ("sim.events_per_op", _COUNT),
    ("serving.batches", _COUNT),
    ("serving.mean_batch", _COUNT),
    ("serving.flush_timeout_share", _SHARE),
    ("serving.queue_max_depth", _COUNT),
    ("serving.shed_queue_full", _COUNT),
    ("serving.shed_slo_page", _COUNT),
    ("serving.failed", _COUNT),
    ("obs.slo_evals", _COUNT),
    ("obs.slo_page_evals", _COUNT),
    ("obs.events_per_op", _COUNT),
    ("fail_share", _SHARE),
)
OBS_UNIT_COSTS = (
    "obs.tracer_record_norm_ns", "obs.span_norm_ns",
    "obs.metrics_observe_norm_ns",
)
SIM_CHARGES = (
    "sim.charge_vdso_predict_ns", "sim.charge_syscall_predict_ns",
    "sim.charge_syscall_batch256_ns", "sim.charge_vdso_flush32_ns",
    "sim.charge_pipeline_scalar_ns",
)
HARNESS = (
    ("harness.cal_ns", "ns"),
    ("harness.cal_spread", "x"),
    ("harness.wall_ns_per_op", "ns/op"),
    ("harness.chunk_p90_norm_ns", "ns/op"),
    ("harness.chunks", _COUNT),
    ("harness.ops", _COUNT),
    ("harness.setup_wall_s", "s"),
    ("harness.trace_overhead_x", "x"),
    ("harness.ladder_rounds", _COUNT),
    ("harness.span_norm_ns", _NORM),
    ("harness.spans_per_op", _COUNT),
    ("harness.accounted_share", _SHARE),
)

#: (name, unit, better) for every per-layer metric
PER_LAYER = tuple(
    [(name, _NORM, "lower")
     for name in (LADDER_PREDICT + LADDER_TAXES + LADDER_UPDATE
                  + LADDER_BATCH + tuple(SERVE_SELF) + OBS_UNIT_COSTS)]
    + [(name, unit, "higher" if name.endswith("hit_share")
        or name in ("serving.mean_batch", "plans.hits") else "lower")
       for name, unit in COUNTS]
    + [(name, "sim_ns", "lower") for name in SIM_CHARGES]
    + [(name, unit, "higher" if name in ("harness.accounted_share",
                                         "harness.chunks", "harness.ops")
        else "lower")
       for name, unit in HARNESS]
)


def end_to_end_units() -> dict[str, str]:
    return {name: unit for name, unit, _better, _bound in END_TO_END}


def per_layer_units() -> dict[str, str]:
    return {name: unit for name, unit, _better in PER_LAYER}
