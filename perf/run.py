"""The PSS benchmark: one command, five workloads, every metric by name.

    python3 perf/run.py --seed N [--workload NAME] [--trace 0|1]
                        [--seconds S] [--out PATH] [--trace-out PATH]
                        [--smoke]

With ``--trace 0`` a workload is measured *untraced* and the end-to-end
metrics are reported; with ``--trace 1`` the same workload is run again
with harness spans around every layer boundary, the layer ladder is
timed, and the per-layer metrics are reported.  Without ``--workload`` /
``--trace`` everything is run.  Each (workload, pass) prints a table
and then one JSON object on a line of its own; the exit code is
non-zero if any output check failed.  See perf/README.md.

The untraced pass is measured in ``PARTS`` fresh interpreters, one
after the other, each setting the stack up once and timing chunks for
its share of ``--seconds``.  Where a process's and a stack's objects
land in memory moves their speed by a few percent - the same for as
long as they live, different for every copy (measured: one stack's
10-second medians agree within 0.5%, ten processes' within 2-5%) - so
one run's medians are taken over five placements, not one draw.  It
also makes every set-up a cold one.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from array import array
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
# the program (src/) and its frozen reference model (tests/) are
# imported, never copied: the benchmark measures this checkout
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

import checks  # noqa: E402
import inputs as inp  # noqa: E402
import metrics as declared  # noqa: E402
from calibrate import CAL_REF_NS, Calibrator  # noqa: E402
from drivers import ChunkResult, load_program, make_driver  # noqa: E402
from ladder import Ladder  # noqa: E402
from spans import SpanRecorder, Spans, root_ns, self_times  # noqa: E402

SCHEMA = 1
PARTS = 5                 # interpreters the untraced pass is split over
SMOKE_PARTS = 2
PART_TIMEOUT_S = 150
#: the untraced pass: every fifth chunk runs on the observed twin, in
#: the middle of its cycle so that it has a plain chunk on either side
UNTRACED_CYCLE = "PPTPP"
#: the traced pass alternates untraced and span-recording chunks
TRACED_CYCLE = "PS"
COUNT_CHUNKS = 3          # chunks the traced pass takes exact counts over
MAX_KEPT_SPANS = 200_000  # raw spans retained for --trace-out

#: what each workload is designed to stress, asserted on every run:
#: (counter-derived value, comparison, threshold)
DESIGNED = {
    "sync_hot": (("transport.score_cache_hit_share", ">=", 0.95),),
    "sync_churn": (("transport.score_cache_hit_share", "<=", 0.40),),
    "batch_cold": (("weights.index_cache_hit_share", "<=", 0.05),),
    "serve_scalar": (("serving.mean_batch", "==", 1.0),
                     ("fail_share", "==", 0.0)),
    "serve_batched": (("serving.mean_batch", ">=", 24.0),),
}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def paired_ratios(kinds: str, walls: list[float], kind: str) -> list[float]:
    """For every chunk of ``kind``: its raw cost over the mean raw cost
    of the plain chunks on either side.  Neighbours in time share the
    host's weather, so it cancels without going through the calibration
    at all."""
    ratios = []
    for i, this in enumerate(kinds):
        if this != kind:
            continue
        beside = [walls[j] for j in (i - 1, i + 1)
                  if 0 <= j < len(kinds) and kinds[j] == "P"]
        if beside:
            ratios.append(walls[i] / statistics.fmean(beside))
    return ratios


def counts(chunks: list[ChunkResult]) -> dict[str, float]:
    """Exact counts and shares over ``chunks`` (public counters)."""
    total: dict[str, float] = {}
    for chunk in chunks:
        for key, value in chunk.counters.items():
            if key in ("queue_max_depth", "plan_compiles",
                       "plan_hits"):   # per-stack levels
                total[key] = max(total.get(key, 0.0), value)
            else:
                total[key] = total.get(key, 0.0) + value
    get = total.get
    ops = sum(chunk.ops for chunk in chunks)
    shed = sum(chunk.shed for chunk in chunks)
    failed = sum(chunk.failed for chunk in chunks)
    reasons: dict[str, int] = {}
    for chunk in chunks:
        for reason, count in chunk.shed_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count
    return {
        "weights.index_cache_hit_share": ratio(
            get("index_hits", 0.0),
            get("index_hits", 0.0) + get("index_misses", 0.0)),
        "weights.generation_bumps": get("generation", 0.0),
        "transport.score_cache_hit_share": ratio(
            get("score_hits", 0.0),
            get("score_hits", 0.0) + get("score_misses", 0.0)),
        "transport.flushes": get("flushes", 0.0),
        "transport.updates_per_flush": ratio(
            get("update_records", 0.0), get("flushes", 0.0)),
        "plans.compiles": get("plan_compiles", 0.0),
        "plans.hits": get("plan_hits", 0.0),
        "kernel.predictions": get("predictions", 0.0),
        "kernel.updates": get("updates", 0.0),
        "admission.refusals": get("refusals", 0.0),
        "serving.batches": get("batches", 0.0),
        "serving.mean_batch": ratio(get("batch_rows", 0.0),
                                    get("batches", 0.0)),
        "serving.flush_timeout_share": ratio(
            get("flush_timeouts", 0.0), get("batches", 0.0)),
        "serving.queue_max_depth": get("queue_max_depth", 0.0),
        "serving.shed_queue_full": float(reasons.get("queue_full", 0)),
        "serving.shed_slo_page": float(reasons.get("slo_page", 0)),
        "serving.failed": float(failed),
        "obs.slo_evals": get("slo_evals", 0.0),
        "obs.slo_page_evals": get("slo_page_evals", 0.0),
        "fail_share": ratio(shed + failed, ops),
    }


class Problems:
    """Output-check failures of one (workload, pass)."""

    def __init__(self) -> None:
        self.messages: list[str] = []
        self.failed_ops = 0

    def add(self, message: str, ops: int = 0) -> None:
        self.messages.append(message)
        self.failed_ops += ops


class Measurement:
    """One workload on one seed in this interpreter: one set-up, then
    chunks on the stack it built and on that stack's observed twin."""

    def __init__(self, workload: inp.Workload, seed: int,
                 sizes: inp.Sizes, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.seconds = seconds
        self.pool = (sizes.serve_pool if workload.kind == "serve"
                     else sizes.client_pool)
        self.cal = Calibrator()
        self.problems = Problems()
        self.warnings: list[str] = []
        self.attempted = 0
        self.refused = 0                 # shed by the program
        self.next_index = {"P": 0, "T": 0}
        #: crc32 of the scores of chunk k; whatever runs chunk k again
        #: (the twin, a fresh serve stack, another interpreter) must
        #: reproduce it
        self.digests: dict[int, int] = {}
        #: the timed chunks in time order: P plain, T observed twin,
        #: S plain with harness spans on
        self.kinds = ""
        self.norms: list[float] = []     # normalised ns/op
        self.walls: list[float] = []     # raw ns/op
        #: the plain stack's first COUNT_CHUNKS timed results: what the
        #: traced pass takes its exact counts from
        self.counted: list[ChunkResult] = []
        self.obs_events_per_op = 0.0
        self.recorder: SpanRecorder | None = None
        self.on_traced: Callable[[ChunkResult, float], None] | None = None

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> None:
        """Import the program, generate the inputs, build and warm the
        stack - each stage between its own calibration slices, because
        the host's speed moves within one set-up."""
        cal, workload = self.cal, self.workload
        # a fresh process's first slices read slow (cold caches, a core
        # still ramping up): let them pass before the first mark
        cal.level(slices=10)
        marks = [cal.level()]
        walls = []

        def stage(build: Callable[[], Any]) -> Any:
            start = time.perf_counter()
            value = build()
            walls.append(time.perf_counter() - start)
            marks.append(cal.level())
            return value

        self.prog = stage(load_program)
        self.inputs = stage(
            lambda: inp.make_inputs(workload, self.seed, self.sizes))
        self.driver = stage(
            lambda: make_driver(self.prog, workload, self.inputs))
        if workload.kind == "serve":
            stage(self.driver.build)   # what every serve chunk rebuilds
        self.setup_wall_s = sum(walls)
        self.setup_norm_s = sum(
            wall * CAL_REF_NS / ((marks[i] + marks[i + 1]) / 2.0)
            for i, wall in enumerate(walls))
        self.twin_driver = make_driver(self.prog, workload, self.inputs,
                                       observed=True)

    # -- chunks -------------------------------------------------------------

    def check_digest(self, index: int, result: ChunkResult) -> None:
        """Stacks built alike and fed alike score alike, observed or
        not; a serve chunk runs on a fresh stack, so it also scores the
        same whenever its schedule is replayed."""
        key = index % self.pool if self.workload.kind == "serve" \
            else index
        digest = zlib.crc32(result.scores.tobytes())
        if self.digests.setdefault(key, digest) != digest:
            self.problems.add(
                f"chunk {index} scored differently on two stacks that "
                "were built and fed alike", result.ops)

    def account(self, result: ChunkResult) -> None:
        result.futures = []   # only the SLO sweep and the checks look
        self.attempted += result.ops
        self.refused += result.shed
        if result.failed:
            self.problems.add(
                f"{result.failed} requests failed", result.failed)

    def run_chunk(self, kind: str, timed: bool = True) -> ChunkResult:
        """The next chunk of the plain stack (``P``; ``S`` with harness
        spans on) or of the observed twin (``T``)."""
        stack = "T" if kind == "T" else "P"
        index = self.next_index[stack]
        self.next_index[stack] = index + 1
        driver = self.twin_driver if kind == "T" else self.driver
        region = driver.prepare(
            self.inputs.chunk(index),
            self.recorder if kind == "S" else None)
        if timed:
            gc.collect()   # every timed chunk starts from empty nurseries
            result, factor = self.cal.between(region)
            per_op = result.wall_ns / result.ops
            self.kinds += kind
            self.norms.append(per_op * factor)
            self.walls.append(per_op)
            if kind == "S" and self.on_traced is not None:
                self.on_traced(result, factor)
            if stack == "P" and len(self.counted) < COUNT_CHUNKS:
                self.counted.append(result)
        else:
            result = region()
        self.check_digest(index, result)
        self.account(result)
        if kind == "T":
            self.obs_events_per_op = result.obs_events / result.ops
        return result

    def warm_up(self) -> None:
        """Untimed chunks on both stacks, then park the heap built so
        far where the collector does not walk it.

        A full collection walks every live container, and most of them
        here are long-lived: the program's modules, numpy, the stacks,
        the inputs.  Left alone it fires every few chunks and costs
        about half a serve chunk, so chunk costs come out bimodal and
        their median flips between the modes.  With the long-lived heap
        frozen a full collection walks only what the chunks allocated.
        Collection stays enabled inside the timed region.
        """
        for _ in range(self.sizes.warmup_chunks):
            self.run_chunk("P", timed=False)
        self.run_chunk("T", timed=False)
        gc.collect()
        gc.freeze()

    def measure(self, seconds: float, cycle: str,
                min_chunks: int = 0) -> None:
        """Timed chunks, ``cycle`` over and over, for ``seconds`` (and
        ``min_chunks`` at least)."""
        deadline = time.perf_counter() + seconds
        while True:
            for kind in cycle:
                self.run_chunk(kind)
                if len(self.kinds) >= min_chunks \
                        and time.perf_counter() >= deadline:
                    return

    def plain_norms(self) -> list[float]:
        return [norm for kind, norm in zip(self.kinds, self.norms)
                if kind == "P"]

    # -- checks -------------------------------------------------------------

    def check_design(self, values: dict[str, float]) -> None:
        for name, op, limit in DESIGNED[self.workload.name]:
            value = values[name]
            held = {">=": value >= limit, "<=": value <= limit,
                    "==": value == limit}[op]
            if not held:
                self.problems.add(
                    f"{self.workload.name} no longer separates the "
                    f"layers as designed: {name} = {value}, "
                    f"expected {op} {limit}")

    def check_charges(self) -> list[dict[str, Any]]:
        charges = checks.charge_table(self.prog)
        for charge in charges:
            if not charge.ok:
                self.problems.add(
                    f"{charge.metric}: LatencyModel says "
                    f"{charge.expected_ns}, program charged "
                    f"{charge.observed_ns}")
        return [vars(charge) for charge in charges]

    def vectorized(self) -> bool:
        """Whether the numpy block hasher is live (it decides
        batch_cold)."""
        core = self.prog.core
        plan = core.compile_plan(self.prog.config)
        weights = core.HashedPerceptron(self.prog.config).weights
        rows = [tuple(range(inp.NUM_FEATURES))] * 8
        flat = array("b", list(weights.iter_weights())[:-1])
        return plan.score_select_rows(flat, weights.bias, rows) is not None

    def record(self, trace: int) -> dict[str, Any]:
        """What this interpreter measured, JSON-ready."""
        return {
            "workload": self.workload.name,
            "trace": trace,
            "attempted": self.attempted,
            "failed": self.problems.failed_ops + self.refused,
            "problems": self.problems.messages,
            "warnings": self.warnings,
            "digests": {str(key): value
                        for key, value in self.digests.items()},
            "setup_norm_s": self.setup_norm_s,
            "setup_wall_s": self.setup_wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples": {
                "chunk_kinds": self.kinds,
                "chunk_norm_ns_per_op": self.norms,
                "chunk_wall_ns_per_op": self.walls,
                "calibration_ns": self.cal.slices,
            },
        }


# -- the untraced pass: end-to-end metrics ------------------------------------


def simulated_pass(run: Measurement) -> list[ChunkResult]:
    """Chunks 0 .. pool-1 on a stack of their own, untimed: what the
    simulated metrics and the exact counts are computed from, whatever
    the host's speed let the timed chunks get through."""
    driver = make_driver(run.prog, run.workload, run.inputs)
    skip = 0 if run.workload.kind == "serve" else run.sizes.warmup_chunks
    results = []
    for index in range(skip + run.pool):
        result = driver.prepare(run.inputs.chunk(index))()
        run.check_digest(index, result)
        run.account(result)
        if index >= skip:   # a client stack's counts: past its warm-up
            results.append(result)
    return results


def slo_rate(run: Measurement) -> float:
    """Highest fixed rate whose requests meet the latency limit.

    At each rate a fresh stack is offered ``slo_requests`` requests;
    the rate passes when at least 99% of the requests *sent* settle ok
    within the limit and whatever is still in flight when the load ends
    settles within one more limit (no growing backlog).  Shed and
    failed requests count as misses.  Host time is not measured here,
    and the sweep's requests - offered beyond capacity on purpose - are
    not counted as the workload's operations.
    """
    passed = 0.0
    limit = inp.SLO_LIMIT_NS
    for rate in inp.SLO_RATES_PER_US:
        schedule = run.inputs.slo_schedule(float(rate))
        result = run.driver.prepare(schedule)()
        within = sum(1 for sojourn in result.sojourns if sojourn <= limit)
        load_end = sum(request[0] for request in schedule)
        drained = max(future.completed_ns for future in result.futures)
        if within >= inp.SLO_OK_SHARE * result.ops \
                and drained - load_end <= limit:
            passed = float(rate)
    return passed


def once_per_run(run: Measurement) -> dict[str, Any]:
    """Everything that is a function of the seed alone: the simulated
    metrics, the exact counts and the output checks.  One interpreter
    of a run does this; the others only time chunks."""
    workload = run.workload
    sim = simulated_pass(run)
    check = checks.CHECKS[workload.kind](run.prog, workload, run.inputs)
    run.attempted += check.checked
    if check.mismatches:
        run.problems.add(
            f"{check.mismatches} of {check.checked} scores differ from "
            "tests.core.reference_impl", check.mismatches)
    completed = sum(chunk.ok for chunk in sim)
    sim_ns_per_op = sum(chunk.sim_ns for chunk in sim) / completed
    if workload.kind == "serve":
        sojourns = sorted(s for chunk in sim for s in chunk.sojourns)
        rate = slo_rate(run)
    else:
        # a synchronous predict's sojourn is what it was charged; the
        # one closed-loop caller sustains 1000 / sim_ns_per_op ops per us
        sojourns = sorted(check.predict_charges)
        rate = (1_000.0 / sim_ns_per_op
                if percentile(sojourns, inp.SLO_OK_SHARE)
                <= inp.SLO_LIMIT_NS else 0.0)
    counted = counts(sim)
    run.check_design(counted)
    score_digest = 0
    for chunk in sim:
        score_digest = zlib.crc32(chunk.scores.tobytes(), score_digest)
    return {
        "metrics": {
            "sim_ns_per_op": sim_ns_per_op,
            "sim_p50_ns": percentile(sojourns, 0.50),
            "sim_p99_ns": percentile(sojourns, 0.99),
            "sim_slo_rate_per_us": rate,
        },
        "counts": counted,
        "requests": {
            "sent": sum(chunk.ops for chunk in sim),
            "ok": sum(chunk.ok for chunk in sim),
            "shed": sum(chunk.shed for chunk in sim),
            "failed": sum(chunk.failed for chunk in sim),
            "checked_against_reference": check.checked,
            "mismatches": check.mismatches,
        },
        "charges": run.check_charges(),
        "input_digest": run.inputs.digest,
        "score_digest": score_digest,
        "vectorized_plan_path": run.vectorized(),
    }


def untraced_part(run: Measurement, part: int) -> dict[str, Any]:
    """One interpreter's share of the untraced pass."""
    run.set_up()
    run.warm_up()
    run.measure(run.seconds, UNTRACED_CYCLE,
                min_chunks=len(UNTRACED_CYCLE))
    once = once_per_run(run) if part == 0 else None
    record = run.record(trace=0)
    record["once"] = once
    return record


def merge_untraced(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """One run's end-to-end record from its interpreters' records."""
    once = parts[0]["once"]
    problems = [message for part in parts for message in part["problems"]]
    failed = sum(part["failed"] for part in parts)
    digests: dict[str, int] = {}
    for part in parts:
        for key, digest in part["digests"].items():
            if digests.setdefault(key, digest) != digest:
                problems.append(
                    f"chunk {key} scored differently in two "
                    "interpreters fed the same seed")
    plain = [norm for part in parts for kind, norm in zip(
        part["samples"]["chunk_kinds"],
        part["samples"]["chunk_norm_ns_per_op"]) if kind == "P"]
    twin_over_plain = [value for part in parts for value in paired_ratios(
        part["samples"]["chunk_kinds"],
        part["samples"]["chunk_wall_ns_per_op"], "T")]
    values = {
        "setup_s": statistics.median(
            part["setup_norm_s"] for part in parts),
        "op_norm_ns": statistics.median(plain),
        "obs_overhead_x": statistics.median(twin_over_plain),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        **once["metrics"],
    }
    return {
        "workload": parts[0]["workload"],
        "trace": 0,
        "correct": not problems,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.end_to_end_units().items()},
        "problems": problems,
        "warnings": [w for part in parts for w in part["warnings"]],
        **{key: once[key] for key in (
            "requests", "counts", "charges", "input_digest",
            "score_digest", "vectorized_plan_path")},
        "parts": [{key: part[key] for key in (
            "setup_norm_s", "setup_wall_s", "peak_rss_mb", "samples")}
            for part in parts],
    }


# -- the traced pass: per-layer metrics ---------------------------------------


class LayerTotals:
    """Normalised span self times summed over the traced chunks."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_norm_ns: dict[str, float] = {}
        self.total_norm_ns: dict[str, float] = {}
        self.root_norm_ns = 0.0
        self.wall_norm_ns = 0.0
        self.spans = 0
        self.ops = 0
        self.chunks = 0
        self.predictions = 0.0
        self.kept = Spans([], [], [], [])
        #: engine steps and ops of the first COUNT_CHUNKS traced chunks
        self.counted_events = 0
        self.counted_ops = 0

    def add(self, spans: Spans, result: ChunkResult,
            factor: float) -> None:
        by_name = self_times(spans)
        for name, layer in by_name.items():
            self.calls[name] = self.calls.get(name, 0) + layer.calls
            self.self_norm_ns[name] = (self.self_norm_ns.get(name, 0.0)
                                       + layer.self_ns * factor)
            self.total_norm_ns[name] = (self.total_norm_ns.get(name, 0.0)
                                        + layer.total_ns * factor)
        self.root_norm_ns += root_ns(spans) * factor
        self.wall_norm_ns += result.wall_ns * factor
        self.spans += len(spans)
        self.ops += result.ops
        self.predictions += result.counters["predictions"]
        if self.chunks < COUNT_CHUNKS:
            steps = by_name.get("sim.engine_step")
            self.counted_events += steps.calls if steps else 0
            self.counted_ops += result.ops
        self.chunks += 1
        if len(self.kept) + len(spans) <= MAX_KEPT_SPANS:
            shift = len(self.kept)
            self.kept.names += spans.names
            self.kept.starts += spans.starts
            self.kept.ends += spans.ends
            self.kept.parents += [parent + shift if parent >= 0 else -1
                                  for parent in spans.parents]

    def per_call(self, name: str, which: str = "self") -> float:
        table = self.self_norm_ns if which == "self" \
            else self.total_norm_ns
        return ratio(table.get(name, 0.0), self.calls.get(name, 0))


def traced_part(run: Measurement, keep_spans: bool) -> dict[str, Any]:
    """The traced pass, whole, in this interpreter."""
    workload = run.workload
    run.set_up()
    run.warm_up()
    layers = LayerTotals()
    run.recorder = SpanRecorder()
    run.on_traced = lambda result, factor: layers.add(
        run.recorder.drain(), result, factor)
    run.measure(run.seconds / 2, TRACED_CYCLE,
                min_chunks=2 * COUNT_CHUNKS)
    run.run_chunk("T", timed=False)   # for obs.events_per_op

    values = Ladder(run.prog, workload, run.inputs, run.cal,
                    budget_s=run.seconds / 2).run()
    charges = run.check_charges()
    for charge in charges:
        values[charge["metric"]] = charge["observed_ns"]

    # serve self times (zero where the workload has no such layer)
    for metric, span in declared.SERVE_SELF.items():
        values[metric] = layers.per_call(span)
    # two of them on another base: the kernel's batch entry per row it
    # scored (not per call), the engine per event with run() folded in
    values["kernel.serve_predict_batch_norm_ns"] = ratio(
        layers.total_norm_ns.get("kernel.serve_predict_batch", 0.0),
        layers.predictions if workload.kind == "serve" else 0.0)
    values["sim.engine_self_norm_ns"] = ratio(
        layers.self_norm_ns.get("sim.engine_step", 0.0)
        + layers.self_norm_ns.get("sim.engine_run", 0.0),
        layers.calls.get("sim.engine_step", 0))

    # harness spans change no result and no counter
    counted = counts(run.counted)
    run.check_design(counted)
    values.update(counted)
    values["sim.events"] = float(layers.counted_events)
    values["sim.events_per_op"] = (layers.counted_events
                                   / layers.counted_ops)
    values["obs.events_per_op"] = run.obs_events_per_op

    plain = sorted(run.plain_norms())
    values.update({
        "harness.cal_ns": run.cal.mean_ns,
        "harness.cal_spread": run.cal.spread,
        "harness.wall_ns_per_op": statistics.median(
            wall for kind, wall in zip(run.kinds, run.walls)
            if kind == "P"),
        "harness.chunk_p90_norm_ns": percentile(plain, 0.90),
        "harness.chunks": float(len(run.kinds)),
        "harness.ops": float(run.attempted),
        "harness.setup_wall_s": run.setup_wall_s,
        "harness.trace_overhead_x": statistics.median(
            paired_ratios(run.kinds, run.walls, "S")),
        "harness.spans_per_op": layers.spans / layers.ops,
        "harness.accounted_share": (layers.root_norm_ns
                                    / layers.wall_norm_ns),
    })
    if values["harness.accounted_share"] < 0.8:
        # a timing property, not an output: reported, never a failure
        run.warnings.append(
            "harness spans cover only "
            f"{values['harness.accounted_share']:.2f} of the traced "
            "chunks' time (expected >= 0.80)")

    units = declared.per_layer_units()
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    record = run.record(trace=1)
    record.update({
        "correct": not run.problems.messages,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "charges": charges,
        "input_digest": run.inputs.digest,
        "vectorized_plan_path": run.vectorized(),
        "span_self": {
            name: {"calls": layers.calls[name],
                   "self_norm_ns_per_call": layers.per_call(name),
                   "total_norm_ns_per_call":
                       layers.per_call(name, "total")}
            for name in sorted(layers.calls)
        },
    })
    if keep_spans:
        record["spans"] = layers.kept.as_rows()
    return record


# -- orchestration and reporting ----------------------------------------------


def spawn_part(args: argparse.Namespace, workload: str, trace: int,
               part: int, parts: int) -> dict[str, Any]:
    """Run one part in a fresh interpreter; returns its record."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--trace", str(trace),
        "--seed", str(args.seed), "--seconds", repr(args.seconds / parts),
        "--part", str(part),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        command.append("--keep-spans")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=PART_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perf/run.py: {workload} trace={trace} part {part} "
                 f"exited with code {done.returncode}")
    return json.loads(done.stdout)


def print_record(record: dict[str, Any]) -> None:
    title = (f"{record['workload']}  "
             f"({'per-layer, traced' if record['trace'] else 'end-to-end, untraced'})")
    print(f"\n== {title} ==")
    for name, entry in record["metrics"].items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    if record.get("requests"):
        print("  requests: " + "  ".join(
            f"{key}={value}" for key, value in record["requests"].items()))
        print(f"  score_digest {record['score_digest']:08x}  "
              f"input_digest {record['input_digest']:08x}")
    for message in record["problems"]:
        print(f"  CHECK FAILED: {message}")
    for message in record["warnings"]:
        print(f"  warning: {message}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def commit_hash() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def write_out(path: Path, records: list[dict[str, Any]],
              args: argparse.Namespace) -> None:
    """Append this invocation to the trajectory in ``path``."""
    entry = {
        "commit": commit_hash(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "cal_ref_ns": CAL_REF_NS,
        "runs": [{key: value for key, value in record.items()
                  if key != "spans"} for record in records],
    }
    document = {"schema": SCHEMA, "trajectory": []}
    if path.exists():
        existing = json.loads(path.read_text())
        if existing.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: not a schema-{SCHEMA} result file")
        document = existing
    document["trajectory"].append(entry)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(inp.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per (workload, pass)")
    parser.add_argument("--out", type=Path,
                        help="append results to this JSON trajectory")
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced pass's spans here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny chunks, all code paths, < 20 s")
    # how the runner calls itself: measure one part of one pass in this
    # interpreter and print its record
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--keep-spans", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = inp.SMOKE if args.smoke else inp.FULL

    if args.part is not None:
        run = Measurement(inp.WORKLOADS[args.workload], args.seed, sizes,
                          args.seconds)
        try:   # the first import of the program is part of the set-up
            record = (traced_part(run, args.keep_spans) if args.trace
                      else untraced_part(run, args.part))
        except ImportError as error:
            sys.exit(f"perf/run.py: cannot import the program from "
                     f"{ROOT / 'src'}: {error}")
        json.dump(record, sys.stdout)
        return 0

    if args.smoke:
        args.seconds = min(args.seconds, 0.4)
    names = [args.workload] if args.workload else list(inp.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    records = []
    for name in names:
        for trace in traces:
            if trace:
                record = spawn_part(args, name, trace, 0, 1)
            else:
                parts = SMOKE_PARTS if args.smoke else PARTS
                record = merge_untraced([
                    spawn_part(args, name, trace, part, parts)
                    for part in range(parts)])
            print_record(record)
            records.append(record)
    if args.out:
        write_out(args.out, records, args)
    if args.trace_out:
        args.trace_out.write_text(json.dumps({
            record["workload"]: record["spans"]
            for record in records if record["trace"]
        }) + "\n")
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
