"""Builds the stack for each workload and runs one chunk on it.

Everything here goes through the program's public API: the stack is
``ShardedService`` + ``connect`` (sync, batch) or ``ShardedService`` +
``ServingPipeline`` (serve), counters are read from reports, accounts
and snapshots, and the traced pass shadows methods on public objects
(see :mod:`spans`).  An *observed twin* is the same construction with a
``Tracer`` and a ``MetricsRegistry`` passed in.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import inputs as inp
from spans import SpanRecorder

#: folded into the score stream where a request produced no score
NO_SCORE = -(1 << 62)

SYNC_DOMAIN = "bench"


def load_program() -> SimpleNamespace:
    """Import the program's public packages."""
    core = importlib.import_module("repro.core")
    return SimpleNamespace(
        core=core,
        errors=importlib.import_module("repro.core.errors"),
        serving=importlib.import_module("repro.core.serving"),
        obs=importlib.import_module("repro.obs"),
        spawn=importlib.import_module("repro.sim.process").spawn,
        config=core.PSSConfig(
            num_features=inp.NUM_FEATURES,
            entries_per_feature=inp.ENTRIES_PER_FEATURE),
    )


@dataclass
class ChunkResult:
    """What one chunk did, as the harness saw it from outside."""

    wall_ns: int                 # the timed region only
    ops: int                     # client-visible operations attempted
    ok: int
    shed: int = 0
    failed: int = 0
    sim_ns: float = 0.0          # simulated time the chunk consumed
    scores: array = field(default_factory=lambda: array("q"))
    sojourns: list[float] = field(default_factory=list)
    shed_reasons: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    obs_events: int = 0          # tracer events + spans (twin only)
    futures: list[Any] = field(default_factory=list)   # serve only


def _obs_kwargs(prog: SimpleNamespace, observed: bool) -> dict[str, Any]:
    if not observed:
        return {}
    return {"tracer": prog.obs.Tracer(),
            "metrics": prog.obs.MetricsRegistry()}


def _obs_event_count(tracer: Any) -> int:
    return (len(tracer) + tracer.dropped
            + len(tracer.spans()) + tracer.span_dropped)


def _service_counters(prog: SimpleNamespace, service: Any
                      ) -> dict[str, float]:
    """Public counters of a service, summed over its domains."""
    counters = dict.fromkeys(
        ("index_hits", "index_misses", "generation", "predictions",
         "updates"), 0.0)
    for name in service.domain_names():
        report = service.domain(name).report()
        counters["index_hits"] += report.index_cache_hits
        counters["index_misses"] += report.index_cache_misses
        counters["generation"] += report.generation
        counters["predictions"] += report.stats.predictions
        counters["updates"] += report.stats.updates
    admission = service.admission
    usage = admission.usage_for(prog.core.ClientIdentity())
    counters["refusals"] = usage.rejections + admission.sheds_enforced
    counters["plan_compiles"] = service.plans.misses
    counters["plan_hits"] = service.plans.hits
    return counters


class ClientDriver:
    """Sync and batch workloads: one service, one client, kept across
    chunks (the model keeps learning, caches stay warm)."""

    def __init__(self, prog: SimpleNamespace, workload: inp.Workload,
                 inputs: Any, observed: bool = False) -> None:
        self.prog = prog
        self.workload = workload
        self.inputs = inputs
        core = prog.core
        kwargs = _obs_kwargs(prog, observed)
        self.tracer = kwargs.get("tracer")
        self.service = core.ShardedService(
            num_shards=workload.shards,
            admission=core.AdmissionController(), **kwargs)
        self.client = self.service.connect(
            SYNC_DOMAIN, transport=workload.transport,
            batch_size=inp.UPDATE_BATCH, config=prog.config)
        self._warm_up()

    def _warm_up(self) -> None:
        update = self.client.update
        inputs = self.inputs
        if self.workload.kind == "sync":
            rows = inputs.rows
            for code in inputs.warmup:
                update(rows[code >> 2], code & 1 == 1)
        else:
            rows, labels = inputs.train_rows, inputs.train_labels
            for index in inputs.train_order:
                update(rows[index], labels[index])
        self.client.flush()

    # -- tracing ------------------------------------------------------------

    def wrap(self, recorder: SpanRecorder) -> None:
        """Shadow the layer boundaries a client call crosses."""
        client = self.client
        domain = self.service.domain(SYNC_DOMAIN)
        model = domain.model
        for obj, prefix, attrs in (
            (client, "client", ("predict", "update", "predict_batch")),
            (self.service.admission, "admission",
             ("charge_predict", "charge_update")),
            (domain, "domain", ("predict", "update", "predict_batch",
                                "record_cached_prediction")),
            (model, "perceptron", ("predict", "update",
                                   "predict_batch")),
            (model.weights, "weights", ("dot", "dot_and_indices",
                                        "dot_batch", "adjust_at")),
        ):
            for attr in attrs:
                recorder.wrap(obj, attr, f"{prefix}.{attr}")

    # -- one chunk ----------------------------------------------------------

    def prepare(self, chunk: Any, recorder: SpanRecorder | None = None
                ) -> Callable[[], ChunkResult]:
        """Everything a chunk needs before its timed region; the
        returned function runs the region and collects the result."""
        before = self.counters()
        sim_before = self.client.latency.total_ns
        if recorder is not None:
            self.wrap(recorder)
        run_ops = (self._run_sync if self.workload.kind == "sync"
                   else self._run_batches)

        def run() -> ChunkResult:
            scores: list[int] = []
            wall = run_ops(chunk, scores)
            if recorder is not None:
                recorder.unwrap_all()
            after = self.counters()
            ops = self.inputs.ops_in(chunk)
            result = ChunkResult(
                wall_ns=wall, ops=ops, ok=ops,
                sim_ns=self.client.latency.total_ns - sim_before,
                scores=array("q", scores),
                counters={key: after[key] - before[key] for key in after},
            )
            for key in ("plan_compiles", "plan_hits"):  # levels, not flows
                result.counters[key] = after[key]
            if self.tracer is not None:
                result.obs_events = _obs_event_count(self.tracer)
                self.tracer.clear()
            return result

        return run

    def _run_sync(self, chunk: bytes, scores: list[int]) -> int:
        rows = self.inputs.rows
        predict = self.client.predict
        update = self.client.update
        keep = scores.append
        start = time.perf_counter_ns()
        for code in chunk:
            if code & 2:
                update(rows[code >> 2], code & 1 == 1)
            else:
                keep(predict(rows[code >> 2]))
        return time.perf_counter_ns() - start

    def _run_batches(self, chunk: list[list[tuple[int, ...]]],
                     scores: list[int]) -> int:
        predict_batch = self.client.predict_batch
        keep = scores.extend
        start = time.perf_counter_ns()
        for batch in chunk:
            keep(predict_batch(batch))
        return time.perf_counter_ns() - start

    def counters(self) -> dict[str, float]:
        counters = _service_counters(self.prog, self.service)
        account = self.client.latency
        counters["score_hits"] = account.cache_hits
        counters["score_misses"] = account.cache_misses
        counters["flushes"] = account.op_calls.get("flush", 0)
        counters["update_records"] = account.update_records
        return counters


class ServeDriver:
    """Serve workloads: every chunk replays one arrival schedule onto a
    fresh service + pipeline built outside the timed region."""

    def __init__(self, prog: SimpleNamespace, workload: inp.Workload,
                 inputs: inp.ServeInputs, observed: bool = False) -> None:
        self.prog = prog
        self.workload = workload
        self.inputs = inputs
        self.observed = observed

    def build(self) -> Any:
        prog, workload = self.prog, self.workload
        core, serving = prog.core, prog.serving
        kwargs = _obs_kwargs(prog, self.observed)
        service = core.ShardedService(
            num_shards=workload.shards,
            admission=core.AdmissionController(), **kwargs)
        for name in self.inputs.names:
            service.create_domain(name, config=prog.config)
        return serving.ServingPipeline(
            service,
            serving.ServingConfig(
                batch_window_ns=workload.window_ns, max_batch=32,
                queue_limit=inp.QUEUE_LIMIT, shed_on_page=True,
                slo_threshold_ns=inp.SLO_LIMIT_NS),
            slos=serving.serving_slos(inp.SLO_LIMIT_NS), **kwargs)

    def wrap(self, recorder: SpanRecorder, pipeline: Any) -> None:
        service = pipeline.service
        for obj, attr, name in (
            (pipeline, "submit", "serving.submit"),
            (service.admission, "admit_request",
             "admission.admit_request"),
            (service, "predict_batch", "kernel.serve_predict_batch"),
            (service, "update", "kernel.serve_update"),
            (pipeline, "request_done", "serving.settle"),
            (pipeline.slo_engine, "evaluate", "obs.slo_evaluate"),
            (pipeline.engine, "step", "sim.engine_step"),
            (pipeline.engine, "run", "sim.engine_run"),
        ):
            recorder.wrap(obj, attr, name)

    def _arrivals(self, pipeline: Any, schedule: list[inp.ServeRequest],
                  futures: list[Any], lateness: list[float],
                  recorder: SpanRecorder | None):
        """Harness-owned arrival process (open loop on the sim clock).

        Each request is submitted at its scheduled arrival, so its
        future's ``submitted_ns`` - what sojourns are measured from - is
        the time it was due, not the time a stalled generator got round
        to it; ``lateness`` receives how far the two ever differed.
        """
        submit = pipeline.submit
        engine = pipeline.engine
        keep = futures.append
        due = 0.0
        worst = 0.0
        for delay, name, row, is_update, direction in schedule:
            yield delay
            span = recorder.enter("harness.arrival") if recorder else 0
            due += delay
            if engine.now - due > worst:
                worst = engine.now - due
            if is_update:
                keep(submit(name, row, op="update", direction=direction))
            else:
                keep(submit(name, row))
            if recorder:
                recorder.exit(span)
        pipeline.mark_load_complete()
        lateness.append(worst)

    def prepare(self, schedule: list[inp.ServeRequest],
                recorder: SpanRecorder | None = None
                ) -> Callable[[], ChunkResult]:
        """Build a fresh stack for ``schedule``; the returned function
        replays it to completion (the timed region) and collects the
        result, keeping the futures in submission order for the
        caller's own checks (``ChunkResult.futures``)."""
        pipeline = self.build()
        if recorder is not None:
            self.wrap(recorder, pipeline)
        futures: list[Any] = []
        lateness: list[float] = []
        body = self._arrivals(pipeline, schedule, futures, lateness,
                              recorder)

        def run() -> ChunkResult:
            start = time.perf_counter_ns()
            self.prog.spawn(pipeline.engine, body, name="perf-arrivals")
            pipeline.run()
            wall = time.perf_counter_ns() - start
            if recorder is not None:
                recorder.unwrap_all()
            if lateness != [0.0]:
                raise AssertionError(
                    "arrival process ran late in simulated time: "
                    f"{lateness}")
            return self._collect(pipeline, schedule, futures, wall)

        return run

    def _collect(self, pipeline: Any, schedule: list[inp.ServeRequest],
                 futures: list[Any], wall: int) -> ChunkResult:
        shed_error = self.prog.errors.RequestShedError
        result = ChunkResult(wall_ns=wall, ops=len(schedule), ok=0,
                             sim_ns=pipeline.engine.now, futures=futures)
        scores = result.scores
        sojourns = result.sojourns
        for future, request in zip(futures, schedule):
            if not future.done:
                raise AssertionError("a submitted future never settled")
            error = future.error
            if error is None:
                result.ok += 1
                sojourns.append(future.latency_ns)
                scores.append(NO_SCORE if request[3]
                              else future.result())
            elif isinstance(error, shed_error):
                result.shed += 1
                result.shed_reasons[error.reason] = \
                    result.shed_reasons.get(error.reason, 0) + 1
                scores.append(NO_SCORE)
            else:
                result.failed += 1
                scores.append(NO_SCORE)
        if len(futures) != len(schedule):
            raise AssertionError("fewer futures than requests sent")
        snapshot = pipeline.snapshot()
        if (snapshot["completed"], snapshot["shed"], snapshot["failed"],
                snapshot["in_flight"]) != (result.ok, result.shed,
                                           result.failed, 0):
            raise AssertionError(
                f"pipeline counters {snapshot} disagree with the "
                f"futures: ok={result.ok} shed={result.shed} "
                f"failed={result.failed}")
        counters = _service_counters(self.prog, pipeline.service)
        counters["batches"] = snapshot["batches"]
        counters["batch_rows"] = pipeline.batch_stats()["rows"]
        counters["flush_timeouts"] = snapshot["flush_timeouts"]
        counters["queue_max_depth"] = max(
            queue["max_depth"] for queue in snapshot["queues"])
        counters["slo_evals"] = snapshot["slo"]["evals"]
        counters["slo_page_evals"] = snapshot["slo"]["page_evals"]
        result.counters = counters
        if self.observed:
            result.obs_events = _obs_event_count(pipeline.tracer)
        return result


def make_driver(prog: SimpleNamespace, workload: inp.Workload,
                inputs: Any, observed: bool = False):
    cls = ServeDriver if workload.kind == "serve" else ClientDriver
    return cls(prog, workload, inputs, observed)
