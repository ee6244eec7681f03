"""Output checks: scores against the frozen reference model, and the
simulated charge table against ``LatencyModel``.

Nothing here is timed.  A mismatch is counted, reported and makes the
run exit non-zero.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import inputs as inp
from drivers import SYNC_DOMAIN, ServeDriver


@dataclass
class ScoreCheck:
    checked: int            # scores compared with the reference
    mismatches: int
    #: simulated ns charged per predict call on the workload's own
    #: transport, per row for a batch (sync and batch workloads)
    predict_charges: list[float]


def _reference(prog: SimpleNamespace) -> Any:
    module = importlib.import_module("tests.core.reference_impl")
    return module.ReferencePerceptron(prog.config)


def _fresh_client(prog: SimpleNamespace, workload: inp.Workload,
                  transport: str) -> Any:
    core = prog.core
    service = core.ShardedService(
        num_shards=workload.shards, admission=core.AdmissionController())
    return service.connect(SYNC_DOMAIN, transport=transport,
                           batch_size=inp.UPDATE_BATCH, config=prog.config)


def check_sync(prog: SimpleNamespace, workload: inp.Workload,
               inputs: inp.SyncInputs) -> ScoreCheck:
    """Replay the head of the warm-up and of chunk 0 three ways.

    Through a ``syscall`` client (every update lands at once, so scores
    must equal the reference model's exactly), through the reference,
    and through the workload's own transport to read what each predict
    is charged.
    """
    count = inputs.sizes.check_ops
    ops = inputs.warmup[:count] + inputs.chunk(0)[:count]
    rows = inputs.rows
    exact = _fresh_client(prog, workload, "syscall")
    own = _fresh_client(prog, workload, workload.transport)
    reference = _reference(prog)
    account = own.latency
    checked = mismatches = 0
    charges = []
    for code in ops:
        row = rows[code >> 2]
        if code & 2:
            direction = code & 1 == 1
            exact.update(row, direction)
            own.update(row, direction)
            reference.update(row, direction)
        else:
            checked += 1
            mismatches += exact.predict(row) != reference.predict(row)
            before = account.total_ns
            own.predict(row)
            charges.append(round(account.total_ns - before, 9))
    return ScoreCheck(checked, mismatches, charges)


def check_batch(prog: SimpleNamespace, workload: inp.Workload,
                inputs: inp.BatchInputs) -> ScoreCheck:
    """Train client and reference alike, then compare a chunk's head."""
    count = inputs.sizes.check_ops
    client = _fresh_client(prog, workload, workload.transport)
    reference = _reference(prog)
    for index in inputs.train_order[:count]:
        row, label = inputs.train_rows[index], inputs.train_labels[index]
        client.update(row, label)
        reference.update(row, label)
    account = client.latency
    checked = mismatches = 0
    charges = []
    batches = inputs.chunk(0)[:max(1, count // inp.BATCH_ROWS)]
    for batch in batches:
        before = account.total_ns
        scores = client.predict_batch(batch)
        charges.extend([round(account.total_ns - before, 9)] * len(batch))
        for row, score in zip(batch, scores):
            checked += 1
            mismatches += score != reference.predict(row)
    return ScoreCheck(checked, mismatches, charges)


def check_serve(prog: SimpleNamespace, workload: inp.Workload,
                inputs: inp.ServeInputs) -> ScoreCheck:
    """Run chunk 0 and replay what was admitted through one reference
    model per domain.

    A shard serves its queue in FIFO order and a domain lives on one
    shard, so per domain the admitted requests execute in submission
    order whatever the batching - which makes the reference replay
    exact for window 0 and for micro-batches alike.
    """
    schedule = inputs.chunk(0)
    futures = ServeDriver(prog, workload, inputs) \
        .prepare(schedule)().futures
    references = {name: _reference(prog) for name in inputs.names}
    checked = mismatches = 0
    for future, (_delay, name, row, is_update, direction) \
            in zip(futures, schedule):
        if future.error is not None:
            continue
        if is_update:
            references[name].update(row, direction)
        else:
            checked += 1
            mismatches += future.result() != references[name].predict(row)
    return ScoreCheck(checked, mismatches, [])


CHECKS = {"sync": check_sync, "batch": check_batch, "serve": check_serve}


@dataclass
class Charge:
    """One row of the simulated charge table."""

    metric: str
    path: str
    op: str
    rows: int
    expected_ns: float      # computed from LatencyModel
    observed_ns: float      # read back from the program

    @property
    def ok(self) -> bool:
        return math.isclose(self.expected_ns, self.observed_ns,
                            rel_tol=1e-9)


def charge_table(prog: SimpleNamespace) -> list[Charge]:
    """Expected simulated charge per (path, op, N) against what a
    ``LatencyAccount`` or a request's sojourn actually shows."""
    core, serving = prog.core, prog.serving
    model = core.LatencyModel()
    row = tuple(range(inp.NUM_FEATURES))
    workload = inp.WORKLOADS["sync_hot"]

    def charged(transport: str, call) -> float:
        client = _fresh_client(prog, workload, transport)
        call(client)
        return client.latency.total_ns

    def flush_32(client: Any) -> None:
        for _ in range(inp.UPDATE_BATCH):
            client.update(row, True)

    service = core.ShardedService(
        num_shards=1, admission=core.AdmissionController())
    service.create_domain(SYNC_DOMAIN, config=prog.config)
    pipeline = serving.ServingPipeline(service, serving.ServingConfig())
    future = pipeline.submit(SYNC_DOMAIN, row)
    pipeline.run()

    batch = inp.BATCH_ROWS
    return [
        Charge("sim.charge_vdso_predict_ns", "vdso", "predict", 1,
               model.vdso_predict_ns,
               charged("vdso", lambda c: c.predict(row))),
        Charge("sim.charge_syscall_predict_ns", "syscall", "predict", 1,
               model.syscall_ns,
               charged("syscall", lambda c: c.predict(row))),
        Charge("sim.charge_syscall_batch256_ns", "syscall",
               "predict_batch", batch,
               model.syscall_ns + batch * model.batch_record_ns,
               charged("syscall",
                       lambda c: c.predict_batch([row] * batch))),
        Charge("sim.charge_vdso_flush32_ns", "vdso", "flush",
               inp.UPDATE_BATCH,
               model.syscall_ns + inp.UPDATE_BATCH * model.batch_record_ns,
               charged("vdso", flush_32)),
        Charge("sim.charge_pipeline_scalar_ns", "pipeline", "predict", 1,
               model.syscall_ns + model.vdso_predict_ns,
               future.latency_ns),
    ]
