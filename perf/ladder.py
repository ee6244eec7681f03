"""The layer ladder: the same call timed at every boundary it crosses.

One predict is timed at ``weights.dot``, then through the perceptron,
the domain, the handle, the kernel's convenience entry, each transport,
the client, the resilient client and finally the serving pipeline
(submit + run to completion); likewise one update and one batch row.
Each rung's *tax* is its cost minus the rung below.

Rungs are timed on the workload's own row distribution, because that is
what decides which caches answer:

* ``hot`` (sync_hot, serve_*): rows re-presented from a small set with
  the weights at rest - index and score caches hit;
* ``churned`` (sync_churn): a weight-moving update lands before every
  64 calls over 64 distinct rows, so every score-cache probe misses;
* ``cold`` (batch_cold): every row is new - index and score caches miss.

The rungs are visited round-robin (each round starting one rung
further on), a short block each, a few blocks between two calibration
slices, and a rung's value is the median of its normalised blocks.  Every rung therefore sees the same stretch of host
weather, which is what makes the difference of two rungs (a tax)
meaningful on a host whose speed moves by tens of percent within a
second.
"""

from __future__ import annotations

import statistics
import time
from array import array
from functools import partial
from types import SimpleNamespace
from typing import Any, Callable

import inputs as inp
from calibrate import Calibrator, normalise
from drivers import SYNC_DOMAIN, ClientDriver, ServeDriver
from spans import SpanRecorder

MIN_ROUNDS = 5
GROUP = 4          # blocks timed between two calibration slices
SUB_BLOCKS = 4     # a block is this many timed runs of SUB_CALLS calls
SUB_CALLS = 64
FLUSHES = 4        # flushes per block of the flush rung

#: a prepared block: call it to run the block, get its wall ns back
Block = Callable[[], int]


def _nothing() -> None:
    return None


def _run_calls(fn: Callable[[Any], Any], subs: list[list[Any]],
               before: Callable[[], Any]) -> int:
    """``fn(arg)`` over every run of ``subs``; the first run is a
    lead-in, made but not timed, so that what a block costs does not
    depend on what the block before it left in the caches."""
    now = time.perf_counter_ns
    total = 0
    for index, args in enumerate(subs):
        before()
        start = now()
        for arg in args:
            fn(arg)
        if index:
            total += now() - start
    return total


def _run_pairs(fn: Callable[[Any, Any], Any],
               subs: list[list[tuple[Any, Any]]]) -> int:
    """:func:`_run_calls` for ``fn(first, second)``; a loop of its own
    rather than an adapter, which would add a call to every timed op."""
    now = time.perf_counter_ns
    total = 0
    for index, args in enumerate(subs):
        start = now()
        for first, second in args:
            fn(first, second)
        if index:
            total += now() - start
    return total


class _Noop:
    def call(self, _arg: Any) -> None:
        return None


class _Stack:
    """One trained service and the objects the rungs call into."""

    def __init__(self, prog: SimpleNamespace, workload: inp.Workload,
                 inputs: Any) -> None:
        core = prog.core
        if workload.kind == "serve":
            service = ServeDriver(prog, workload, inputs) \
                .build().service
            self.name = inputs.names[0]
            self.rows = inputs.rows[self.name]
            self.labels = inputs.labels[self.name]
            for index in range(2_000):
                k = index % len(self.rows)
                service.update(self.name, self.rows[k], self.labels[k])
            self.transport_kind = "syscall"
        else:
            service = ClientDriver(prog, workload, inputs).service
            self.name = SYNC_DOMAIN
            if workload.kind == "sync":
                self.rows, self.labels = inputs.rows, inputs.labels
            else:
                self.rows = inputs.train_rows[:inp.WORKING_SET]
                self.labels = inputs.train_labels[:inp.WORKING_SET]
            self.transport_kind = workload.transport
        self.service = service
        self.domain = service.domain(self.name)
        self.model = self.domain.model
        self.weights = self.model.weights
        latency = service.config.latency
        self.handle = service.handle(self.name)
        self.vdso = core.make_transport(
            "vdso", service.handle(self.name), latency,
            batch_size=inp.UPDATE_BATCH)
        self.vdso_unflushed = core.make_transport(
            "vdso", service.handle(self.name), latency,
            batch_size=1 << 30)
        self.syscall = core.make_transport(
            "syscall", service.handle(self.name), latency)
        connect = partial(service.connect, self.name,
                          transport=self.transport_kind,
                          batch_size=inp.UPDATE_BATCH)
        self.client = connect()
        self.resilient = connect(fallback=0)


class Ladder:
    """Times every rung for one workload; ``run`` returns metrics."""

    def __init__(self, prog: SimpleNamespace, workload: inp.Workload,
                 inputs: Any, cal: Calibrator, budget_s: float) -> None:
        self.prog = prog
        self.cal = cal
        self.budget_s = budget_s
        self.distribution = ("cold" if workload.kind == "batch"
                             else "churned" if workload.label_noise
                             else "hot")
        self._inputs = inputs
        # updates move weights; they get a stack of their own so that
        # the read rungs' caches are disturbed only when the
        # distribution says so
        self.reads = _Stack(prog, workload, inputs)
        self.writes = _Stack(prog, workload, inputs)
        # window 0, no SLO monitor: the engine drains after every request
        self.pipeline = prog.serving.ServingPipeline(
            self.reads.service, prog.serving.ServingConfig())
        self._cursor = 0
        self._bumps = 0
        self._cold_next = 1 << 28   # far above any chunk's row numbers

    # -- row supply ---------------------------------------------------------

    def _rows(self, count: int) -> list[tuple[int, ...]]:
        if self.distribution == "cold":
            first = self._cold_next
            self._cold_next += count
            return self._inputs.fresh_rows(first, count)
        rows = self.reads.rows
        start = self._cursor
        self._cursor = (start + count) % len(rows)
        return [rows[(start + i) % len(rows)] for i in range(count)]

    def _labelled(self, count: int) -> list[tuple[tuple[int, ...], bool]]:
        rows, labels = self.writes.rows, self.writes.labels
        noisy = self.distribution == "churned"
        start = self._cursor
        self._cursor = (start + count) % len(rows)
        out = []
        for i in range(count):
            k = (start + i) % len(rows)
            # 3 in 10 labels flipped, the churn workload's noise level
            out.append((rows[k], labels[k] ^ (noisy and i % 10 < 3)))
        return out

    def _bump(self) -> None:
        """Move the read stack's weights (a generation bump), which
        invalidates every score cache in front of them."""
        domain, rows = self.reads.domain, self.reads.rows
        self._bumps += 1
        row = rows[self._bumps % len(rows)]
        generation = domain.generation
        domain.update(row, True)
        if domain.generation == generation:
            # the model already said True with confidence; then False
            # is a misprediction, and a misprediction always trains
            domain.update(row, False)
        if domain.generation == generation:
            raise AssertionError("an update pair moved no weight")

    # -- blocks -------------------------------------------------------------

    def _calls(self, fn: Callable[[Any], Any],
               after: Callable[[], Any] = _nothing
               ) -> Callable[[], tuple[Block, int]]:
        """``SUB_BLOCKS`` x ``SUB_CALLS`` calls of ``fn(row)``."""
        before = self._bump if self.distribution == "churned" \
            else _nothing

        def prepare() -> tuple[Block, int]:
            subs = [self._rows(SUB_CALLS) for _ in range(SUB_BLOCKS + 1)]

            def block() -> int:
                wall = _run_calls(fn, subs, before)
                after()
                return wall

            return block, SUB_BLOCKS * SUB_CALLS

        return prepare

    def _pairs(self, fn: Callable[[Any, Any], Any],
               after: Callable[[], Any] = _nothing
               ) -> Callable[[], tuple[Block, int]]:
        """``SUB_BLOCKS`` x ``SUB_CALLS`` calls of ``fn(row, label)``."""

        def prepare() -> tuple[Block, int]:
            subs = [self._labelled(SUB_CALLS)
                    for _ in range(SUB_BLOCKS + 1)]

            def block() -> int:
                wall = _run_pairs(fn, subs)
                after()
                return wall

            return block, SUB_BLOCKS * SUB_CALLS

        return prepare

    def _batches(self, fn: Callable[[Any], Any], batch: int,
                 convert: Callable[[list], Any] | None = None
                 ) -> Callable[[], tuple[Block, int]]:
        """``inp.BATCH_ROWS`` rows through ``fn`` in batches of
        ``batch``; the unit is one row."""
        before = self._bump if self.distribution == "churned" \
            else _nothing

        def prepare() -> tuple[Block, int]:
            batches = [self._rows(batch)
                       for _ in range(1 + inp.BATCH_ROWS // batch)]
            if convert is not None:
                batches = [convert(rows) for rows in batches]
            return (partial(_run_calls, fn, [batches[:1], batches[1:]],
                            before),
                    inp.BATCH_ROWS)

        return prepare

    def _flushes(self) -> Callable[[], tuple[Block, int]]:
        """One explicit flush of a full 32-record buffer."""
        transport = self.writes.vdso_unflushed
        update, flush = transport.update, transport.flush
        now = time.perf_counter_ns

        def prepare() -> tuple[Block, int]:
            buffers = [self._labelled(inp.UPDATE_BATCH)
                       for _ in range(FLUSHES + 1)]

            def block() -> int:
                total = 0
                for index, records in enumerate(buffers):
                    for row, label in records:
                        update(row, label)
                    start = now()
                    flush()
                    if index:   # the first flush is a lead-in
                        total += now() - start
                return total

            return block, FLUSHES

        return prepare

    # -- the rungs ----------------------------------------------------------

    def run(self) -> dict[str, float]:
        """Median normalised ns per unit of every rung, and the taxes."""
        rungs = self._rungs()
        samples: dict[str, list[float]] = {name: [] for name, _ in rungs}
        deadline = time.perf_counter() + self.budget_s
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            # the block right after a slice runs on the caches the
            # slice left behind; every round starts one rung further
            # on, so that this falls on each rung in turn and the
            # median passes over it
            order = rungs[rounds % len(rungs):] \
                + rungs[:rounds % len(rungs)]
            rounds += 1
            for first in range(0, len(order), GROUP):
                group = [(name, *prepare())
                         for name, prepare in order[first:first + GROUP]]
                before = self.cal.slice()
                walls = [(name, block() / units)
                         for name, block, units in group]
                after = self.cal.slice()
                for name, wall in walls:
                    samples[name].append(normalise(wall, before, after))
        m = {name: statistics.median(values)
             for name, values in samples.items()}
        own_transport = f"transport.{self.reads.transport_kind}_predict"
        for name, lower in (
            ("perceptron.predict", "weights.dot"),
            ("domain.predict", "perceptron.predict"),
            ("handle.predict", "domain.predict"),
            ("transport.vdso_predict", "handle.predict"),
            ("client.predict", own_transport),
            ("resilient.predict", "client.predict"),
            ("pipeline.submit_settle", "kernel.predict"),
        ):
            # differenced round by round: both rungs of a round ran
            # within a few tens of ms of each other
            m[f"{name}_tax_norm_ns"] = statistics.median(
                upper - below for upper, below
                in zip(samples[f"{name}_norm_ns"],
                       samples[f"{lower}_norm_ns"]))
        m["harness.ladder_rounds"] = float(rounds)
        return m

    def _rungs(self) -> list[tuple[str, Callable[[], tuple[Block, int]]]]:
        reads, writes = self.reads, self.writes
        name = reads.name
        submit, run = self.pipeline.submit, self.pipeline.run

        def submit_settle(row: tuple[int, ...]) -> int:
            future = submit(name, row)
            run()
            return future.result()

        weights = reads.weights
        flat = array("b", list(weights.iter_weights())[:-1])
        plan, bias = weights.plan, weights.bias

        tracer = self.prog.obs.Tracer()
        registry = self.prog.obs.MetricsRegistry()

        def span(_row: Any) -> None:
            with tracer.span("kernel.predict", domain=name,
                             transport="kernel", shard="0"):
                pass

        recorder = SpanRecorder()
        noop = _Noop()
        recorder.wrap(noop, "call", "noop")

        calls, pairs, batches = self._calls, self._pairs, self._batches
        return [
            # scalar predict
            ("weights.dot_norm_ns", calls(weights.dot)),
            ("perceptron.predict_norm_ns", calls(reads.model.predict)),
            ("domain.predict_norm_ns", calls(reads.domain.predict)),
            ("handle.predict_norm_ns", calls(reads.handle.predict)),
            ("kernel.predict_norm_ns",
             calls(partial(reads.service.predict, name))),
            ("transport.vdso_predict_norm_ns", calls(reads.vdso.predict)),
            ("transport.syscall_predict_norm_ns",
             calls(reads.syscall.predict)),
            ("client.predict_norm_ns", calls(reads.client.predict)),
            ("resilient.predict_norm_ns",
             calls(reads.resilient.predict)),
            ("pipeline.submit_settle_norm_ns", calls(submit_settle)),
            # update
            ("perceptron.update_norm_ns", pairs(writes.model.update)),
            ("handle.update_norm_ns", pairs(writes.handle.update)),
            ("kernel.update_norm_ns",
             pairs(partial(writes.service.update, name))),
            ("transport.vdso_update_norm_ns",
             pairs(writes.vdso_unflushed.update,
                   writes.vdso_unflushed.flush)),
            ("transport.flush_norm_ns", self._flushes()),
            ("client.update_norm_ns", pairs(writes.client.update)),
            # batch, per row
            ("plans.score_rows_norm_ns",
             batches(partial(plan.score_rows, flat, bias),
                     inp.BATCH_ROWS)),
            ("weights.dot_batch16_norm_ns",
             batches(weights.dot_batch, 16)),
            ("weights.dot_batch256_norm_ns",
             batches(weights.dot_batch, inp.BATCH_ROWS)),
            ("perceptron.predict_batch256_norm_ns",
             batches(reads.model.predict_batch, inp.BATCH_ROWS)),
            ("kernel.predict_batch256_norm_ns",
             batches(reads.service.predict_batch, inp.BATCH_ROWS,
                     lambda rows: [(name, row) for row in rows])),
            ("transport.syscall_predict_batch256_norm_ns",
             batches(reads.syscall.predict_batch, inp.BATCH_ROWS)),
            ("client.predict_batch16_norm_ns",
             batches(reads.client.predict_batch, 16)),
            ("client.predict_batch256_norm_ns",
             batches(reads.client.predict_batch, inp.BATCH_ROWS)),
            # what one unit of watching costs
            ("obs.tracer_record_norm_ns", calls(
                lambda _row: tracer.record(
                    "predict", domain=name, transport="vdso", ts_ns=1.0,
                    dur_ns=4.19, generation=1, shard="0"),
                tracer.clear)),
            ("obs.span_norm_ns", calls(span, tracer.clear)),
            ("obs.metrics_observe_norm_ns", calls(
                lambda _row: registry.histogram(
                    "pss_op_ns", op="predict", domain=name,
                    transport="vdso").observe(4.19))),
            ("harness.span_norm_ns", calls(noop.call, recorder.drain)),
        ]
