"""Micro-batching policy: when a dispatcher drains, and how much.

The serving pipeline wins throughput the same way the syscall batch
transport does - amortizing one boundary crossing over many rows - but
at the *request* layer: a :class:`MicroBatcher` decides, from queue
depth and the configured simulated-time window, when the per-shard
dispatcher should stop collecting and cross.

Two triggers, mirroring every production batcher:

* **size** - the queue already holds a full batch (``max_batch``), so
  the dispatcher drains immediately;
* **timeout** - the batch window expired with a partial batch, which
  drains anyway (bounded added latency is the contract that makes
  batching safe to enable).

``batch_window_ns == 0`` disables batching entirely: requests drain
one at a time in arrival order, each paying a full crossing - the
scalar-equivalent mode whose results are bit-identical to the
synchronous call path (see ``tests/serving/test_identity.py``).
"""

from __future__ import annotations

from repro.core.config import LatencyModel
from repro.core.errors import ConfigError
from repro.core.serving.queue import Request, RequestQueue

#: drain-trigger labels stamped on ``request`` events and
#: ``serve.dispatch`` spans
TRIGGER_SCALAR = "scalar"
TRIGGER_SIZE = "size"
TRIGGER_TIMEOUT = "timeout"


class MicroBatcher:
    """Size/window drain policy plus the batch cost model."""

    def __init__(self, latency: LatencyModel, max_batch: int = 32,
                 batch_window_ns: float = 0.0) -> None:
        if max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {max_batch}")
        if batch_window_ns < 0:
            raise ConfigError(
                f"batch_window_ns must be >= 0, got {batch_window_ns}")
        self.max_batch = max_batch
        self.batch_window_ns = batch_window_ns
        #: the service's crossing costs, which a synchronous client
        #: of the same service is charged too
        self.latency = latency
        self.batches = 0
        self.flush_timeouts = 0
        self.rows = 0

    def collect_ns(self, depth: int) -> float:
        """How long the dispatcher should keep collecting before it
        drains, given the queue depth at wake-up.

        Zero when batching is off (drain the head immediately) or the
        queue already holds a full batch (size trigger); otherwise the
        configured window (timeout trigger ceiling - an early size
        trigger is checked again after the sleep by :meth:`drain`).
        """
        if self.batch_window_ns == 0 or depth >= self.max_batch:
            return 0.0
        return self.batch_window_ns

    def drain(self, queue: RequestQueue) -> tuple[list[Request], str]:
        """Drain one micro-batch; returns ``(batch, trigger)``.

        Scalar mode takes exactly one request per dispatch; batching
        mode takes up to ``max_batch`` (whatever arrived inside the
        window beyond that stays queued for the immediately-following
        drain).  Counts batches, rows, and timeout flushes.
        """
        if self.batch_window_ns == 0:
            batch = queue.drain(1)
            trigger = TRIGGER_SCALAR
        else:
            batch = queue.drain(self.max_batch)
            trigger = (TRIGGER_SIZE if len(batch) == self.max_batch
                       else TRIGGER_TIMEOUT)
        if batch:
            self.batches += 1
            self.rows += len(batch)
            if trigger == TRIGGER_TIMEOUT:
                self.flush_timeouts += 1
        return batch, trigger

    def service_ns(self, rows: int) -> float:
        """Simulated cost of crossing one drained batch.

        One syscall-grade boundary crossing amortized over the batch
        plus a vDSO-grade per-row model evaluation - the same
        accounting shape as the batch transport, which is what makes
        batch-window sweeps comparable against the scalar path (a
        1-row batch costs exactly a scalar crossing).
        """
        return (self.latency.syscall_ns
                + rows * self.latency.vdso_predict_ns)

    def snapshot(self) -> dict[str, float]:
        return {
            "batches": self.batches,
            "rows": self.rows,
            "flush_timeouts": self.flush_timeouts,
            "mean_batch": (self.rows / self.batches
                           if self.batches else 0.0),
        }
