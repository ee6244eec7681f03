"""Event-driven serving: per-shard lanes and completion futures.

The blocking call stack (`client -> transport -> kernel`, one request
per frame) is refactored here into a split request path on the
deterministic sim engine: ``submit`` enqueues and returns a
:class:`CompletionFuture`; each shard's :class:`Dispatcher` lane (its
FIFO, its drain rule and one sim process) drains micro-batches and
settles the futures.  ``ServingPipeline`` wires it together and makes
back-pressure real (queue limits and SLO-page shedding through the
:class:`~repro.core.kernel.admission.AdmissionController`).

See docs/SERVING.md for the architecture and tuning guide.
"""

from repro.core.serving.dispatch import (
    Dispatcher,
    Request,
    TRIGGER_SCALAR,
    TRIGGER_SIZE,
    TRIGGER_TIMEOUT,
)
from repro.core.serving.future import CompletionFuture
from repro.core.serving.pipeline import (
    SERVE_SLO,
    ServingConfig,
    ServingPipeline,
    serving_slos,
)

__all__ = [
    "CompletionFuture",
    "Dispatcher",
    "Request",
    "SERVE_SLO",
    "ServingConfig",
    "ServingPipeline",
    "TRIGGER_SCALAR",
    "TRIGGER_SIZE",
    "TRIGGER_TIMEOUT",
    "serving_slos",
]
