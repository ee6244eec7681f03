"""The Prediction System Service: the paper-shaped name for the kernel.

Historically this module *was* the service - one monolithic class
owning a flat dict of domains.  The implementation lives in the layered
:mod:`repro.core.kernel` package (shards, stable-hash routing,
admission control, per-shard checkpoints); what remains here are the
names every caller programs against:

* :data:`PredictionService` - :class:`~repro.core.kernel.service
  .ShardedService` itself.  With its defaults (one shard, no admission
  controller) it is *bit-identical* to the pre-kernel monolith
  (property-tested against ``tests/core/reference_impl.py``); pass
  ``num_shards``/``admission`` to opt into the kernel's multi-tenant
  features without changing any call site.
* :class:`Domain` / :class:`DomainHandle` - re-exported from the
  kernel so historical imports (persistence, transports, tests) keep
  working unchanged.

The paper's three calls are made on a connection, ``connect(name)``
(or on the policy-checked ``handle(name)`` a transport calls into)::

    int  predict(int* features, int len)
    void update(int* features, int len, bool dir)
    void reset(int* features, int len, bool all)

with the domain name standing in for whatever addressing a real kernel
implementation would use (the paper's prototype exposes a single
implicit domain per registration).
"""

from __future__ import annotations

from repro.core.kernel.domain import Domain, DomainHandle
from repro.core.kernel.service import ShardedService

__all__ = ["Domain", "DomainHandle", "PredictionService"]

PredictionService = ShardedService
