"""Deterministic fault injection for the service boundary.

The paper's safety argument is that predictions are *hints*: a wrong or
missing prediction may cost performance but never correctness.  This
module exists to exercise that property end to end: a :class:`FaultPlan`
declares which failures occur and how often, a :class:`FaultInjector`
rolls seeded, deterministic dice, and the transports consult the injector
at every boundary crossing.  The :class:`repro.core.client.PSSClient`
layer then has to absorb each injected failure without leaking an
exception into scenario code.

Injected failure modes:

* **syscall failures** - the crossing fails with a simulated ``EAGAIN``
  or ``EINTR`` (:class:`~repro.core.errors.TransportFault`); latency is
  still charged, exactly like a real failed syscall.
* **vDSO read staleness** - a prediction is answered from the previously
  observed score for that feature vector: a read-only mapping can lag
  the kernel's latest weight write.  Never an error, just old data.
* **dropped / partial batch flushes** - the batched update syscall fails
  after delivering none, or only a prefix, of the pooled records; the
  rest are lost (updates are fire-and-forget hints).
* **snapshot corruption** - checkpoint bytes are bit-flipped on their
  way to disk, which the persistence layer must *detect* (checksum)
  rather than silently restore.
* **shard crashes** - a shard's primary loses its in-memory state and
  stops serving; reads fail over to follower replicas, writes fail
  with :class:`~repro.core.errors.ShardDownError` until a promotion.
* **migration stalls** - one live-resharding slot handoff makes no
  progress this step (the migrator retries it later).
* **replica lag** - one follower refresh is skipped, leaving that
  replica a generation (or more) behind its primary.

Everything is reproducible: the same plan (same seed, same rates)
attached to the same workload injects the identical fault sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro.core.errors import ConfigError, TransportFault
from repro.obs.trace import NULL_TRACER

#: simulated errnos a failed crossing reports, chosen per-fault
SYSCALL_ERRNOS = ("EAGAIN", "EINTR")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject, all seeded.

    Rates are independent per-operation probabilities in ``[0, 1]``:
    ``syscall_failure_rate`` applies to every syscall crossing (predicts
    and updates on the syscall transport, batch flushes and resets on
    both), ``stale_read_rate`` to every vDSO prediction read,
    ``flush_drop_rate``/``partial_flush_rate`` to every batch flush (on
    top of the syscall rate), and ``corruption_rate`` to every snapshot
    checkpoint write.

    The kernel-side chaos rates are consulted by the sharded kernel
    rather than by transports: ``shard_crash_rate`` per crash
    opportunity the driver offers (e.g. once per chaos round),
    ``migration_stall_rate`` per live-resharding slot handoff, and
    ``replica_lag_rate`` per follower refresh.
    """

    seed: int = 0
    syscall_failure_rate: float = 0.0
    stale_read_rate: float = 0.0
    flush_drop_rate: float = 0.0
    partial_flush_rate: float = 0.0
    corruption_rate: float = 0.0
    shard_crash_rate: float = 0.0
    migration_stall_rate: float = 0.0
    replica_lag_rate: float = 0.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            if not spec.name.endswith("_rate"):
                continue
            value = getattr(self, spec.name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"{spec.name} must be in [0, 1], got {value}"
                )
        if self.flush_drop_rate + self.partial_flush_rate > 1.0:
            raise ConfigError(
                "flush_drop_rate + partial_flush_rate must not exceed 1"
            )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A plan injecting every *transport-level* fault at ``rate``.

        The flush budget is split evenly between full drops and partial
        deliveries.  This is the single knob the fault ablation sweeps.
        The kernel chaos rates (shard crash / migration stall / replica
        lag) stay zero: they need a sharded, replicated service to mean
        anything and are driven explicitly by the chaos harness.
        """
        return cls(
            seed=seed,
            syscall_failure_rate=rate,
            stale_read_rate=rate,
            flush_drop_rate=rate / 2.0,
            partial_flush_rate=rate / 2.0,
            corruption_rate=rate,
        )

    @property
    def any_faults(self) -> bool:
        return any(
            getattr(self, spec.name) > 0.0
            for spec in fields(self) if spec.name.endswith("_rate")
        )


@dataclass
class FaultStats:
    """What an injector actually injected (for reports and assertions)."""

    syscall_faults: int = 0
    stale_reads: int = 0
    dropped_flushes: int = 0
    partial_flushes: int = 0
    corrupted_snapshots: int = 0
    shard_crashes: int = 0
    migration_stalls: int = 0
    replica_lags: int = 0

    @property
    def total(self) -> int:
        return (self.syscall_faults + self.stale_reads
                + self.dropped_flushes + self.partial_flushes
                + self.corrupted_snapshots + self.shard_crashes
                + self.migration_stalls + self.replica_lags)


class FaultInjector:
    """Seeded decision engine; one per fault domain, attachable anywhere.

    Transports call the ``*_fault``/``stale_read``/``flush_outcome``
    hooks at their crossing points; the persistence layer calls the
    ``corrupt*`` hooks per checkpoint.  Each injector owns a private
    :class:`random.Random`, so decisions never perturb workload RNG
    streams and the whole fault sequence replays from the plan's seed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._rng = random.Random(f"pss-faults-{plan.seed}")
        #: structured event tracer (attached by the transport or caller);
        #: records a "fault_injected" event at each injection decision.
        #: Tracing never touches ``_rng``, so the fault sequence is
        #: identical with or without observability attached.
        self.tracer = NULL_TRACER

    def _trace_injection(self, mode: str) -> None:
        self.tracer.record("fault_injected", transport="injector",
                           detail={"mode": mode})

    def syscall_fault(self) -> TransportFault | None:
        """The fault for one syscall crossing, or None when it succeeds."""
        rate = self.plan.syscall_failure_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return None
        self.stats.syscall_faults += 1
        if self.tracer.enabled:
            self._trace_injection("syscall_failure")
        return TransportFault(self._rng.choice(SYSCALL_ERRNOS))

    def stale_read(self) -> bool:
        """Whether one vDSO read observes stale weights."""
        rate = self.plan.stale_read_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.stats.stale_reads += 1
        if self.tracer.enabled:
            self._trace_injection("stale_read")
        return True

    def flush_outcome(self, records: int) -> int:
        """How many of ``records`` a batch flush delivers.

        Returns ``records`` for a clean flush, ``0`` for a dropped one,
        and a strict prefix length for a partial delivery.
        """
        drop = self.plan.flush_drop_rate
        partial = self.plan.partial_flush_rate
        if records <= 0 or (drop <= 0.0 and partial <= 0.0):
            return records
        roll = self._rng.random()
        if roll < drop:
            self.stats.dropped_flushes += 1
            if self.tracer.enabled:
                self._trace_injection("flush_drop")
            return 0
        if roll < drop + partial:
            self.stats.partial_flushes += 1
            if self.tracer.enabled:
                self._trace_injection("partial_flush")
            return self._rng.randrange(records)
        return records

    def corrupt_snapshot(self) -> bool:
        """Whether one checkpoint write gets corrupted."""
        rate = self.plan.corruption_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.stats.corrupted_snapshots += 1
        if self.tracer.enabled:
            self._trace_injection("snapshot_corruption")
        return True

    def shard_crash(self) -> bool:
        """Whether one crash opportunity takes a shard's primary down."""
        rate = self.plan.shard_crash_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.stats.shard_crashes += 1
        if self.tracer.enabled:
            self._trace_injection("shard_crash")
        return True

    def migration_stall(self) -> bool:
        """Whether one slot handoff stalls (no progress this step)."""
        rate = self.plan.migration_stall_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.stats.migration_stalls += 1
        if self.tracer.enabled:
            self._trace_injection("migration_stall")
        return True

    def replica_lag(self) -> bool:
        """Whether one follower refresh is skipped (the replica lags)."""
        rate = self.plan.replica_lag_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.stats.replica_lags += 1
        if self.tracer.enabled:
            self._trace_injection("replica_lag")
        return True

    def corrupt_text(self, text: str) -> str:
        """Flip one bit of one character - simulated torn/corrupt write.

        The flipped bit (0x2) keeps the character in the ASCII range, so
        the damage is subtle: sometimes the JSON still parses and only
        the checksum can tell.
        """
        if not text:
            return text
        position = self._rng.randrange(len(text))
        flipped = chr(ord(text[position]) ^ 0x2)
        return text[:position] + flipped + text[position + 1:]
