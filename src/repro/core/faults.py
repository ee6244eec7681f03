"""Deterministic fault injection for the service boundary.

The paper's safety argument is that predictions are *hints*: a wrong or
missing prediction may cost performance but never correctness.  This
module exists to exercise that property end to end: a :class:`FaultPlan`
declares which failures occur and how often, a :class:`FaultInjector`
rolls seeded, deterministic dice, and a :class:`FaultLayer` in front of
a transport rolls them at every boundary crossing - the transports
themselves know nothing of faults.  The
:class:`repro.core.client.PSSClient` then has to absorb each injected
failure without leaking an exception into scenario code.

Injected failure modes:

* **syscall failures** - the crossing fails with a simulated ``EAGAIN``
  or ``EINTR`` (:class:`~repro.core.errors.TransportFault`); latency is
  still charged, exactly like a real failed syscall.
* **vDSO read staleness** - a prediction is answered from the last
  score the layer read for that feature vector: a read-only mapping can
  lag the kernel's latest weight write.  Never an error, just old data.
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
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Sequence

from repro.core.errors import (
    AdmissionError,
    ConfigError,
    FeatureError,
    PSSError,
    ShardDownError,
    TransportFault,
)
from repro.core.transport import Transport, VdsoTransport
from repro.obs.spanned import named, spanned
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


class FaultInjector:
    """Seeded decision engine; one per fault domain, attachable anywhere.

    A :class:`FaultLayer` calls the ``syscall_fault`` / ``stale_read``
    / ``flush_outcome`` hooks at a transport's crossing points; the
    persistence layer calls the ``corrupt*`` hooks per checkpoint and
    the sharded kernel the chaos hooks.  Each injector owns a private
    :class:`random.Random`, so decisions never perturb workload RNG
    streams and the whole fault sequence replays from the plan's seed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._rng = random.Random(f"pss-faults-{plan.seed}")
        #: structured event tracer (attached by the layer or caller);
        #: records a "fault_injected" event at each injection decision.
        #: Tracing never touches ``_rng``, so the fault sequence is
        #: identical with or without observability attached.
        self.tracer = NULL_TRACER

    def _injected(self, stat: str, mode: str) -> None:
        """Count one injection in ``stats.<stat>``; trace it as
        ``mode``."""
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        if self.tracer.enabled:
            self.tracer.record("fault_injected", transport="injector",
                               detail={"mode": mode})

    def _roll(self, rate: float, stat: str, mode: str) -> bool:
        """One die against ``rate`` (none at a zero rate); a hit is
        :meth:`_injected`."""
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self._injected(stat, mode)
        return True

    def syscall_fault(self) -> TransportFault | None:
        """The fault for one syscall crossing, or None when it succeeds."""
        if not self._roll(self.plan.syscall_failure_rate, "syscall_faults",
                          "syscall_failure"):
            return None
        return TransportFault(self._rng.choice(SYSCALL_ERRNOS))

    def stale_read(self) -> bool:
        """Whether one vDSO read observes stale weights."""
        return self._roll(self.plan.stale_read_rate, "stale_reads",
                          "stale_read")

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
            self._injected("dropped_flushes", "flush_drop")
            return 0
        if roll < drop + partial:
            self._injected("partial_flushes", "partial_flush")
            return self._rng.randrange(records)
        return records

    def corrupt_snapshot(self) -> bool:
        """Whether one checkpoint write gets corrupted."""
        return self._roll(self.plan.corruption_rate, "corrupted_snapshots",
                          "snapshot_corruption")

    def shard_crash(self) -> bool:
        """Whether one crash opportunity takes a shard's primary down."""
        return self._roll(self.plan.shard_crash_rate, "shard_crashes",
                          "shard_crash")

    def migration_stall(self) -> bool:
        """Whether one slot handoff stalls (no progress this step)."""
        return self._roll(self.plan.migration_stall_rate,
                          "migration_stalls", "migration_stall")

    def replica_lag(self) -> bool:
        """Whether one follower refresh is skipped (the replica lags)."""
        return self._roll(self.plan.replica_lag_rate, "replica_lags",
                          "replica_lag")

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


class FaultLayer:
    """Every transport-level fault, one layer in front of a plain
    transport (:func:`attach_injector`), whose bodies stay clean.

    The layer stands in for the transport's kernel target, its
    ``DomainHandle``: a syscall ``predict`` or ``predict_batch``, and a
    ``reset`` on either transport, rolls its crossing's die between the
    plain body's charge and event and the handle call, so a failed
    crossing still cost its syscall.  A batch is one crossing, so its
    die rolls *once per batch*: a fault loses the whole batch (no
    partial scores), and a fault sequence seen under scalar predicts
    does not line up with one seen under batching.

    Where the work depends on the die the layer owns the body, an
    instance attribute shadowing the transport's method: a syscall
    ``update`` counts and traces only a record that crossed; a vDSO
    ``flush`` rolls its crossing die, then its delivery die, then
    charges and traces what it delivered (the flush an update, a
    ``reset`` or ``close`` runs is this one).  While the plan injects
    stale reads, a vDSO read is the layer's: a read-only mapping can
    lag the kernel's writes, and a stale read answers from the last
    score this layer read for the row.  It bypasses the score cache -
    the stale die rolls on every read, in row order; a memoized fresh
    score must not mask staleness, nor a stale one poison the cache.
    At rate 0 the read is the plain cached one.  Buffered records,
    account and tracer stay the transport's; stale scores go with the
    layer.
    """

    #: feature vectors remembered for stale reads
    STALE_CACHE_ENTRIES = 512

    def __init__(self, transport: Transport,
                 injector: FaultInjector) -> None:
        self.transport, self.injector = transport, injector
        self.handle = transport._target
        self._stale: OrderedDict[tuple[int, ...], int] = OrderedDict()
        if transport._tracer.enabled:
            injector.tracer = transport._tracer
        owned = {"attach_observability": self.attach_observability}
        if not isinstance(transport, VdsoTransport):
            owned["update"] = self.update
        else:
            owned.update(flush=self.flush, close=self.close)
            if injector.plan.stale_read_rate > 0.0:
                owned.update(predict=self.read, predict_batch=self.read_batch)
        transport._target = self
        vars(transport).update(owned)

    def detach(self) -> None:
        """Give the transport back its own methods and kernel target."""
        for name in ("attach_observability", "update", "flush", "close",
                     "predict", "predict_batch"):
            vars(self.transport).pop(name, None)
        self.transport._target = self.handle

    def _roll(self, op: str) -> None:
        """One syscall crossing's die; a fault is traced and raised."""
        fault = self.injector.syscall_fault()
        if fault is not None:
            if self.transport._tracer.enabled:
                self.transport._trace(
                    "fault", detail={"op": op, "errno": fault.errno_name})
            raise fault

    # -- the kernel target's calls -------------------------------------------

    def predict(self, features: tuple[int, ...]) -> int:
        self._roll("predict")
        return self.handle.predict(features)

    def predict_batch(self, rows: list[tuple[int, ...]]) -> list[int]:
        self._roll("predict_batch")
        return self.handle.predict_batch(rows)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        self._roll("reset")
        self.handle.reset(features, reset_all)

    # -- the transport's methods it shadows ----------------------------------

    def _op_span(self, op: str, detail: dict | None = None):
        return self.transport._op_span(op, detail)

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """The transport's; the injector traces through its tracer."""
        type(self.transport).attach_observability(
            self.transport, tracer, metrics)
        if tracer is not None:
            self.injector.tracer = tracer

    @spanned(named(_op_span, "update"), tracer="transport._tracer")
    def update(self, features: Sequence[int], direction: bool) -> None:
        transport, account = self.transport, self.transport.account
        transport._ensure_open()
        syscall_ns = transport._latency.syscall_ns
        account.charge_syscall(syscall_ns)
        account.charge_op("update", syscall_ns)
        self._roll("update")
        # only a record that crossed is counted and traced
        account.update_records += 1
        if transport._tracer.enabled:
            transport._trace("update", dur_ns=syscall_ns,
                             detail={"direction": direction})
        self.handle.update(features, direction)

    @spanned(lambda self: self.transport._flush_span(),
             tracer="transport._tracer")
    def flush(self) -> None:
        transport, account = self.transport, self.transport.account
        transport._ensure_open()
        records, transport._records = transport._records, []
        if not records:
            return
        count, latency = len(records), transport._latency
        cost = latency.syscall_ns + latency.batch_record_ns * count
        account.charge_op("flush", cost)
        fault = self.injector.syscall_fault()
        delivered = 0 if fault else self.injector.flush_outcome(count)
        if not fault and delivered < count:
            fault = TransportFault("EAGAIN", message=(
                f"batch flush delivered {delivered} of {count} records"))
        account.charge_syscall(cost, records=delivered)
        if transport._tracer.enabled:
            transport._trace("flush", dur_ns=cost, detail={
                "records": count, "delivered": delivered})
            if fault:
                transport._trace("fault", detail={
                    "op": "flush", "errno": fault.errno_name,
                    "lost_records": count - delivered})
        # A lost record is one handed over and not applied: the suffix
        # never delivered, and what the handle did not apply of the rest.
        error, lost = fault, count - delivered
        try:
            if delivered:
                self.handle.update_batch(records[:delivered])
        except (AdmissionError, ShardDownError, FeatureError) as refused:
            lost += refused.lost_records
            if not fault:
                transport._trace_refused_flush(refused)
                error = refused
        except PSSError as refused:
            # the caller may not write here at all, or the domain is
            # gone: the refusal is the outcome, fault or not
            lost += refused.lost_records
            error = refused
        if error is not None:
            error.lost_records = lost
            raise error  # the undelivered rest is gone: updates are hints

    def close(self) -> None:
        try:
            VdsoTransport.close(self.transport)
        finally:
            self._stale.clear()

    def read(self, features: Sequence[int]) -> int:
        transport, account = self.transport, self.transport.account
        transport._ensure_open()
        vdso_ns = transport._latency.vdso_predict_ns
        account.vdso_ns += vdso_ns
        account.vdso_calls += 1
        generation = transport._version.value
        traced = transport._tracer.enabled
        try:
            score = self._stale_or_fresh(
                features if type(features) is tuple else tuple(features))
        except Exception as error:
            if traced:
                transport._trace("predict", vdso_ns, {
                    "outcome": f"error:{type(error).__name__}"}, generation)
            raise
        if traced:
            transport._trace("predict", vdso_ns, None, generation)
        return score

    @spanned(named(_op_span, "predict_batch", "rows"),
             tracer="transport._tracer")
    def read_batch(self, feature_rows: Sequence[Sequence[int]]
                   ) -> list[int]:
        transport, account = self.transport, self.transport.account
        transport._ensure_open()
        rows = [f if type(f) is tuple else tuple(f) for f in feature_rows]
        vdso_ns = transport._latency.vdso_predict_ns
        scores = []
        for row in rows:
            account.vdso_ns += vdso_ns
            account.vdso_calls += 1
            if transport._tracer.enabled:
                transport._trace("predict", dur_ns=vdso_ns)
            scores.append(self._stale_or_fresh(row))
        return scores

    def _stale_or_fresh(self, row: tuple[int, ...]) -> int:
        stale = self._stale
        if self.injector.stale_read() and row in stale:
            if self.transport._tracer.enabled:
                self.transport._trace("stale_read")
            return stale[row]
        score = self.handle.predict_mapped(row)
        if row not in stale and len(stale) >= self.STALE_CACHE_ENTRIES:
            stale.popitem(last=False)
        stale[row] = score
        return score


def attach_injector(transport: Transport,
                    injector: FaultInjector | None) -> None:
    """Put a :class:`FaultLayer` for ``injector`` in front of
    ``transport``, replacing any there; ``None`` removes it (the
    transport healed)."""
    if isinstance(transport._target, FaultLayer):
        transport._target.detach()
    if injector is not None:
        FaultLayer(transport, injector)
