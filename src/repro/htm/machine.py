"""A simulated best-effort hardware transactional memory.

Models the abort behaviour of an Intel-TSX-style HTM:

* **capacity** - a transaction whose footprint exceeds ``capacity_lines``
  always aborts (part-way through, so the wasted work is paid);
* **unsupported instructions** - abort at a point inside the transaction;
* **conflicts** - committer-wins: when a transaction commits, every running
  transaction whose read or write set intersects the committer's write set
  is aborted;
* **explicit / lock subscription** - eliding transactions subscribe to
  their mutex's lock word; when any thread acquires the lock, all
  subscribed transactions abort (the TSX lock-elision protocol).

Timing: ``begin``/``commit`` have small fixed costs and an abort charges
``abort_cost_ns`` (pipeline flush + rollback) *plus* the work already done,
which is what makes failed speculation expensive and the predict-don't-try
policy worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Engine
from repro.sim.process import SimEvent
from repro.sim.resources import SimMutex
from repro.htm.txn import AbortCode, TxAttemptShape, TxStats


@dataclass
class HTMConfig:
    """Cost and capacity parameters of the simulated HTM."""

    capacity_lines: int = 512
    begin_cost_ns: float = 25.0
    commit_cost_ns: float = 15.0
    #: rollback cost: pipeline flush, register restore, and the cold
    #: cache the re-execution starts with
    abort_cost_ns: float = 500.0
    #: fraction of the duration executed before a capacity abort hits;
    #: oversized working sets overflow the L1 quickly, so this is small
    capacity_abort_fraction: float = 0.08
    #: fraction of the duration executed before an unsupported-insn abort
    unsupported_abort_fraction: float = 0.2
    #: per-concurrent-transaction slowdown of a lock-path critical section
    #: touching the same data: doomed speculation keeps stealing the
    #: holder's cache lines, stretching the *serial* part of the program
    #: (the reason blindly retrying HTM can lose to not speculating)
    holder_interference: float = 0.15
    #: upper bound on the interference stretch factor
    holder_interference_cap: float = 2.5


@dataclass
class _RunningTx:
    """Book-keeping for one in-flight transaction."""

    shape: TxAttemptShape
    mutex: SimMutex | None
    outcome_event: SimEvent
    timer_id: int
    started_ns: float
    aborted: AbortCode | None = None
    read_lines: frozenset[int] = frozenset()
    write_lines: frozenset[int] = frozenset()


@dataclass
class TxResult:
    """What one HTM attempt produced."""

    committed: bool
    abort_code: AbortCode | None = None
    duration_ns: float = 0.0


@dataclass
class LockedSection:
    """An in-flight critical section executing under the lock.

    Its writes invalidate overlapping transactional read/write sets, and
    running transactions must not commit writes into lines it reads - the
    cache-coherence reality that makes lock holders and transactions
    conflict on *data*, independent of the lock word itself.
    """

    read_lines: frozenset[int]
    write_lines: frozenset[int]


class HTMMachine:
    """The shared transactional hardware all simulated threads use."""

    def __init__(self, engine: Engine,
                 config: HTMConfig | None = None) -> None:
        self.engine = engine
        self.config = config or HTMConfig()
        self.stats = TxStats()
        self._running: list[_RunningTx] = []
        # mutexes currently elided -> their running transactions
        self._lock_watchers: dict[int, list[_RunningTx]] = {}
        # critical sections currently executing under a lock
        self._locked_sections: list[LockedSection] = []

    @property
    def running_count(self) -> int:
        return len(self._running)

    def run_transaction(self, shape: TxAttemptShape,
                        mutex: SimMutex | None = None):
        """Generator: execute ``shape`` transactionally; yields a TxResult.

        Usage from a process body::

            result = yield from machine.run_transaction(shape, mutex)

        The attempt subscribes to ``mutex`` (if given) so a concurrent lock
        acquisition aborts it, matching hardware lock elision.
        """
        cfg = self.config
        self.stats.begins += 1
        start = self.engine.now
        yield cfg.begin_cost_ns

        # Deterministic early-outs: capacity and unsupported instructions
        # abort regardless of contention, after burning part of the work.
        if shape.footprint > cfg.capacity_lines:
            yield shape.duration_ns * cfg.capacity_abort_fraction
            yield cfg.abort_cost_ns
            self.stats.record_abort(AbortCode.CAPACITY)
            return TxResult(False, AbortCode.CAPACITY,
                            self.engine.now - start)
        if shape.unsupported:
            yield shape.duration_ns * cfg.unsupported_abort_fraction
            yield cfg.abort_cost_ns
            self.stats.record_abort(AbortCode.UNSUPPORTED)
            return TxResult(False, AbortCode.UNSUPPORTED,
                            self.engine.now - start)

        # Lock already held: the subscription read aborts us immediately
        # (the caller is expected to spin first; this is the race window).
        if mutex is not None and mutex.is_locked:
            yield cfg.abort_cost_ns
            self.stats.record_abort(AbortCode.EXPLICIT)
            return TxResult(False, AbortCode.EXPLICIT,
                            self.engine.now - start)

        outcome = SimEvent(self.engine)
        tx = _RunningTx(
            shape=shape,
            mutex=mutex,
            outcome_event=outcome,
            timer_id=0,
            started_ns=self.engine.now,
            read_lines=shape.read_lines,
            write_lines=shape.write_lines,
        )
        tx.timer_id = self.engine.schedule(
            shape.duration_ns, lambda: outcome.fire("done")
        )
        self._running.append(tx)
        if mutex is not None:
            self._lock_watchers.setdefault(id(mutex), []).append(tx)

        signal = yield outcome.wait()
        self._unregister(tx)

        if signal == "done" and tx.aborted is None:
            # A transaction cannot commit while a lock-path section is
            # touching the same data: its lines were invalidated.
            if self._conflicts_with_locked(tx):
                yield cfg.abort_cost_ns
                self.stats.record_abort(AbortCode.CONFLICT)
                return TxResult(False, AbortCode.CONFLICT,
                                self.engine.now - start)
            # Commit: invalidate conflicting concurrent transactions.
            yield cfg.commit_cost_ns
            self._abort_conflicting(tx)
            self.stats.commits += 1
            return TxResult(True, None, self.engine.now - start)

        yield cfg.abort_cost_ns
        code = tx.aborted or AbortCode.CONFLICT
        self.stats.record_abort(code)
        return TxResult(False, code, self.engine.now - start)

    # -- lock-path data tracking ----------------------------------------------

    def begin_locked_section(self, shape: TxAttemptShape) -> LockedSection:
        """Register a critical section now running under its lock.

        The section's writes immediately abort overlapping running
        transactions (cache-line invalidation).
        """
        section = LockedSection(shape.read_lines, shape.write_lines)
        for tx in list(self._running):
            touched = tx.read_lines | tx.write_lines
            if (section.write_lines & touched
                    or tx.write_lines & section.read_lines):
                self._abort_tx(tx, AbortCode.CONFLICT)
        self._locked_sections.append(section)
        return section

    def contention_stretch(self, spinners: int,
                           section: LockedSection) -> float:
        """Slowdown of a lock holder under speculative contention.

        Spinning threads hammer the lock word and running transactions
        ping-pong the section's data lines; both steal the holder's cache
        lines and stretch the *serial* part of the program.  This is the
        cost that makes blind speculation lose to not speculating - the
        "lemming effect" of lock elision.
        """
        interferers = spinners
        for tx in self._running:
            touched = tx.read_lines | tx.write_lines
            if (section.write_lines & touched
                    or tx.write_lines & section.read_lines):
                interferers += 1
        return min(
            1.0 + self.config.holder_interference * interferers,
            self.config.holder_interference_cap,
        )

    def end_locked_section(self, section: LockedSection) -> None:
        """The locked critical section finished."""
        if section in self._locked_sections:
            self._locked_sections.remove(section)

    def _conflicts_with_locked(self, tx: _RunningTx) -> bool:
        touched = tx.read_lines | tx.write_lines
        for section in self._locked_sections:
            if (section.write_lines & touched
                    or tx.write_lines & section.read_lines):
                return True
        return False

    # -- invalidation paths ---------------------------------------------------

    def notify_lock_acquired(self, mutex: SimMutex) -> None:
        """Abort every transaction subscribed to ``mutex``'s lock word.

        Called by the elision layer right after a slow-path lock acquire.
        """
        watchers = self._lock_watchers.get(id(mutex), [])
        for tx in list(watchers):
            self._abort_tx(tx, AbortCode.EXPLICIT)

    def _abort_conflicting(self, committer: _RunningTx) -> None:
        if not committer.write_lines:
            return
        for other in list(self._running):
            if other is committer:
                continue
            touched = other.read_lines | other.write_lines
            if committer.write_lines & touched:
                self._abort_tx(other, AbortCode.CONFLICT)

    def _abort_tx(self, tx: _RunningTx, code: AbortCode) -> None:
        if tx.aborted is not None:
            return
        tx.aborted = code
        self.engine.cancel(tx.timer_id)
        self._unregister(tx)
        tx.outcome_event.fire("abort")

    def _unregister(self, tx: _RunningTx) -> None:
        if tx in self._running:
            self._running.remove(tx)
        if tx.mutex is not None:
            watchers = self._lock_watchers.get(id(tx.mutex), [])
            if tx in watchers:
                watchers.remove(tx)
