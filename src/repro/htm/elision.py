"""Lock-elision policies: vanilla fixed-retry, HTMBench-like, and PSS.

Each policy implements the paper's ``TxLock``/``TxUnlock`` pair as one
``critical_section`` generator executed by a simulated thread: given a
sampled :class:`TxAttemptShape`, it decides how to run the section (elide
via HTM or take the lock) and reports which path was taken.

* :class:`LockOnlyPolicy` - never elides; the pure-pessimism floor.
* :class:`FixedRetryElision` - Listing 1 without the gray lines: always
  try HTM with a fixed retry budget, then fall back (vanilla STAMP-HTM).
* :class:`ProfiledElision` - an HTMBench-style statically tuned plan:
  per critical section, profiling decides whether to elide at all and
  with how many retries.
* :class:`PSSElision` - Listing 1 *with* the gray lines: a PSS client
  predicts per entry whether HTM is worth attempting, using the thread's
  success-history register and the remaining retry budget as features,
  and is rewarded/penalized in ``TxUnlock``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client import PSSClient
from repro.core.features import HistoryRegister
from repro.htm.locks import ElidableLock
from repro.htm.machine import HTMMachine
from repro.htm.txn import AbortCode, PERSISTENT_ABORTS, TxAttemptShape

#: default retry budget, as in Listing 1's MAX_RETRIES
MAX_RETRIES = 3


@dataclass
class SectionOutcome:
    """What happened to one critical-section execution."""

    used_htm: bool
    fell_back: bool
    attempts: int


@dataclass
class SectionCounters:
    """Outcome counts for one critical section id."""

    sections: int = 0
    htm_commits: int = 0
    lock_paths: int = 0
    skipped_htm: int = 0

    def add(self, outcome: SectionOutcome) -> None:
        self.sections += 1
        if outcome.used_htm and not outcome.fell_back:
            self.htm_commits += 1
        if outcome.fell_back:
            self.lock_paths += 1
        if not outcome.used_htm:
            self.skipped_htm += 1

    @property
    def htm_success_rate(self) -> float:
        """Committed-via-HTM fraction of all executions of this section."""
        return self.htm_commits / self.sections if self.sections else 0.0


@dataclass
class PolicyStats:
    """Per-policy aggregate outcomes (beyond the machine's TxStats)."""

    total: SectionCounters = field(default_factory=SectionCounters)
    per_section: dict[int, SectionCounters] = field(default_factory=dict)

    def record(self, outcome: SectionOutcome, section_id: int = 0) -> None:
        self.total.add(outcome)
        if section_id not in self.per_section:
            self.per_section[section_id] = SectionCounters()
        self.per_section[section_id].add(outcome)

    # convenience pass-throughs used by tests and reports
    @property
    def sections(self) -> int:
        return self.total.sections

    @property
    def htm_commits(self) -> int:
        return self.total.htm_commits

    @property
    def lock_paths(self) -> int:
        return self.total.lock_paths

    @property
    def skipped_htm(self) -> int:
        return self.total.skipped_htm


class ElisionPolicy:
    """Base: run a critical section, taking either the HTM or lock path."""

    name = "base"

    def __init__(self, machine: HTMMachine) -> None:
        self.machine = machine
        self.stats = PolicyStats()
        #: abort codes of the most recent failed _htm_attempts round
        self._last_abort_codes: list = []

    def critical_section(self, thread_id: int, section_id: int,
                         lock: ElidableLock, shape: TxAttemptShape):
        """Generator executing the section; returns a SectionOutcome."""
        raise NotImplementedError

    # -- shared path helpers -------------------------------------------------

    def _lock_path(self, lock: ElidableLock, shape: TxAttemptShape):
        yield from lock.lock()
        section = self.machine.begin_locked_section(shape)
        # First half runs at full speed; the second half is stretched by
        # the coherence traffic of whoever is speculating/spinning against
        # the held lock at that point (sampled mid-section).
        yield shape.duration_ns * 0.5
        stretch = self.machine.contention_stretch(lock.spinners, section)
        yield shape.duration_ns * 0.5 * stretch
        self.machine.end_locked_section(section)
        lock.unlock()

    def _htm_attempts(self, lock: ElidableLock, shape: TxAttemptShape,
                      retries: int, break_on_persistent: bool = True):
        """Generator: try HTM up to ``retries`` times; returns attempt count
        or the negative count if all attempts failed.

        ``break_on_persistent`` stops retrying after capacity/unsupported
        aborts, which retrying cannot fix; the naive fixed-retry baseline
        lacks that optimization and burns its whole budget.
        """
        attempts = 0
        self._last_abort_codes = []
        # Spin long enough to outlast a typical holder of *this* section
        # (a fixed budget under-spins long sections and over-spins short
        # ones); clamp so pathological durations stay bounded.
        max_spin = min(max(4.0 * shape.duration_ns, 2_000.0), 20_000.0)
        for _ in range(retries):
            yield from lock.spin_while_locked(max_spin)
            attempts += 1
            result = yield from self.machine.run_transaction(
                shape, lock.mutex
            )
            if result.committed:
                return attempts
            self._last_abort_codes.append(result.abort_code)
            if break_on_persistent and \
                    result.abort_code in PERSISTENT_ABORTS:
                break  # retrying cannot help this shape
        return -attempts


class LockOnlyPolicy(ElisionPolicy):
    """Plain locking; no speculation at all."""

    name = "lock-only"

    def critical_section(self, thread_id, section_id, lock, shape):
        yield from self._lock_path(lock, shape)
        outcome = SectionOutcome(used_htm=False, fell_back=True, attempts=0)
        self.stats.record(outcome, section_id)
        return outcome


class FixedRetryElision(ElisionPolicy):
    """Naive HLE: always speculate, fixed retry budget (Listing 1's
    white-background code).

    Figure 2 normalises to the lock-based vanilla STAMP; this policy is
    the un-tuned HTM reference the profiled/PSS configurations improve
    on.  Note it does *not* give up on persistent aborts across sections
    - every entry pays the full failed speculation cost again, which is
    exactly the waste the smarter policies remove.
    """

    name = "vanilla-hle"

    def __init__(self, machine: HTMMachine,
                 max_retries: int = MAX_RETRIES) -> None:
        super().__init__(machine)
        self.max_retries = max_retries

    def critical_section(self, thread_id, section_id, lock, shape):
        attempts = yield from self._htm_attempts(
            lock, shape, self.max_retries, break_on_persistent=False
        )
        if attempts > 0:
            outcome = SectionOutcome(True, False, attempts)
        else:
            yield from self._lock_path(lock, shape)
            outcome = SectionOutcome(True, True, -attempts)
        self.stats.record(outcome, section_id)
        return outcome


class ProfiledElision(ElisionPolicy):
    """HTMBench-like statically tuned elision.

    ``plan`` maps section id to ``(use_htm, retries)`` and is produced by
    offline profiling (see :func:`repro.htm.runner.build_profile_plan`):
    sections whose transactions mostly abort are executed with the lock
    directly; the rest get a retry budget matched to their success rate.
    """

    name = "htmbench"

    def __init__(self, machine: HTMMachine,
                 plan: dict[int, tuple[bool, int]],
                 default_retries: int = MAX_RETRIES) -> None:
        super().__init__(machine)
        self.plan = plan
        self.default_retries = default_retries

    def critical_section(self, thread_id, section_id, lock, shape):
        use_htm, retries = self.plan.get(
            section_id, (True, self.default_retries)
        )
        if not use_htm:
            yield from self._lock_path(lock, shape)
            outcome = SectionOutcome(False, True, 0)
            self.stats.record(outcome, section_id)
            return outcome
        attempts = yield from self._htm_attempts(lock, shape, retries)
        if attempts > 0:
            outcome = SectionOutcome(True, False, attempts)
        else:
            yield from self._lock_path(lock, shape)
            outcome = SectionOutcome(True, True, -attempts)
        self.stats.record(outcome, section_id)
        return outcome


@dataclass
class _SectionPredictorState:
    """Per-(thread, section) PSS state: the Listing 1 gray-line variables.

    The paper's first feature is "a thread-level performance counter from
    past transactions" where "each bit represents one transaction
    attempt"; we keep one register per critical section a thread touches,
    since distinct locks have distinct elision behaviour.
    """

    history: HistoryRegister = field(
        default_factory=lambda: HistoryRegister(bits=16)
    )
    remaining_retries: int = MAX_RETRIES
    #: consecutive times the predictor chose the lock without probing
    skips_since_probe: int = 0


class PSSElision(ElisionPolicy):
    """Listing 1 with PSS guidance.

    Features (paper Section 4.1): a per-thread success-history integer
    where "each bit represents one transaction attempt", and the number of
    retries left before hitting MAX_RETRIES.  TxUnlock rewards the
    predictor when a recommended HTM path committed and penalizes it when
    the recommendation ended on the slow path.
    """

    name = "pss"

    #: after this many consecutive lock-path choices, probe HTM once so
    #: the predictor cannot stay trapped on the slow path (the paper's
    #: "predetermined threshold" against lock-in)
    PROBE_INTERVAL = 4

    #: cost of gathering the input features (reading per-thread perf
    #: counters), paid on every prediction
    FEATURE_COST_NS = 15.0

    def __init__(self, machine: HTMMachine, client: PSSClient,
                 max_retries: int = MAX_RETRIES,
                 charge_latency: bool = True) -> None:
        super().__init__(machine)
        self.client = client
        self.max_retries = max_retries
        self.charge_latency = charge_latency
        self._states: dict[tuple[int, int], _SectionPredictorState] = {}

    def _state(self, thread_id: int,
               section_id: int) -> _SectionPredictorState:
        key = (thread_id, section_id)
        if key not in self._states:
            self._states[key] = _SectionPredictorState(
                remaining_retries=self.max_retries
            )
        return self._states[key]

    def _predict_cost_ns(self) -> float:
        account = self.client.latency
        # Charge mean per-call cost for whichever transport is in use;
        # before the first call, the cost model's figure.
        if self.client.transport_name == "vdso":
            if account.vdso_calls:
                return account.mean_vdso_ns
            return self.client.latency_model.vdso_predict_ns
        if account.syscalls:
            return account.mean_syscall_ns
        return self.client.latency_model.syscall_ns

    def critical_section(self, thread_id, section_id, lock, shape):
        state = self._state(thread_id, section_id)
        features = [state.history.value, state.remaining_retries]

        use_htm = self.client.predict_bool(features)
        if self.charge_latency:
            yield self.FEATURE_COST_NS + self._predict_cost_ns()

        # Anti-trapping probe: after enough consecutive lock choices, run
        # the section as a *non-subscribing* measurement transaction.  It
        # detects data conflicts (with other transactions and with
        # lock-path critical sections) but ignores the lock word, so it
        # can gather ground truth even while the lock is convoyed - the
        # escape hatch from an all-lock equilibrium that a subscribing
        # transaction could never provide.
        if not use_htm:
            state.skips_since_probe += 1
            if state.skips_since_probe >= self.PROBE_INTERVAL:
                result = yield from self.machine.run_transaction(
                    shape, mutex=None
                )
                self.client.update(features, direction=result.committed)
                state.history.push(result.committed)
                # A successful probe re-probes immediately so the
                # predictor retrains quickly once conditions improve; a
                # failed probe waits out a full interval again.
                state.skips_since_probe = (
                    self.PROBE_INTERVAL if result.committed else 0
                )
                if result.committed:
                    state.remaining_retries = self.max_retries - 1
                    outcome = SectionOutcome(True, False, 1)
                    self.stats.record(outcome, section_id)
                    return outcome
                # Probe aborted: the section still has to run, locked.
                yield from self._lock_path(lock, shape)
                outcome = SectionOutcome(True, True, 1)
                self.stats.record(outcome, section_id)
                return outcome

        trying_htm = False
        fell_back = False
        attempts = 0
        if use_htm:
            state.skips_since_probe = 0
            trying_htm = True
            attempts = yield from self._htm_attempts(
                lock, shape, self.max_retries
            )
            if attempts > 0:
                state.remaining_retries = self.max_retries - attempts
            else:
                attempts = -attempts
                state.remaining_retries = 0
                fell_back = True
        else:
            fell_back = True

        if fell_back:
            yield from self._lock_path(lock, shape)

        # TxUnlock: feedback to the predictor (Listing 1 lines 26/30).
        # Explicit aborts (the lock was simply busy) say nothing about
        # whether this section's *data* can be elided - in the paper's
        # listing the attempt spins until the lock frees, so its predictor
        # never observes them.  Only commits and data aborts train.
        if trying_htm:
            only_busy_lock = fell_back and all(
                code is AbortCode.EXPLICIT
                for code in self._last_abort_codes
            )
            if not only_busy_lock:
                self.client.update(features, direction=not fell_back)
                state.history.push(not fell_back)

        outcome = SectionOutcome(trying_htm, fell_back, attempts)
        self.stats.record(outcome, section_id)
        return outcome
