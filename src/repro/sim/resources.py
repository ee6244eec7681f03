"""Simulated synchronization resources: mutex and semaphore.

These model the *timing* of contention (queueing, handoff) without any real
threads.  :class:`SimMutex` is the lock the HTM scenario elides; it exposes
``is_locked`` so lock-elision code can express the paper's "spin while the
lock is held, then start a transaction" protocol.  Both keep the grant
contract of :mod:`repro.sim.process`: a grant made at once returns True
and resumes nothing; a queued process is resumed by ``release``.
"""

from __future__ import annotations

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import AcquireCmd, Process


class SimMutex:
    """FIFO mutex for simulated processes.

    Statistics (acquisitions, peak queue depth, total wait time) feed the
    scenario reports.
    """

    def __init__(self, engine: Engine, name: str = "mutex") -> None:
        self._engine = engine
        self.name = name
        self._owner: Process | None = None
        self._wait_queue: list[tuple[Process, float]] = []
        # statistics
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_ns = 0.0
        self.peak_queue_depth = 0
        self._acquire = AcquireCmd(self._grant)

    @property
    def is_locked(self) -> bool:
        return self._owner is not None

    @property
    def queue_depth(self) -> int:
        return len(self._wait_queue)

    def acquire(self) -> AcquireCmd:
        """Command form: ``yield mutex.acquire()`` blocks until owned."""
        return self._acquire

    def _grant(self, process: Process) -> bool:
        if self._owner is None:
            self._owner = process
            self.acquisitions += 1
            return True
        self.contended_acquisitions += 1
        self._wait_queue.append((process, self._engine.now))
        self.peak_queue_depth = max(
            self.peak_queue_depth, len(self._wait_queue)
        )
        return False

    def release(self) -> None:
        """Hand the lock to the next waiter (synchronous call, no yield)."""
        if self._owner is None:
            raise SimulationError(f"mutex {self.name} released while free")
        if self._wait_queue:
            process, enqueue_time = self._wait_queue.pop(0)
            self.total_wait_ns += self._engine.now - enqueue_time
            self._owner = process
            self.acquisitions += 1
            process.resume()
        else:
            self._owner = None

    def owned_by(self, process: Process) -> bool:
        return self._owner is process


class SimSemaphore:
    """Counting semaphore with FIFO wakeup."""

    def __init__(self, engine: Engine, permits: int,
                 name: str = "sem") -> None:
        if permits < 0:
            raise SimulationError("semaphore permits must be >= 0")
        self._engine = engine
        self.name = name
        self._permits = permits
        self._wait_queue: list[Process] = []
        self._acquire = AcquireCmd(self._grant)
        self._acquire_front = AcquireCmd(self._grant_front)

    @property
    def available(self) -> int:
        return self._permits

    def acquire(self) -> AcquireCmd:
        return self._acquire

    def acquire_front(self) -> AcquireCmd:
        """Acquire with priority: jump ahead of ordinary waiters.

        Needed when the acquirer holds another resource others are waiting
        on (e.g. a mutex owner re-acquiring a CPU core), which would
        otherwise deadlock behind spinners.
        """
        return self._acquire_front

    def _grant(self, process: Process) -> bool:
        if self._permits > 0:
            self._permits -= 1
            return True
        self._wait_queue.append(process)
        return False

    def _grant_front(self, process: Process) -> bool:
        if self._permits > 0:
            self._permits -= 1
            return True
        self._wait_queue.insert(0, process)
        return False

    def release(self) -> None:
        if self._wait_queue:
            self._wait_queue.pop(0).resume()
        else:
            self._permits += 1
