"""Frozen reference simulator: the engine, processes and resources as
they were before a process's body, its command and an uncontended grant
ran in one frame.

A verbatim copy of ``repro.sim.engine`` / ``process`` / ``resources`` at
that point, in one module, minus what nothing ran (``Process.join``,
``SimEvent.fire_one``, ``run_all``, ``Gauge``).  Do not optimise it: it
is what ``tests/sim/test_hot_paths.py`` holds the live simulator to,
event for event, the way ``tests/core/reference_impl.py`` holds the core.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator

Callback = Callable[[], None]


class SimulationError(Exception):
    """The simulation was driven incorrectly (e.g. time moved backwards)."""


class Engine:
    """Event queue plus simulated clock (nanoseconds)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Callback]] = []
        self._cancelled: set[int] = set()

    def clock(self) -> float:
        """Current simulated time in nanoseconds, as a plain method:
        the callable to hand a tracer or a span as its clock (one bound
        method, no closure).  :attr:`now` is the same read."""
        return self._now

    now = property(clock)

    def schedule(self, delay: float, callback: Callback) -> int:
        """Run ``callback`` after ``delay`` ns; returns a cancellable id."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback))
        return self._seq

    def schedule_at(self, time: float, callback: Callback) -> int:
        """Run ``callback`` at absolute simulated ``time``."""
        return self.schedule(time - self._now, callback)

    def cancel(self, event_id: int) -> None:
        """Prevent a scheduled callback from firing (lazy removal)."""
        self._cancelled.add(event_id)

    def pending(self) -> int:
        """Number of not-yet-fired (and not cancelled) events."""
        return sum(
            1 for _, seq, _ in self._queue if seq not in self._cancelled
        )

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            time, seq, callback = heapq.heappop(queue)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            if time < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = time
            callback()
            return True
        return False

    def run(self, until: float | None = None,
            max_events: int = 50_000_000) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        ``max_events`` is a runaway guard: a simulation that schedules this
        many events almost certainly has a livelocked process.
        """
        fired = 0
        while self._queue:
            next_time = self._queue[0][0]
            if until is not None and next_time > until:
                self._now = until
                return
            if not self.step():
                break
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; likely livelock"
                )
        if until is not None and until > self._now:
            self._now = until


#: what a process body yields
Command = object
ProcessBody = Generator[Command, object, None]


class Wait:
    """Command: block until the given event fires."""

    def __init__(self, event: "SimEvent") -> None:
        self.event = event


class AcquireCmd:
    """Command: block until the resource grants ownership."""

    def __init__(self, grant: Callable[["Process"], None]) -> None:
        # ``grant`` registers the process with the resource; the resource
        # resumes it (with resume()) once ownership is transferred.
        self.grant = grant


class SimEvent:
    """One-shot or repeating notification processes can wait on."""

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._waiters: list[Process] = []

    def wait(self) -> Wait:
        """Command form for process bodies: ``yield event.wait()``."""
        return Wait(self)

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def fire(self, payload: object = None) -> int:
        """Wake all waiters now; returns how many were woken."""
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        for process in waiters:
            process.resume(payload)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class Process:
    """A running generator bound to an engine."""

    def __init__(self, engine: Engine, body: ProcessBody,
                 name: str = "proc") -> None:
        self.engine = engine
        self.name = name
        self._body = body
        self.finished = False
        #: the one callback the start-up step and every sleep schedule
        self._wake = self._advance
        # Start on the next engine step so construction order does not
        # leak into execution order beyond the engine's FIFO tie-break.
        engine.schedule(0, self._wake)

    def resume(self, payload: object = None) -> None:
        """Called by resources/events to continue the process now."""
        self._advance(payload)

    def _advance(self, payload: object = None) -> None:
        if self.finished:
            return
        try:
            command = self._body.send(payload)
        except StopIteration:
            self.finished = True
            return
        self._dispatch(command)

    def _dispatch(self, command: Command) -> None:
        # Exact types first: nearly every command is a plain float or a
        # Wait, and ``isinstance`` against a tuple costs more than both.
        kind = type(command)
        if kind is float or kind is int \
                or isinstance(command, (int, float)):
            if command < 0:
                raise SimulationError(
                    f"process {self.name} yielded negative delay {command}"
                )
            self.engine.schedule(float(command), self._wake)
        elif kind is Wait or isinstance(command, Wait):
            command.event._add_waiter(self)
        elif isinstance(command, AcquireCmd):
            command.grant(self)
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported "
                f"command {command!r}"
            )


def spawn(engine: Engine, body: ProcessBody, name: str = "proc") -> Process:
    """Create and schedule a process from a generator."""
    return Process(engine, body, name)


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

    @property
    def is_locked(self) -> bool:
        return self._owner is not None

    @property
    def queue_depth(self) -> int:
        return len(self._wait_queue)

    def acquire(self) -> AcquireCmd:
        """Command form: ``yield mutex.acquire()`` blocks until owned."""
        return AcquireCmd(self._grant)

    def _grant(self, process: Process) -> None:
        if self._owner is None:
            self._owner = process
            self.acquisitions += 1
            process.resume()
            return
        self.contended_acquisitions += 1
        self._wait_queue.append((process, self._engine.now))
        self.peak_queue_depth = max(
            self.peak_queue_depth, len(self._wait_queue)
        )

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

    @property
    def available(self) -> int:
        return self._permits

    def acquire(self) -> AcquireCmd:
        return AcquireCmd(self._grant)

    def acquire_front(self) -> AcquireCmd:
        """Acquire with priority: jump ahead of ordinary waiters.

        Needed when the acquirer holds another resource others are waiting
        on (e.g. a mutex owner re-acquiring a CPU core), which would
        otherwise deadlock behind spinners.
        """
        return AcquireCmd(self._grant_front)

    def _grant(self, process: Process) -> None:
        if self._permits > 0:
            self._permits -= 1
            process.resume()
        else:
            self._wait_queue.append(process)

    def _grant_front(self, process: Process) -> None:
        if self._permits > 0:
            self._permits -= 1
            process.resume()
        else:
            self._wait_queue.insert(0, process)

    def release(self) -> None:
        if self._wait_queue:
            self._wait_queue.pop(0).resume()
        else:
            self._permits += 1
