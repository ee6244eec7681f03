"""Coroutine-style processes on top of the event engine.

A process body is a Python generator that yields *commands*:

* a number - sleep that many simulated nanoseconds;
* a :class:`Wait` - block until the named :class:`SimEvent` fires;
* an :class:`AcquireCmd` - block until a simulated mutex is granted
  (constructed via :meth:`repro.sim.resources.SimMutex.acquire`).

Processes may also spawn children and join them.  The scheduler resumes a
process by calling ``send`` with the command's result, so bodies read like
straight-line blocking code::

    def body(proc):
        yield 100            # compute for 100 ns
        yield lock.acquire() # blocking acquire
        ...
        lock.release()
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable

from repro.sim.engine import Engine, SimulationError

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

    def fire_one(self, payload: object = None) -> bool:
        """Wake the longest-waiting process, if any."""
        if not self._waiters:
            return False
        self._waiters.pop(0).resume(payload)
        return True

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
        self._done_event = SimEvent(engine)
        #: the one callback the start-up step and every sleep schedule
        self._wake = self._advance
        # Start on the next engine step so construction order does not
        # leak into execution order beyond the engine's FIFO tie-break.
        engine.schedule(0, self._wake)

    def join(self) -> Wait:
        """Command for a parent process: wait until this one finishes."""
        return Wait(self._done_event)

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
            self._done_event.fire()
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


def run_all(engine: Engine, bodies: Iterable[ProcessBody],
            until: float | None = None) -> list[Process]:
    """Spawn every body, run the engine, and return the processes."""
    processes = [
        spawn(engine, body, name=f"proc-{i}")
        for i, body in enumerate(bodies)
    ]
    engine.run(until=until)
    return processes
