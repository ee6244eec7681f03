"""Coroutine-style processes on top of the event engine.

A process body is a Python generator that yields *commands*:

* a number - sleep that many simulated nanoseconds;
* a :class:`Wait` - block until the named :class:`SimEvent` fires;
* an :class:`AcquireCmd` - block until a simulated resource is granted
  (built by :meth:`repro.sim.resources.SimMutex.acquire` and friends);
* :data:`PARK` - block until the process's one waker calls
  :meth:`Process.resume` itself (a wait with no event to fire).

The scheduler resumes a process by calling ``send`` with the command's
result, so bodies read like straight-line blocking code::

    def body(proc):
        yield 100            # compute for 100 ns
        yield lock.acquire() # blocking acquire
        ...
        lock.release()

The grant contract: ``AcquireCmd.grant(process)`` returns True when the
resource is the process's at once, and the process then carries on in
the same :meth:`Process.resume` call - no event, no second resume.  It
returns False when the process is queued; the resource then owns the
process until it hands ownership over, and calls ``process.resume()``
itself (from ``release``).
"""

from __future__ import annotations

from typing import Callable, Generator

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

    def __init__(self, grant: Callable[["Process"], bool]) -> None:
        # ``grant`` takes ownership for the process and returns True, or
        # queues it and returns False (the module's grant contract).
        self.grant = grant


class Park:
    """Command: block until the owner of the process resumes it.

    For a body with exactly one waker that holds the process (a
    serving lane, woken by its own queue's push): the waker calls
    ``process.resume()`` directly, with no event, waiter list or
    ``fire`` in between.  Yield the one instance, :data:`PARK`."""


#: the :class:`Park` command
PARK = Park()


class SimEvent:
    """One-shot or repeating notification processes can wait on."""

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._waiters: list[Process] = []

    def wait(self) -> Wait:
        """Command form for process bodies: ``yield event.wait()``."""
        return Wait(self)

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
        self._send = body.send
        self.finished = False
        #: the one callback the start-up step and every sleep schedule
        self._wake = self.resume
        # Start on the next engine step so construction order does not
        # leak into execution order beyond the engine's FIFO tie-break.
        engine.schedule(0, self._wake)

    def resume(self, payload: object = None) -> None:
        """Continue the body with ``payload`` and carry out what it
        yields, until it sleeps, parks or finishes: the one body the
        engine, :meth:`SimEvent.fire` and the resources call."""
        if self.finished:
            return
        send = self._send
        while True:
            try:
                command = send(payload)
            except StopIteration:
                self.finished = True
                return
            # Exact types first: nearly every command is a plain float,
            # a Wait or an AcquireCmd, and ``isinstance`` costs more.
            kind = type(command)
            if kind is float:
                if command < 0:
                    raise self._negative_delay(command)
                self.engine.schedule(command, self._wake)
                return
            if kind is Wait:
                command.event._waiters.append(self)
                return
            if kind is AcquireCmd:
                if not command.grant(self):
                    return
            elif kind is Park:
                return
            elif not self._carry_out(command):
                return
            payload = None

    def _carry_out(self, command: Command) -> bool:
        """A command of no exact hot type (an int, a bool, a subclass):
        True when it was a grant made at once."""
        if isinstance(command, (int, float)):
            if command < 0:
                raise self._negative_delay(command)
            self.engine.schedule(float(command), self._wake)
            return False
        if isinstance(command, Wait):
            command.event._waiters.append(self)
            return False
        if isinstance(command, AcquireCmd):
            return command.grant(self)
        raise SimulationError(
            f"process {self.name} yielded unsupported command {command!r}"
        )

    def _negative_delay(self, command: Command) -> SimulationError:
        return SimulationError(
            f"process {self.name} yielded negative delay {command}"
        )


def spawn(engine: Engine, body: ProcessBody, name: str = "proc") -> Process:
    """Create and schedule a process from a generator."""
    return Process(engine, body, name)
