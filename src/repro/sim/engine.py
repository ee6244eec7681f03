"""Deterministic discrete-event simulation engine.

The HTM lock-elision and page-reclaim scenarios both need parallel work with
*controlled*, reproducible timing - real threads would make every figure
non-deterministic.  This engine provides a simulated nanosecond clock and an
event queue; :mod:`repro.sim.process` layers coroutine-style processes on
top, and :mod:`repro.sim.resources` provides locks and condition events.

Events scheduled for the same timestamp fire in scheduling order (a
monotonically increasing sequence number breaks ties), which is what makes
the whole simulation deterministic for a fixed seed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

Callback = Callable[[], None]


class SimulationError(Exception):
    """The simulation was driven incorrectly (e.g. time moved backwards)."""


class Engine:
    """Event queue plus simulated clock (nanoseconds)."""

    def __init__(self) -> None:
        #: current simulated time in ns: a plain attribute, so a read is
        #: no call.  Only :meth:`step` and :meth:`run` write it; everyone
        #: else reads it and never assigns it.
        self.now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Callback]] = []
        self._cancelled: set[int] = set()

    def clock(self) -> float:
        """:attr:`now` as a plain method: the callable to hand a tracer
        or a span as its clock (one bound method, no closure)."""
        return self.now

    def schedule(self, delay: float, callback: Callback) -> int:
        """Run ``callback`` after ``delay`` ns; returns a cancellable id."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, callback))
        return self._seq

    def schedule_at(self, time: float, callback: Callback) -> int:
        """Run ``callback`` at absolute simulated ``time``."""
        return self.schedule(time - self.now, callback)

    def cancel(self, event_id: int) -> None:
        """Prevent a scheduled callback from firing (lazy removal)."""
        self._cancelled.add(event_id)

    def pending(self) -> int:
        """Number of not-yet-fired (and not cancelled) events."""
        return sum(
            1 for _, seq, _ in self._queue if seq not in self._cancelled
        )

    def has_pending(self) -> bool:
        """Whether any not-yet-fired, not-cancelled event is scheduled:
        ``pending() > 0`` without the count.  The heap's head is live
        unless it was cancelled, so only a cancelled head walks the
        heap; nothing is added to :meth:`schedule` or :meth:`step`."""
        queue = self._queue
        if not queue:
            return False
        cancelled = self._cancelled
        if queue[0][1] not in cancelled:
            return True
        return any(seq not in cancelled for _, seq, _ in queue)

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            time, seq, callback = heappop(queue)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            if time < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = time
            callback()
            return True
        return False

    def run(self, until: float | None = None,
            max_events: int = 50_000_000) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        ``max_events`` is a runaway guard: a simulation that schedules this
        many events almost certainly has a livelocked process.

        Every event fires through one ``step()`` call, looked up once per
        run on the instance: a ``step`` shadowed there before the run
        sees every event.
        """
        queue = self._queue
        step = self.step
        fired = 0
        while queue:
            if until is not None and queue[0][0] > until:
                self.now = until
                return
            if not step():
                break
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; likely livelock"
                )
        if until is not None and until > self.now:
            self.now = until
