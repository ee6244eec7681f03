"""Completion futures: the result half of a split request path.

The event-driven pipeline separates *issuing* a request from
*completing* it: ``submit`` returns immediately with a
:class:`CompletionFuture`, and a per-shard lane settles it
whenever the micro-batch carrying the request finishes crossing the
kernel.  Simulated client processes block on a future with ``yield
future.wait()`` exactly like any other sim resource; plain
(non-process) callers poll ``done``/``result()`` after driving the
engine.  A request pays only for what it uses: the
:class:`~repro.sim.process.SimEvent` a parked process needs is built by
the first ``wait()`` and the callback list by the first
``add_done_callback``, so a future nobody parks on allocates neither
and fires nothing at settlement.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Engine
from repro.sim.process import SimEvent


DoneCallback = Callable[["CompletionFuture"], None]


class CompletionFuture:
    """One request's pending result.

    The pipeline settles it exactly once (:meth:`settle`, or
    :meth:`complete` / :meth:`fail`); ``result()`` then returns the
    value or re-raises the failure.  ``submitted_ns``/``completed_ns``
    bracket the request's queue sojourn plus service time on the
    simulated clock.
    """

    __slots__ = ("done", "submitted_ns", "completed_ns", "_engine",
                 "_event", "_value", "_error", "_callbacks")

    def __init__(self, engine: Engine | None = None,
                 submitted_ns: float = 0.0) -> None:
        self.done = False
        self.submitted_ns = submitted_ns
        self.completed_ns = 0.0
        #: engine a parked process would wait on (None: the future is
        #: settled synchronously and ``wait()`` never parks)
        self._engine = engine
        self._event: SimEvent | None = None
        self._value: Any = None
        self._error: BaseException | None = None
        self._callbacks: list[DoneCallback] | None = None

    # -- completion (pipeline side) ----------------------------------------

    def complete(self, value: Any, ts_ns: float = 0.0) -> None:
        """Resolve successfully; wakes waiters and runs callbacks."""
        self.settle(value, None, ts_ns)

    def fail(self, error: BaseException, ts_ns: float = 0.0) -> None:
        """Resolve with an error; ``result()`` will re-raise it."""
        self.settle(None, error, ts_ns)

    def settle(self, value: Any, error: BaseException | None,
               ts_ns: float) -> None:
        """Resolve with ``value``, or with ``error`` when it is not
        None: the one call the pipeline makes per request."""
        if self.done:
            raise RuntimeError("future already completed")
        self.done = True
        self._value = value
        self._error = error
        self.completed_ns = ts_ns
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback(self)
        if self._event is not None:
            self._event.fire(self)

    # -- consumption (client side) -----------------------------------------

    @property
    def error(self) -> BaseException | None:
        return self._error

    def result(self) -> Any:
        """The value, re-raising the failure for failed futures."""
        if not self.done:
            raise RuntimeError("future not yet completed; drive the "
                               "engine (or yield future.wait()) first")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def latency_ns(self) -> float:
        """Submit-to-completion sojourn on the simulated clock."""
        if not self.done:
            raise RuntimeError("future not yet completed")
        return self.completed_ns - self.submitted_ns

    def wait(self) -> object:
        """Command for sim-process bodies: ``yield future.wait()``.

        Already-completed futures (a shed refused at submit time, a
        batch that crossed before the caller got around to waiting)
        return a zero-delay sleep so the process resumes on the next
        engine step instead of parking on an event that already fired.
        """
        if self.done or self._engine is None:
            return 0
        event = self._event
        if event is None:
            event = self._event = SimEvent(self._engine)
        return event.wait()

    def add_done_callback(self, callback: DoneCallback) -> None:
        """Run ``callback(self)`` at completion (immediately if done)."""
        if self.done:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)
