"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot object that starts *pending* and is later
*triggered* with a value (success) or an exception (failure).  Processes wait
on events by yielding them; the simulator resumes the process once the event
fires.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

PENDING = object()


def until_interest(event: "Event") -> None:
    """``run(until=event)``'s registered interest in ``event`` (a no-op waiter)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  Events can only be scheduled on the simulator
        that created them.

    Everything that waits on an event or asks for its outcome goes through
    the slots below (a waiter registers by appending to ``callbacks``; a
    processed event has ``callbacks is None``).  A subclass may therefore
    leave all but ``sim`` unset and fill them in on the first read — the
    producer's send future does, so a future nobody looks at costs nothing.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821 - forward ref
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have been processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError("event is still pending; value not available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the simulation."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._settle()
        return self

    def succeed_now(self, value: Any = None) -> "Event":
        """:meth:`succeed`, with the waiters run in this call instead of from
        a heap entry of their own — ``Simulator.start``'s sibling, for a heap
        callback (a packet arrival) that completes what a process waits on.
        While a process is active the nested resume would clobber
        ``active_process``, and ``run(until=event)`` finds its event only in
        the dispatch loop: both fall back to :meth:`succeed`."""
        callbacks = self.callbacks
        if not callbacks or self.sim._active_process is not None or until_interest in callbacks:
            return self.succeed(value)
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._settle()
        return self

    def _settle(self) -> None:
        """Deliver the (just triggered) event at the current time.

        No event without a waiter: a heap entry is pushed only when a
        callback is registered, or when the event is a failure nobody
        defused — that one must still reach the dispatch loop and crash the
        run.  Otherwise the event is marked processed inline; a process that
        yields it later resumes at the same timestamp through the
        already-processed branch of ``Process._resume``.
        """
        if self.callbacks or not (self._ok or self._defused):
            self.sim._schedule(self)
        else:
            self.callbacks = None

    def __repr__(self) -> str:
        state = "pending" if self._value is PENDING else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed simulated-time delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)
