"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot object that starts *pending* and is later
*triggered* with a value (success) or an exception (failure).  Processes wait
on events by yielding them; the simulator resumes the process once the event
fires.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

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

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (used by conditions)."""
        self._ok = event._ok
        self._value = event._value
        self._settle()

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

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)


class ConditionValue:
    """Mapping-like view over the events that triggered within a condition."""

    __slots__ = ("events", "_members")

    def __init__(self, events: List[Event]) -> None:
        self.events = events
        # Identity set for O(1) membership; events hash by identity, and the
        # ``request`` hot path probes ``waiter in outcome`` on every RPC.
        self._members = set(events)

    def __getitem__(self, event: Event) -> Any:
        if event not in self._members:
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self._members

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of other events."""

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if self.triggered:
                # Fast path: already-processed events decided the condition
                # (e.g. AnyOf over a fired event); skip registering callbacks
                # on the rest — _check would ignore them anyway.
                break
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _triggered_events(self) -> List[Event]:
        # An event counts as having fired for condition purposes once it has
        # been *processed* (Timeouts are value-triggered at creation time, so
        # ``triggered`` alone would over-report).
        return [e for e in self._events if e.callbacks is None]

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue(self._triggered_events()))


class AllOf(Condition):
    """Fires once *all* given events have fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(sim, lambda events, count: count == len(events), events)


class AnyOf(Condition):
    """Fires once *any* of the given events has fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(sim, lambda events, count: count >= 1, events)
