"""The simulator: event queue, clock, and run loop.

Two scheduling tiers share one heap:

* the full :class:`~repro.simulation.events.Event` / ``Process`` machinery,
  used wherever a caller needs to *wait* on an occurrence; and
* a zero-allocation fast path — :meth:`Simulator.call_at` / ``call_later`` —
  that pushes a bare ``(fn, args)`` entry and invokes it directly from the
  dispatch loop.  One heap entry per callback, no ``Event``, no generator
  frame.  The network data plane (one entry per link hop, loopback delivery)
  runs entirely on this path; see :class:`_Callback`.

Both tiers are ordered by ``(time, priority, sequence)`` from a single
monotonic counter, so mixing them cannot reorder same-time events and
determinism is preserved.

A heap entry exists only for something that has a waiter (or a time to wait
for): an event that succeeds while nothing waits on it is settled inline
(:meth:`Event._settle`) and never reaches the dispatch loop — see
``docs/event_model.md``.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.simulation.events import AllOf, AnyOf, Event, Timeout, until_interest
from repro.simulation.process import BOOTSTRAP, Process
from repro.simulation.rng import SeededRandom, deterministic_hash

# Priorities: interrupts pre-empt normal events scheduled at the same time.
URGENT = 0
NORMAL = 1


class EmptySchedule(Exception):
    """Raised internally when there are no more events to process."""


class _Callback:
    """A bare scheduled callback: the fast-path heap entry.

    Unlike an :class:`Event` it cannot be waited on, has no value and no
    failure state — the dispatch loop just calls ``fn(*args)``.  This is what
    makes per-packet scheduling cheap: one small object and one heap push
    instead of a ``Process`` + init ``Event`` + ``Timeout``.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Any], args: tuple) -> None:
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Callback {getattr(self.fn, '__qualname__', self.fn)!r}>"


class Simulator:
    """Discrete-event simulator.

    The simulator owns the clock and the event queue.  It is deterministic:
    given the same seed and the same sequence of scheduled processes it will
    produce identical traces, which the test-suite relies upon.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    seed:
        Seed for the simulator-owned random number generator.  Components
        should draw randomness from :attr:`random` (or children created via
        :meth:`rng`) so that experiments are reproducible.
    """

    def __init__(self, initial_time: float = 0.0, seed: int = 0) -> None:
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        self.random = SeededRandom(seed)
        self._seed = seed
        self._processed_events = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None outside process code)."""
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Number of events processed so far (diagnostics / benchmarks)."""
        return self._processed_events

    def rng(self, name: str) -> SeededRandom:
        """Derive a named, independent random stream from the simulator seed."""
        return SeededRandom(deterministic_hash(self._seed, name) & 0x7FFFFFFF)

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Register ``generator`` as a new simulation process; its first step
        runs at the current time (fast path: the loop calls ``_resume``)."""
        process = Process(self, generator, name=name)
        self.call_later(0.0, process._resume, BOOTSTRAP)
        return process

    def start(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Like :meth:`process`, but the first step runs *now*, in the heap
        callback that calls this (a request arriving at a server) instead of
        through a zero-delay entry of its own.  Inside a running process the
        nested resume would clobber :attr:`active_process`: an error."""
        if self._active_process is not None:
            raise RuntimeError(f"start() inside {self._active_process!r}: use process()")
        process = Process(self, generator, name=name)
        process._resume(BOOTSTRAP)
        return process

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` once, at simulated time ``when`` (fast path).

        This is the zero-allocation scheduling primitive: it costs one heap
        push and a tiny :class:`_Callback` record, and the dispatch loop calls
        ``fn`` directly.  Use it for fire-and-forget work (packet delivery,
        deferred starts) where nothing needs to wait on the result; use
        :meth:`process` / :meth:`timeout` when the caller must synchronize.
        A caller folding several delays into one entry sums them onto ``now``
        in the order separate entries would have: the same float.
        """
        if when < self._now:
            raise ValueError(f"when={when} lies in the past (now={self._now})")
        heapq.heappush(self._queue, (when, NORMAL, next(self._eid), _Callback(fn, args)))

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """``call_at(now + delay, fn, *args)``, pushed here: delegating costs a
        third of an entry's whole price (1.75M -> 1.2M entries/s)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, NORMAL, next(self._eid), _Callback(fn, args))
        )

    def schedule_callback(
        self, delay: float, callback: Callable[[], None], name: str = "callback"
    ) -> None:
        """Run ``callback()`` once, ``delay`` seconds from now.

        Thin compatibility wrapper over :meth:`call_later` (it used to spawn a
        throwaway process per callback; it no longer does).
        """
        self.call_later(delay, callback)

    # -- run loop -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        self._dispatch(budget=1)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event fires and return its value.
        """
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
                if until_event.processed:
                    # Already fired and delivered (in an earlier run(), or
                    # inline because nothing waited on it) — there is nothing
                    # left to wait for.
                    if until_event._ok:
                        return until_event._value
                    raise until_event._value
                # run() itself waits on the event: without a registered
                # waiter an unobserved event is settled inline and would
                # never reach the dispatch loop.
                until_event.callbacks.append(until_interest)
            else:
                deadline = float(until)
                if deadline < self._now:
                    raise ValueError(
                        f"until={deadline} lies in the past (now={self._now})"
                    )
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                self._schedule(until_event, delay=deadline - self._now, priority=URGENT)
        try:
            return self._dispatch(until_event)
        except EmptySchedule:
            return None

    def run_until_idle(self, max_time: Optional[float] = None) -> float:
        """Drain the event queue (optionally bounded by ``max_time``) and return the clock."""
        if max_time is None:
            self.run()
            return self._now
        queue = self._queue
        while queue:
            if queue[0][0] > max_time:
                self._now = max_time
                break
            self._dispatch(budget=1)
        return self._now

    def _dispatch(self, until_event: Optional[Event] = None, budget: int = -1) -> Any:
        """The dispatch loop: pop and deliver events in time order.

        Stops after ``budget`` events (never, when negative), or once
        ``until_event`` has been delivered — returning its value or raising
        its exception.  Raises :class:`EmptySchedule` when the queue runs dry
        first.

        The until-event is detected by identity *after* its callbacks have
        all run — stopping from inside the callback list silently destroyed
        every sibling callback behind it, losing e.g. a process parked on the
        same event before run() was entered.
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            while processed != budget:
                try:
                    when, _priority, _eid, event = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = when
                processed += 1
                if type(event) is _Callback:
                    event.fn(*event.args)
                    continue
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    # Unhandled failure: crash the simulation like an
                    # uncaught exception.
                    raise event._value
                if event is until_event:
                    if event._ok:
                        return event._value
                    raise event._value  # a defused failure still ends run()
        finally:
            self._processed_events += processed

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f} queued={len(self._queue)}>"
