"""The simulator: event queue, clock, and run loop.

Two scheduling tiers share one heap:

* the full :class:`~repro.simulation.events.Event` / ``Process`` machinery,
  used wherever a caller needs to *wait* on an occurrence; and
* a zero-allocation fast path — :meth:`Simulator.call_at` / ``call_later`` —
  that pushes ``fn`` and ``args`` in the heap entry itself and calls
  ``fn(*args)`` directly from the dispatch loop.  One heap entry per
  callback, no ``Event``, no generator frame, no wrapper object.  The network
  data plane (one entry per link hop, loopback delivery) and the replies of
  served requests run entirely on this path.

An entry is ``(time, priority, sequence, target, args)``: ``args`` is the
callback's argument tuple, or ``None`` when ``target`` is an event.  Both
tiers are ordered by ``(time, priority, sequence)`` from a single monotonic
counter, so mixing them cannot reorder same-time events and determinism is
preserved.

A heap entry exists only for something that has a waiter (or a time to wait
for): an event that succeeds while nothing waits on it is settled inline
(:meth:`Event._settle`) and never reaches the dispatch loop — see
``docs/event_model.md``.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Optional, Union

from repro.simulation.events import Event, Timeout, until_interest
from repro.simulation.process import BOOTSTRAP, Process
from repro.simulation.rng import SeededRandom, deterministic_hash

# Priorities: ``run(until=t)``'s deadline entry comes before every other
# entry scheduled for ``t``, so the run stops with those still queued.
URGENT = 0
NORMAL = 1


def duration_to_seconds(value: Any, default: float) -> float:
    """Parse durations such as ``2000ms``, ``2s``, ``1.5`` (seconds)."""
    if value is None:
        return default
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip().lower()
    if text.endswith("ms"):
        return float(text[:-2]) / 1000.0
    if text.endswith("s"):
        return float(text[:-1])
    return float(text)


class EmptySchedule(Exception):
    """Raised internally when there are no more events to process."""


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
        Root of every random stream: components draw from the named,
        independent streams of :meth:`rng` so that experiments are
        reproducible.
    """

    def __init__(self, initial_time: float = 0.0, seed: int = 0) -> None:
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = count()
        self._active_process: Optional[Process] = None
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

    def timeout_at(self, when: float) -> Event:
        """Create an event that fires at simulated time ``when`` — a CPU
        charge's completion (``Host.compute``), pushed as given: ``now +
        (when - now)`` is not always the same float."""
        if when < self._now:
            raise ValueError(f"when={when} lies in the past (now={self._now})")
        event = Event(self)
        event._value = None
        heapq.heappush(self._queue, (when, NORMAL, next(self._eid), event, None))
        return event

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
        callback that calls this (a producer's flush timer, a leader's ISR
        update at a replica fetch's completion time) instead of
        through a zero-delay entry of its own.  Inside a running process the
        nested resume would clobber :attr:`active_process`: an error."""
        if self._active_process is not None:
            raise RuntimeError(f"start() inside {self._active_process!r}: use process()")
        process = Process(self, generator, name=name)
        process._resume(BOOTSTRAP)
        return process

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event, None)
        )

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` once, at simulated time ``when`` (fast path).

        This is the zero-allocation scheduling primitive: it costs one heap
        push, and the dispatch loop calls ``fn`` directly.  Use it for fire-and-forget work (packet delivery,
        deferred starts) where nothing needs to wait on the result; use
        :meth:`process` / :meth:`timeout` when the caller must synchronize.
        A caller folding several delays into one entry sums them onto ``now``
        in the order separate entries would have: the same float.
        """
        if when < self._now:
            raise ValueError(f"when={when} lies in the past (now={self._now})")
        heapq.heappush(self._queue, (when, NORMAL, next(self._eid), fn, args))

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """``call_at(now + delay, fn, *args)``, pushed here: delegating costs a
        third of an entry's whole price (1.75M -> 1.2M entries/s)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), fn, args))

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
                    when, _priority, _eid, event, args = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = when
                processed += 1
                if args is not None:
                    event(*args)  # a call_at / call_later callback
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
