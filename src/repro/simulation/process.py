"""Process abstraction: generator-based simulation coroutines."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.simulation.events import Event


class _Bootstrap:
    """Shared successful pseudo-event used to kick-start every process (by
    ``Simulator.process`` / ``Simulator.start``, the only makers of one).

    ``Process._resume`` only reads ``_ok`` / ``_value`` from the event it is
    resumed with, so all processes can share this one immutable instance
    instead of allocating a fresh init :class:`Event` each.
    """

    __slots__ = ()
    _ok = True
    _value = None


BOOTSTRAP = _Bootstrap()


class Process(Event):
    """A running simulation process.

    A process wraps a generator.  Each value the generator yields must be an
    :class:`Event`; the process is suspended until that event fires and is
    then resumed with the event's value (or the event's exception is thrown
    into the generator).  The process itself is an event that fires with the
    generator's return value, so processes can wait for each other.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self.sim._active_process = self
        try:
            if event._ok:
                next_event = self.generator.send(event._value)
            else:
                event.defuse()
                next_event = self.generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self._ok = True
            self._value = stop.value
            self._settle()
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into the event graph
            self.sim._active_process = None
            self._ok = False
            self._value = exc
            self._settle()
            return
        self.sim._active_process = None

        if not isinstance(next_event, Event):
            error = RuntimeError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            self._ok = False
            self._value = error
            self._settle()
            return
        if next_event.sim is not self.sim:
            error = RuntimeError("process yielded an event from a different simulator")
            self._ok = False
            self._value = error
            self._settle()
            return

        if next_event.callbacks is not None:
            # Event still pending: register for resumption.
            next_event.callbacks.append(self._resume)
            # Never read: the event owns this process through its callbacks,
            # and this keeps the reverse edge.  Without it a collector that
            # closes an inner generator of the chain first (a request's
            # cleanup drops the waiter) frees the process and re-enters its
            # generator mid-close: "generator already executing".
            self._target = next_event
        else:
            # Event already processed: resume on the next step via the
            # fast-path scheduler, passing the processed event straight back
            # into _resume (no throwaway Event needed; _resume defuses
            # failures before re-raising them into the generator).
            self.sim.call_later(0.0, self._resume, next_event)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {hex(id(self))}>"


class Lifecycle:
    """Start / stop for a component whose long-lived loops must not outlive
    a restart (structured concurrency: one scope per start).

    ``start()`` opens a scope (``_open``) and spawns its loops into it
    (``spawn``); each loop asks ``live()`` at its own check points, so a loop
    a ``stop()`` left asleep ends when it wakes after a later ``start()``.
    Nothing is dropped mid-step: a loop inside an RPC finishes it first.
    Short-lived work reads the plain ``running`` attribute.  Needs ``sim``.
    """

    running = False
    #: The processes the latest start spawned (a fresh set, so a captured
    #: scope compares by identity).
    _scope = frozenset()

    def _open(self) -> bool:
        """Open a new scope; False if already running."""
        if self.running:
            return False
        self.running = True
        self._scope = set()
        return True

    def stop(self) -> None:
        self.running = False

    def spawn(self, generator: Generator[Event, Any, Any], name: str) -> None:
        self._scope.add(self.sim.process(generator, name=name))

    def live(self) -> bool:
        """Running, and the active process belongs to the latest start."""
        return self.running and self.sim._active_process in self._scope

    def current(self) -> bool:
        """No later start replaced the active process's scope."""
        return self.sim._active_process in self._scope
