"""Process abstraction: generator-based simulation coroutines."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.simulation.events import Event


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


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

    __slots__ = ("generator", "name", "_target", "_interrupts")

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
        self._target: Optional[Event] = None
        self._interrupts: list = []

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise RuntimeError(f"{self} has terminated and cannot be interrupted")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, priority=0)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self.triggered:
            # Already finished (e.g. interrupted after normal completion raced).
            return
        self.sim._active_process = self
        # Detach from the event we were waiting on if this is an interrupt.
        if self._target is not None and event is not self._target:
            if self._target.callbacks is not None and self._resume in self._target.callbacks:
                self._target.callbacks.remove(self._resume)
        self._target = None
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
            self._target = next_event
        else:
            # Event already processed: resume on the next step via the
            # fast-path scheduler, passing the processed event straight back
            # into _resume (no throwaway Event needed; _resume defuses
            # failures before re-raising them into the generator).
            self.sim.call_later(0.0, self._resume, next_event)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {hex(id(self))}>"
