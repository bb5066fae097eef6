"""Discrete-event simulation engine.

This package provides the foundational substrate on which every other
subsystem (network emulation, event streaming platform, stream processing
engine, data stores) is built.  The model follows the classic
process-interaction style: simulation *processes* are Python generators that
yield :class:`~repro.simulation.events.Event` instances and are resumed by the
:class:`~repro.simulation.engine.Simulator` when those events fire.

Public API
----------

``Simulator``
    The event loop: schedules events, advances simulated time and runs
    processes (``run`` to a time, an event or the end; ``step`` for one
    entry).
``Process``
    A running generator registered with the simulator.
``Lifecycle``
    Start / stop scopes for a component's long-lived processes.
``Event`` / ``Timeout``
    Awaitable primitives.
"""

from repro.simulation.engine import Simulator
from repro.simulation.events import Event, Timeout
from repro.simulation.process import Lifecycle, Process

__all__ = [
    "Simulator",
    "Process",
    "Lifecycle",
    "Event",
    "Timeout",
]
