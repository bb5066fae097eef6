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
    processes.
``Process``
    A running generator registered with the simulator.
``Event`` / ``Timeout`` / ``AnyOf`` / ``AllOf``
    Awaitable primitives.
``Resource``
    A counted resource with FIFO request queues (a host's CPU cores).
``Interrupt``
    Exception injected into a process when it is interrupted.
"""

from repro.simulation.engine import Simulator
from repro.simulation.events import AllOf, AnyOf, Event, Timeout
from repro.simulation.process import Interrupt, Process
from repro.simulation.resources import Resource

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Resource",
]
