"""Shared resources for inter-process coordination.

:class:`Resource` is a counted resource with FIFO waiters; it models a host's
CPU cores (``Host.cpu``).  Links, brokers and clients talk through direct
calls and heap callbacks instead of queues (``docs/event_model.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.simulation.events import Event


class ResourceRequest(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def release(self) -> None:
        self.resource.release(self)

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class Resource:
    """A counted resource (e.g. CPU cores, connection slots).

    FIFO waiters live in a deque; the grant-on-request and the
    release-with-no-waiters cases never touch it.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:  # noqa: F821
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.users: List[ResourceRequest] = []
        self.queue: Deque[ResourceRequest] = deque()

    @property
    def in_use(self) -> int:
        return len(self.users)

    @property
    def available(self) -> int:
        return self.capacity - len(self.users)

    def request(self) -> ResourceRequest:
        event = ResourceRequest(self)
        if len(self.users) < self.capacity:
            self.users.append(event)
            event.succeed()
        else:
            self.queue.append(event)
        return event

    def release(self, request: ResourceRequest) -> None:
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
            return
        queue = self.queue
        if not queue:
            # Fast path: uncontended release (the common case for per-packet
            # CPU charges) — no waiter bookkeeping at all.
            return
        users = self.users
        while queue and len(users) < self.capacity:
            waiter = queue.popleft()
            users.append(waiter)
            waiter.succeed()
