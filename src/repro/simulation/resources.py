"""Shared resources for inter-process coordination.

* :class:`Resource` — a counted resource with FIFO waiters; models a host's
  CPU cores (``Host.cpu``), the one primitive here the emulator itself uses.
* :class:`Store` / :class:`PriorityStore` (message queues) and
  :class:`Container` (a continuous quantity) — general-purpose primitives with
  **no caller** in ``src/``, ``perf/``, ``benchmarks/`` or ``examples/``: links,
  brokers and clients moved to direct calls and heap callbacks
  (``docs/event_model.md``).  Only ``tests/`` exercises them; they are
  slated for deletion together with those tests (ROADMAP).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Deque, Generic, List, Optional, TypeVar

from repro.simulation.events import Event

T = TypeVar("T")


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is accepted."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ()


class Store(Generic[T]):
    """An (optionally bounded) FIFO queue of items.

    ``put`` events succeed immediately while the store has capacity and block
    otherwise; ``get`` events succeed immediately while items are available.

    Both directions have a *waiter-free fast path* (mirroring the link pump):
    when nothing is queued ahead, a ``put`` with spare capacity or a ``get``
    with items available succeeds inline without touching the waiter queues.
    The waiter queues themselves are deques — the old ``pop(0)`` lists went
    quadratic under bursts.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:  # noqa: F821
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[T] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def pending_gets(self) -> int:
        return len(self._get_queue)

    @property
    def pending_puts(self) -> int:
        return len(self._put_queue)

    def put(self, item: T) -> StorePut:
        event = StorePut(self, item)
        if not self._put_queue and len(self.items) < self.capacity:
            # Fast path: capacity available and FIFO order preserved (nobody
            # is queued ahead) — accept inline.
            self._push(item)
            event.succeed()
            if self._get_queue:
                self._trigger_gets()
        else:
            self._put_queue.append(event)
            self._trigger_puts()
            self._trigger_gets()
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self.sim)
        if not self._get_queue and self.items:
            # Fast path: item ready and no waiter queued ahead.
            event.succeed(self._pop_next())
            if self._put_queue:
                self._trigger_puts()
        else:
            self._get_queue.append(event)
            self._trigger_gets()
        return event

    def try_get(self) -> Optional[T]:
        """Non-blocking get: pop an item if one is immediately available."""
        if self.items:
            item = self._pop_next()
            self._trigger_puts()
            return item
        return None

    def peek(self) -> Optional[T]:
        return self.items[0] if self.items else None

    # -- storage policy (overridden by PriorityStore) ---------------------------
    def _push(self, item: T) -> None:
        self.items.append(item)

    def _pop_next(self) -> T:
        return self.items.popleft()

    # -- internal --------------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._push(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self._pop_next())
            return True
        return False

    def _trigger_puts(self) -> None:
        queue = self._put_queue
        while queue:
            event = queue[0]
            if event.triggered:
                queue.popleft()
                continue
            if self._do_put(event):
                queue.popleft()
            else:
                break

    def _trigger_gets(self) -> None:
        queue = self._get_queue
        while queue:
            event = queue[0]
            if event.triggered:
                queue.popleft()
                continue
            if self._do_get(event):
                queue.popleft()
                self._trigger_puts()
            else:
                break


class PriorityStore(Store[T]):
    """A store that yields the smallest item first (items must be orderable)."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:  # noqa: F821
        super().__init__(sim, capacity)
        self.items: List[T] = []  # heap invariant — a list, not a deque
        self._counter = count()

    def _push(self, item: T) -> None:
        heapq.heappush(self.items, item)

    def _pop_next(self) -> T:
        return heapq.heappop(self.items)


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


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        super().__init__(container.sim)
        self.amount = amount


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        super().__init__(container.sim)
        self.amount = amount


class Container:
    """A continuous quantity with a maximum level.

    Used to model producer buffer memory: a producer ``get``s buffer space
    before enqueuing a record batch and the sender thread ``put``s it back
    once the batch is acknowledged.
    """

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        capacity: float = float("inf"),
        initial: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= initial <= capacity:
            raise ValueError("initial level must lie within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = initial
        self._put_queue: Deque[ContainerPut] = deque()
        self._get_queue: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = ContainerPut(self, amount)
        self._put_queue.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> ContainerGet:
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} exceeds container capacity {self.capacity}"
            )
        event = ContainerGet(self, amount)
        self._get_queue.append(event)
        self._dispatch()
        return event

    def try_get(self, amount: float) -> bool:
        """Non-blocking get: take ``amount`` if immediately available."""
        if self._get_queue or amount > self._level:
            return False
        self._level -= amount
        return True

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                event = self._put_queue[0]
                if self._level + event.amount <= self.capacity:
                    self._level += event.amount
                    event.succeed()
                    self._put_queue.popleft()
                    progressed = True
            if self._get_queue:
                event = self._get_queue[0]
                if event.amount <= self._level:
                    self._level -= event.amount
                    event.succeed()
                    self._get_queue.popleft()
                    progressed = True
