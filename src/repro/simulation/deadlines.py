"""Lazy-expiry deadlines behind one armed timer.

A component that parks many waits, each with a deadline, and answers most of
them early (RPC replies, purgatory releases) should not pay a heap entry per
answered wait.  :class:`DeadlineHeap` keeps ``(deadline, seq, item)`` entries
and at most one timer, armed at the earliest deadline it knew of when it was
armed.  When the timer fires it drops what was ``answered`` in the meantime,
``expire``\\ s what is due and re-arms for the earliest item still waiting, so
every item expires exactly at its deadline.  ``seq`` breaks ties in push
order.  ``docs/event_model.md`` describes the two users: ``Transport``'s
request attempts and ``Broker``'s purgatory.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable


class DeadlineHeap:
    """Deadlines of waits that are usually answered before they expire."""

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        answered: Callable[[Any], bool],
        expire: Callable[[Any], None],
    ) -> None:
        self.sim = sim
        self._answered = answered
        self._expire = expire
        self._heap: list = []
        self._seq = count()
        self._armed = float("inf")

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, deadline: float, item: Any) -> None:
        """Expire ``item`` at ``deadline`` unless it is answered first."""
        heappush(self._heap, (deadline, next(self._seq), item))
        if deadline < self._armed:
            self._armed = deadline
            self.sim.call_at(deadline, self._sweep)

    def _sweep(self) -> None:
        now = self.sim.now
        if now < self._armed:
            return  # a timer that a shorter deadline overtook; that one swept
        heap, answered = self._heap, self._answered
        while heap:
            deadline, _seq, item = heap[0]
            if answered(item):
                heappop(heap)
            elif deadline <= now:
                heappop(heap)
                self._expire(item)
            else:
                break
        self._armed = heap[0][0] if heap else float("inf")
        if heap:
            self.sim.call_at(self._armed, self._sweep)
