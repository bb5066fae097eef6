"""Fault injection: link failures, transient failures, node disconnections.

This is the emulation-level mechanism behind stream2gym's ``faultCfg`` graph
attribute.  Faults are scheduled on the simulation clock; when they fire the
affected links are brought down (and later back up), and the network
controller recomputes routes — exactly what happens when an operator runs
``link down`` in Mininet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import Network


@dataclass
class LinkFault:
    """One scheduled link failure.

    Attributes
    ----------
    endpoints:
        Names of the two nodes whose connecting link fails.
    start:
        Simulated time (seconds) at which the link goes down.
    duration:
        How long the link stays down; ``None`` means it never recovers.
    """

    endpoints: Tuple[str, str]
    start: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("fault start time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("fault duration must be positive")

    @property
    def end(self) -> Optional[float]:
        return None if self.duration is None else self.start + self.duration


@dataclass
class NodeDisconnection:
    """Disconnect *all* links of a node (used to partition a broker's host)."""

    node: str
    start: float
    duration: Optional[float] = None

    @property
    def end(self) -> Optional[float]:
        return None if self.duration is None else self.start + self.duration


@dataclass
class FaultEvent:
    """Record of an executed fault action (for the event log / tests)."""

    time: float
    action: str
    target: str


class FaultInjector:
    """Schedules and executes fault actions against a network."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.scheduled: List[object] = []
        self.events: List[FaultEvent] = []

    # -- scheduling -----------------------------------------------------------------
    def schedule_link_fault(self, fault: LinkFault) -> None:
        """Register a link fault to be executed at its start time."""
        self.scheduled.append(fault)
        sim = self.network.sim
        sim.call_later(fault.start, self._bring_link_down, fault)
        if fault.duration is not None:
            sim.call_later(fault.start + fault.duration, self._bring_link_up, fault)

    def schedule_node_disconnection(self, disconnection: NodeDisconnection) -> None:
        """Register the disconnection of every link attached to a node."""
        self.scheduled.append(disconnection)
        sim = self.network.sim
        sim.call_later(disconnection.start, self._disconnect_node, disconnection)
        if disconnection.duration is not None:
            sim.call_later(
                disconnection.start + disconnection.duration,
                self._reconnect_node,
                disconnection,
            )

    def partition(self, group_a: List[str], group_b: List[str], start: float,
                  duration: Optional[float] = None) -> None:
        """Partition the network by failing every link between the two groups."""
        for link in self.network.links:
            a, b = link.endpoints()
            crosses = (a in group_a and b in group_b) or (a in group_b and b in group_a)
            if crosses:
                self.schedule_link_fault(
                    LinkFault(endpoints=(a, b), start=start, duration=duration)
                )

    # -- execution ------------------------------------------------------------------
    def _bring_link_down(self, fault: LinkFault) -> None:
        link = self.network.link_between(*fault.endpoints)
        if link is None:
            raise KeyError(f"no link between {fault.endpoints}")
        link.set_down()
        self._record("link-down", "-".join(fault.endpoints))
        self.network.controller.handle_topology_change()

    def _bring_link_up(self, fault: LinkFault) -> None:
        link = self.network.link_between(*fault.endpoints)
        if link is None:
            return
        link.set_up()
        self._record("link-up", "-".join(fault.endpoints))
        self.network.controller.handle_topology_change()

    def _disconnect_node(self, disconnection: NodeDisconnection) -> None:
        for link in self.network.links_of(disconnection.node):
            link.set_down()
        self._record("node-disconnect", disconnection.node)
        self.network.controller.handle_topology_change()

    def _reconnect_node(self, disconnection: NodeDisconnection) -> None:
        for link in self.network.links_of(disconnection.node):
            link.set_up()
        self._record("node-reconnect", disconnection.node)
        self.network.controller.handle_topology_change()

    def _record(self, action: str, target: str) -> None:
        self.events.append(
            FaultEvent(time=self.network.sim.now, action=action, target=target)
        )

    def history(self) -> List[FaultEvent]:
        return list(self.events)
