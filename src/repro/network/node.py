"""Base classes for emulated network nodes and their ports."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.network.packet import Packet
from repro.network.stats import PortStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.link import Link
    from repro.simulation import Simulator


class Port:
    """A node's attachment point for a link.

    Ports own the OpenFlow-style statistics counters; every transmitted or
    received packet is accounted for here, including drops.
    """

    def __init__(self, node: "NetworkNode", number: int) -> None:
        self.node = node
        self.number = number
        self.link: Optional["Link"] = None
        self.stats = PortStats()

    @property
    def connected(self) -> bool:
        return self.link is not None

    def attach(self, link: "Link") -> None:
        if self.link is not None:
            raise RuntimeError(
                f"port {self.node.name}:{self.number} is already connected"
            )
        self.link = link

    def transmit(self, packet: Packet) -> bool:
        """Push ``packet`` onto the attached link.

        Returns True if the packet was handed to the link, False if it was
        dropped (no link attached or link administratively down).
        """
        if self.link is None or not self.link.up:
            self.stats.record_tx_drop()
            return False
        self.stats.record_tx(packet.wire_size)
        self.link.transmit(packet, from_port=self)
        return True

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a packet arrives at this port."""
        self.stats.record_rx(packet.wire_size)
        self.node.receive(packet, self)

    def __repr__(self) -> str:
        peer = "-"
        if self.link is not None:
            other = self.link.other_port(self)
            peer = f"{other.node.name}:{other.number}"
        return f"<Port {self.node.name}:{self.number} <-> {peer}>"


class NetworkNode:
    """Common behaviour of hosts and switches."""

    #: Seconds until the node acts on a packet that reached a port; the link
    #: schedules the arrival that much later.  Hosts: none.  Switches set it.
    switching_delay = 0.0

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: Dict[int, Port] = {}

    def add_port(self, number: Optional[int] = None) -> Port:
        """Create a new port; the number defaults to the next free index."""
        if number is None:
            number = max(self.ports.keys(), default=0) + 1
        if number in self.ports:
            raise ValueError(f"port {number} already exists on {self.name}")
        port = Port(self, number)
        self.ports[number] = port
        return port

    def receive(self, packet: Packet, port: Port) -> None:
        """Handle a packet arriving on ``port`` (overridden by subclasses)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ports={sorted(self.ports)}>"
