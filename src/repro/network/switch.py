"""Emulated switches with controller-installed forwarding tables."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.network.node import NetworkNode, Port
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation import Simulator

#: Per-packet forwarding latency of a software switch, in seconds.  Hardware
#: switches are more than an order of magnitude faster (see the paper's
#: discussion section); the hardware calibration profile overrides this.
DEFAULT_SWITCHING_DELAY = 30e-6


class Switch(NetworkNode):
    """A store-and-forward switch.

    The forwarding table maps destination *host names* to output port numbers
    and is installed proactively by the :class:`NetworkController` (the
    equivalent of stream2gym's ``ovs-ofctl`` control daemon).  Packets with no
    matching entry are dropped and counted, exactly like an OpenFlow switch
    with no table-miss rule.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        switching_delay: float = DEFAULT_SWITCHING_DELAY,
    ) -> None:
        super().__init__(sim, name)
        if switching_delay < 0:
            raise ValueError("switching_delay must be non-negative")
        self.switching_delay = switching_delay
        self.forwarding_table: Dict[str, int] = {}
        self.table_misses = 0
        self.packets_forwarded = 0

    # -- control plane ------------------------------------------------------------
    def install_route(self, dst_host: str, out_port: int) -> None:
        """Install (or update) the forwarding entry for ``dst_host``."""
        if out_port not in self.ports:
            raise KeyError(f"{self.name} has no port {out_port}")
        self.forwarding_table[dst_host] = out_port

    def clear_routes(self) -> None:
        self.forwarding_table.clear()

    # -- data plane ------------------------------------------------------------------
    def receive(self, packet: Packet, port: Port) -> None:
        """Forward at once: ``Link.transmit`` already waited ``switching_delay``."""
        out_port = self.ports.get(self.forwarding_table.get(packet.dst))
        if out_port is None or out_port is port:  # no route, port gone, hairpin
            self.table_misses += 1
            port.stats.record_rx_drop()
            return
        self.packets_forwarded += 1
        out_port.transmit(packet)

    def __repr__(self) -> str:
        return f"<Switch {self.name} routes={len(self.forwarding_table)}>"
