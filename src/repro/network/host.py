"""Emulated end hosts.

A host owns one access port into the network, a set of bound services
(application components listening on ports), and a CPU allocation used by the
resource model and the stream processing engine's executor cost model
(``cpuPercentage`` in Table I).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.network.addressing import NodeAddress
from repro.network.node import NetworkNode, Port
from repro.network.packet import Packet, estimate_size
from repro.simulation.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation import Simulator

#: Delay applied to host-local (loopback) deliveries, in seconds.
LOOPBACK_DELAY = 50e-6

ServiceHandler = Callable[[Packet], None]


class Host(NetworkNode):
    """An emulated end host that can run application components."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address: Optional[NodeAddress] = None,
        cpu_percentage: float = 100.0,
        cores: int = 8,
    ) -> None:
        super().__init__(sim, name)
        if not 0 < cpu_percentage <= 100.0:
            raise ValueError("cpu_percentage must lie in (0, 100]")
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.address = address
        self.cpu_percentage = cpu_percentage
        self.cores = cores
        self.cpu = Resource(sim, capacity=cores)
        self.cpu_busy_seconds = 0.0
        self.network = None  # set by Network.add_host
        self._services: Dict[int, ServiceHandler] = {}
        self._next_ephemeral_port = 60000
        self._default_port = self.add_port(1)
        self.packets_sent = 0
        self.packets_received = 0
        self.undeliverable = 0
        self.components: list = []  # application components placed on this host

    # -- service binding ---------------------------------------------------------
    @property
    def port(self) -> Port:
        """The host's access port into the network."""
        return self._default_port

    def bind(self, service_port: int, handler: ServiceHandler) -> None:
        """Register ``handler`` to receive packets addressed to ``service_port``."""
        if service_port in self._services:
            raise ValueError(f"port {service_port} already bound on {self.name}")
        self._services[service_port] = handler

    def unbind(self, service_port: int) -> None:
        self._services.pop(service_port, None)

    def is_bound(self, service_port: int) -> bool:
        return service_port in self._services

    def allocate_port(self) -> int:
        """Return a fresh ephemeral port number (used for transport replies)."""
        port = self._next_ephemeral_port
        self._next_ephemeral_port += 1
        return port

    def register_component(self, component: Any) -> None:
        """Attach an application component (broker, producer, SPE, ...) to this host."""
        self.components.append(component)

    # -- CPU model --------------------------------------------------------------
    def set_cores(self, cores: int) -> None:
        """Change the host's core count (before traffic starts)."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cores = cores
        self.cpu.capacity = cores

    def compute(self, duration: float):
        """Generator: occupy one CPU core for ``duration`` seconds of work.

        The effective duration is stretched by the host's ``cpuPercentage``
        cap (a host allowed only 50% of the CPU takes twice as long), and the
        work queues behind other tasks when all cores are busy — this is what
        makes single-host experiments such as the Ichinose reproduction
        saturate at the core count.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        effective = duration / (self.cpu_percentage / 100.0)
        request = self.cpu.request()
        if not request.processed:  # every core busy: queue for one
            yield request
        try:
            if effective > 0:
                yield self.sim.timeout(effective)
            self.cpu_busy_seconds += effective
        finally:
            self.cpu.release(request)

    @property
    def cpu_load(self) -> float:
        """Fraction of cores currently busy (instantaneous)."""
        return self.cpu.in_use / self.cpu.capacity

    # -- sending -----------------------------------------------------------------
    def send(
        self,
        dst: str,
        payload: Any,
        size: Optional[int] = None,
        dst_port: int = 0,
        src_port: int = 0,
        headers: Optional[dict] = None,
    ) -> Packet:
        """Send a message to host ``dst`` and return the packet object."""
        packet = Packet(
            src=self.name,
            dst=dst,
            payload=payload,
            size=size if size is not None else estimate_size(payload),
            src_port=src_port,
            dst_port=dst_port,
            created_at=self.sim.now,
            headers={} if headers is None else headers,
        )
        self.packets_sent += 1
        if dst == self.name:
            # Loopback: co-located components still pay a small kernel hop.
            self.sim.call_later(LOOPBACK_DELAY, self._deliver_local, packet)
            return packet
        self._default_port.transmit(packet)
        return packet

    def _deliver_local(self, packet: Packet) -> None:
        self.port.stats.record_tx(packet.wire_size)
        self.port.stats.record_rx(packet.wire_size)
        self._dispatch(packet)

    # -- receiving -----------------------------------------------------------------
    def receive(self, packet: Packet, port: Port) -> None:
        if packet.dst != self.name:
            # Hosts do not forward traffic.
            self.undeliverable += 1
            return
        self._dispatch(packet)

    def _dispatch(self, packet: Packet) -> None:
        self.packets_received += 1
        handler = self._services.get(packet.dst_port)
        if handler is None:
            self.undeliverable += 1
            return
        handler(packet)

    def __repr__(self) -> str:
        ip = self.address.ip if self.address else "?"
        return f"<Host {self.name} ip={ip} services={sorted(self._services)}>"
