"""Emulated end hosts.

A host owns one access port into the network, a set of bound services
(application components listening on ports), and a CPU allocation used by the
resource model and the stream processing engine's executor cost model
(``cpuPercentage`` in Table I).
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.network.node import NetworkNode, Port
from repro.network.packet import Packet, estimate_size

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
        cpu_percentage: float = 100.0,
        cores: int = 8,
    ) -> None:
        super().__init__(sim, name)
        if not 0 < cpu_percentage <= 100.0:
            raise ValueError("cpu_percentage must lie in (0, 100]")
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cpu_percentage = cpu_percentage
        self._share = cpu_percentage / 100.0
        self.cores = cores
        #: When each reserved core frees, as a heap; a core that was never
        #: reserved is not in it (so it holds at most ``cores`` entries).
        self._core_free_at: List[float] = []
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
        """Change the host's core count — before any work was charged: the
        completion times already handed out assumed the old count."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        if self._core_free_at:
            raise ValueError(f"{self.name}: cores are already reserved; set them before traffic")
        self.cores = cores

    def compute(self, duration: float) -> float:
        """Charge ``duration`` CPU-seconds of work to one core; returns the
        simulated time the work completes.

        The CPU is ``cores`` servers shared first come, first served: the
        work starts on the core that frees first (at once if one is idle) and
        takes ``duration`` stretched by the ``cpuPercentage`` cap (a host
        allowed only 50% of the CPU takes twice as long) —
        ``done = max(now, earliest free core) + duration / share``.  That is
        what makes single-host experiments such as the Ichinose reproduction
        saturate at the core count.  The caller waits for ``done`` itself
        (``sim.call_at`` / ``sim.timeout_at``); a zero charge on an idle core
        returns ``now`` and reserves nothing.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        now = self.sim.now
        free_at = self._core_free_at
        if len(free_at) < self.cores:
            if duration == 0:
                return now
            done = now + duration / self._share
            heappush(free_at, done)
            return done
        start = free_at[0]
        if start <= now:
            if duration == 0:
                return now
            start = now
        done = start + duration / self._share
        heapreplace(free_at, done)
        return done

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
        return f"<Host {self.name} services={sorted(self._services)}>"
