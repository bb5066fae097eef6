"""The Network object: container for hosts, switches, links and control plane."""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.network.controller import NetworkController
from repro.network.host import Host
from repro.network.link import Link, LinkConfig
from repro.network.node import NetworkNode
from repro.network.stats import BandwidthMonitor
from repro.network.switch import Switch
from repro.simulation import Simulator


class Network:
    """An emulated network: the Mininet ``net`` object equivalent.

    Typical usage::

        sim = Simulator(seed=1)
        net = Network(sim)
        s1 = net.add_switch("s1")
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        net.add_link("h1", "s1", LinkConfig(latency_ms=5))
        net.add_link("h2", "s1", LinkConfig(latency_ms=5))
        net.start()
    """

    def __init__(
        self,
        sim: Simulator,
        routing: str = "shortest-path",
    ) -> None:
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: List[Link] = []
        self.controller = NetworkController(self, routing=routing)
        self.bandwidth_monitor = BandwidthMonitor(self)
        self.started = False

    # -- topology construction ---------------------------------------------------
    def add_host(
        self, name: str, cpu_percentage: float = 100.0, cores: int = 8
    ) -> Host:
        self._check_new_name(name)
        host = Host(self.sim, name, cpu_percentage=cpu_percentage, cores=cores)
        host.network = self
        self.hosts[name] = host
        return host

    def add_switch(self, name: str, switching_delay: Optional[float] = None) -> Switch:
        self._check_new_name(name)
        if switching_delay is None:
            switch = Switch(self.sim, name)
        else:
            switch = Switch(self.sim, name, switching_delay=switching_delay)
        self.switches[name] = switch
        return switch

    def add_link(
        self,
        a: Union[str, NetworkNode],
        b: Union[str, NetworkNode],
        config: Optional[LinkConfig] = None,
        port_a: Optional[int] = None,
        port_b: Optional[int] = None,
    ) -> Link:
        """Connect two nodes with a link.

        Hosts use their single access port; switches get a new port per link
        unless an explicit port number is requested (``st``/``dt`` attributes).
        """
        node_a = self.node(a) if isinstance(a, str) else a
        node_b = self.node(b) if isinstance(b, str) else b
        end_a = self._select_port(node_a, port_a)
        end_b = self._select_port(node_b, port_b)
        link = Link(self.sim, end_a, end_b, config=config)
        self.links.append(link)
        if self.started:
            self.controller.install_all_routes()
        return link

    def _select_port(self, node: NetworkNode, requested: Optional[int]):
        if isinstance(node, Host):
            if requested is not None and requested != node.port.number:
                # Hosts are single-homed in stream2gym scenarios; extra port
                # numbers in the task description are accepted but mapped to
                # the single access port.
                pass
            if node.port.connected:
                raise RuntimeError(f"host {node.name} is already connected")
            return node.port
        if requested is not None:
            if requested in node.ports and not node.ports[requested].connected:
                return node.ports[requested]
            return node.add_port(requested if requested not in node.ports else None)
        return node.add_port()

    def _check_new_name(self, name: str) -> None:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"node name {name!r} already in use")

    # -- lookup ----------------------------------------------------------------------
    def node(self, name: str) -> NetworkNode:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(f"unknown node {name!r}")

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """Find the (first) link connecting nodes ``a`` and ``b``."""
        for link in self.links:
            endpoints = set(link.endpoints())
            if endpoints == {a, b}:
                return link
        return None

    def links_of(self, node_name: str) -> List[Link]:
        return [link for link in self.links if node_name in link.endpoints()]

    # -- lifecycle ----------------------------------------------------------------------
    def start(self) -> None:
        """Install routes; must be called before traffic flows.  Nothing is
        scheduled: whoever owns the sampling tick calls
        ``bandwidth_monitor.sample`` (``Emulation._monitor`` does)."""
        self.controller.install_all_routes()
        self.started = True

    # -- statistics -----------------------------------------------------------------------
    def total_packets_delivered(self) -> int:
        return sum(link.packets_delivered for link in self.links)

    def total_packets_dropped(self) -> int:
        return sum(
            link.packets_dropped_loss + link.packets_dropped_down for link in self.links
        )

    def describe(self) -> dict:
        """Summary of the network for logging / DESIGN inventories."""
        return {
            "hosts": sorted(self.hosts),
            "switches": sorted(self.switches),
            "links": [
                {
                    "endpoints": link.endpoints(),
                    "latency_ms": link.config.latency_ms,
                    "bandwidth_mbps": link.config.bandwidth_mbps,
                    "loss_percent": link.config.loss_percent,
                    "up": link.up,
                }
                for link in self.links
            ],
        }

    def __repr__(self) -> str:
        return (
            f"<Network hosts={len(self.hosts)} switches={len(self.switches)} "
            f"links={len(self.links)}>"
        )
