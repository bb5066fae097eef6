"""Canonical topologies of the paper's evaluation.

stream2gym users express topologies in GraphML; ``core.components``
turns those into hosts, switches and links with ``Network.add_*``.  This
module builds the shapes the evaluation uses the same way: the "one big
switch" abstraction (Figure 2), the star of coordinating sites (Figure 6a)
and Mininet's ``linear`` chain.  Hosts are created first, then switches,
then links.  Every link gets its own copy of its :class:`LinkConfig`, so
mutating one link mid-run (a ``transient_loss`` fault does) leaves the
others and the caller's config alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.link import LinkConfig
from repro.network.network import Network
from repro.simulation import Simulator


def one_big_switch(
    sim: Simulator,
    host_names: Iterable[str],
    link_configs: Optional[Dict[str, LinkConfig]] = None,
    switch_name: str = "s1",
    default_config: Optional[LinkConfig] = None,
) -> Network:
    """The "one big switch" abstraction: every host hangs off a single switch.

    ``link_configs`` overrides the per-host access link configuration, which
    is how the Figure 5 experiment varies one component's link delay at a
    time.
    """
    configs = link_configs or {}
    base = default_config or LinkConfig(latency_ms=1.0)
    network = Network(sim)
    names = list(host_names)
    for name in names:
        network.add_host(name)
    network.add_switch(switch_name)
    for name in names:
        network.add_link(name, switch_name, config=replace(configs.get(name, base)))
    network.start()
    return network


def star_topology(
    sim: Simulator,
    n_sites: int,
    site_prefix: str = "site",
    core_switch: str = "s0",
    link_config: Optional[LinkConfig] = None,
) -> Tuple[Network, List[str]]:
    """The Figure 6a scenario: ``n_sites`` coordinating sites around one core switch.

    Each site is a single host that will run a broker, a producer and a
    consumer.  Returns the network and the site host names.
    """
    if n_sites <= 0:
        raise ValueError("n_sites must be positive")
    config = link_config or LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    names = [f"{site_prefix}{index}" for index in range(1, n_sites + 1)]
    network = Network(sim)
    for name in names:
        network.add_host(name)
    network.add_switch(core_switch)
    for name in names:
        network.add_link(name, core_switch, config=replace(config))
    network.start()
    return network, names


def linear_topology(
    sim: Simulator,
    n_hosts: int,
    link_config: Optional[LinkConfig] = None,
) -> Network:
    """A chain of switches, one host per switch (Mininet's ``linear`` topology)."""
    if n_hosts <= 0:
        raise ValueError("n_hosts must be positive")
    config = link_config or LinkConfig(latency_ms=1.0)
    network = Network(sim)
    for index in range(1, n_hosts + 1):
        network.add_host(f"h{index}")
    for index in range(1, n_hosts + 1):
        network.add_switch(f"s{index}")
    for index in range(1, n_hosts + 1):
        network.add_link(f"h{index}", f"s{index}", config=replace(config))
        if index > 1:
            network.add_link(f"s{index - 1}", f"s{index}", config=replace(config))
    network.start()
    return network
