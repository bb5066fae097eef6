"""Message-level network emulation substrate (Mininet substitute).

The network package emulates the part of Mininet that stream2gym relies on:

* arbitrary topologies of hosts, switches and links, built with
  ``Network.add_host`` / ``add_switch`` / ``add_link`` (the canned shapes of
  the evaluation live in :mod:`repro.network.topology`);
* per-link latency, bandwidth, and loss shaping (``tc``/netem equivalent);
* link failures and recoveries (``ifconfig down`` equivalent) for
  partition-failure experiments;
* a proactive controller that installs shortest-path forwarding entries
  (``ovs-ofctl`` equivalent) and recomputes them when the topology changes;
* OpenFlow-style per-port statistics, which ``BandwidthMonitor.sample``
  turns into throughput series when its owner ticks it.

On top of the raw packet path, :mod:`repro.network.transport` provides the
reliable request/response channel that the broker, stream processing engine
and data store clients use.
"""

from repro.network.controller import NetworkController
from repro.network.faults import Fault, FaultInjector
from repro.network.host import Host
from repro.network.link import Link, LinkConfig
from repro.network.network import Network
from repro.network.node import Port
from repro.network.packet import Packet
from repro.network.stats import PortStats
from repro.network.switch import Switch
from repro.network.topology import one_big_switch, star_topology
from repro.network.transport import RemoteError, RequestTimeout, Transport

__all__ = [
    "Network",
    "NetworkController",
    "Host",
    "Switch",
    "Port",
    "Link",
    "LinkConfig",
    "Packet",
    "PortStats",
    "one_big_switch",
    "star_topology",
    "Transport",
    "RequestTimeout",
    "RemoteError",
    "FaultInjector",
    "Fault",
]
