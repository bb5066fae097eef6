"""Proactive network controller.

stream2gym configures its emulated network proactively with a lightweight
control daemon based on ``ovs-ofctl`` so that the control plane does not
interfere with measurements.  This controller plays the same role: it builds
an adjacency map of the current topology (excluding failed links), weights
each link by its latency plus 1e-3 (so zero-latency links still count hops),
runs one Dijkstra from every switch and installs the first hop towards every
host in the switches' forwarding tables.  Between two nodes joined by
parallel links the map keeps the lightest link that is up, and the route
leaves through that link's port (the lowest port number among equal
weights).  It is invoked once at start-up and again whenever the fault
injector changes link state.

``spanning-tree`` routing first reduces the map to a minimum spanning tree
with Kruskal's method.  Edges are taken in adjacency order (nodes in
insertion order, hosts before switches; each node's neighbours in the order
their links were added; each edge once, from the node that comes first) and
stably sorted by weight, so among equal-weight edges the earlier one wins.
Among equal-cost paths Dijkstra keeps the one it finds first: a node's
predecessor changes only for a strictly shorter distance.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import Network

#: node -> {neighbour: link weight}
Adjacency = Dict[str, Dict[str, float]]


class NetworkController:
    """Computes and installs forwarding state for all switches."""

    def __init__(self, network: "Network", routing: str = "shortest-path") -> None:
        if routing not in ("shortest-path", "spanning-tree"):
            raise ValueError(f"unknown routing algorithm {routing!r}")
        self.network = network
        self.routing = routing
        self.recomputations = 0

    # -- public API -----------------------------------------------------------------
    def install_all_routes(self) -> None:
        """(Re)compute routes for the current topology and install them."""
        self.recomputations += 1
        graph = self._build_graph()
        for switch in self.network.switches.values():
            switch.clear_routes()
        for switch_name, switch in self.network.switches.items():
            previous = _shortest_paths(graph, switch_name)
            for host_name in self.network.hosts:
                next_hop = _next_hop(previous, switch_name, host_name)
                if next_hop is None:
                    continue
                port = self._port_towards(switch_name, next_hop)
                if port is not None:
                    switch.install_route(host_name, port)

    def handle_topology_change(self) -> None:
        """Called by the fault injector after links go down or come back up."""
        self.install_all_routes()

    def path_between(self, src: str, dst: str) -> Optional[Tuple[str, ...]]:
        """Return the current forwarding path between two nodes (for tests)."""
        previous = _shortest_paths(self._build_graph(), src)
        if dst not in previous:
            return None
        return tuple(_path_to(previous, dst))

    def reachability(self) -> Dict[str, Dict[str, bool]]:
        """Host-to-host reachability matrix under the current topology."""
        graph = self._build_graph()
        matrix: Dict[str, Dict[str, bool]] = {}
        for src in self.network.hosts:
            reached = _shortest_paths(graph, src)
            matrix[src] = {dst: dst in reached for dst in self.network.hosts}
        return matrix

    # -- internals --------------------------------------------------------------------
    def _build_graph(self) -> Adjacency:
        graph: Adjacency = {name: {} for name in self.network.hosts}
        graph.update((name, {}) for name in self.network.switches)
        for link in self.network.links:
            if not link.up:
                continue
            a, b = link.endpoints()
            weight = _weight(link)
            if b not in graph[a] or weight < graph[a][b]:
                graph[a][b] = weight
                graph[b][a] = weight
        if self.routing == "spanning-tree":
            graph = _minimum_spanning_tree(graph)
        return graph

    def _port_towards(self, node_name: str, neighbor_name: str) -> Optional[int]:
        """The port of the lightest up link to ``neighbor_name``, the lowest
        port number among equal weights."""
        node = self.network.node(node_name)
        best: Optional[Tuple[float, int]] = None
        for number, port in node.ports.items():
            link = port.link
            if link is None or not link.up:
                continue
            if link.other_port(port).node.name == neighbor_name:
                candidate = (_weight(link), number)
                if best is None or candidate < best:
                    best = candidate
        return None if best is None else best[1]


def _weight(link) -> float:
    """A link's routing weight: its latency plus 1e-3, so hops count."""
    return link.config.latency_ms + 1e-3


def _shortest_paths(graph: Adjacency, source: str) -> Dict[str, Optional[str]]:
    """Dijkstra from ``source``: each reachable node -> its predecessor on the
    shortest path (``source`` -> None); unreachable nodes are absent."""
    if source not in graph:
        return {}
    distance = {source: 0.0}
    previous: Dict[str, Optional[str]] = {source: None}
    heap: List[Tuple[float, int, str]] = [(0.0, 0, source)]
    pushes = 1
    while heap:
        dist, _, node = heappop(heap)
        if dist > distance[node]:
            continue
        for neighbour, weight in graph[node].items():
            candidate = dist + weight
            if neighbour not in distance or candidate < distance[neighbour]:
                distance[neighbour] = candidate
                previous[neighbour] = node
                heappush(heap, (candidate, pushes, neighbour))
                pushes += 1
    return previous


def _path_to(previous: Dict[str, Optional[str]], dst: str) -> List[str]:
    path = [dst]
    while previous[path[-1]] is not None:
        path.append(previous[path[-1]])
    path.reverse()
    return path


def _next_hop(previous: Dict[str, Optional[str]], src: str, dst: str) -> Optional[str]:
    """The node after ``src`` on its path to ``dst``; None when ``src == dst``
    or ``dst`` is unknown or unreachable."""
    if src == dst or dst not in previous:
        return None
    return _path_to(previous, dst)[1]


def _minimum_spanning_tree(graph: Adjacency) -> Adjacency:
    """Kruskal over the edges in adjacency order, stably sorted by weight."""
    edges = []
    seen = set()
    for node, neighbours in graph.items():
        for neighbour, weight in neighbours.items():
            if neighbour not in seen:
                edges.append((weight, node, neighbour))
        seen.add(node)
    edges.sort(key=lambda edge: edge[0])
    parent = {node: node for node in graph}

    def root(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    tree: Adjacency = {node: {} for node in graph}
    for weight, a, b in edges:
        root_a, root_b = root(a), root(b)
        if root_a != root_b:
            parent[root_a] = root_b
            tree[a][b] = weight
            tree[b][a] = weight
    return tree
