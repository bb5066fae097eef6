"""The controller's routes against networkx as an oracle.

networkx is a test-only dependency: ``repro.network.controller`` computes
paths with its own Dijkstra and Kruskal.  On small random connected graphs
(hosts single-homed on switches) every ``path_between``, the
``reachability()`` matrix and every switch's installed forwarding table must
equal what networkx computes, at start-up and again after some links are set
down and ``handle_topology_change()`` runs.

With link latencies that are distinct powers of two no two paths cost the
same, so the shortest path is unique.  Spanning-tree routing is also checked
with tied latencies: its Kruskal takes edges in networkx's order, so even
equal-weight edges pick the same tree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import LinkConfig, Network
from repro.simulation import Simulator

nx = pytest.importorskip("networkx")


@st.composite
def topologies(draw):
    """``(n_switches, links, down)``: links as ``(a, b)`` name pairs, the
    switches connected by a random tree plus extra edges, and the indices
    of the links to set down later."""
    n_switches = draw(st.integers(1, 5))
    links = [(f"s{i}", f"s{draw(st.integers(0, i - 1))}") for i in range(1, n_switches)]
    tree = {frozenset(link) for link in links}
    pairs = [
        (f"s{a}", f"s{b}")
        for a in range(n_switches)
        for b in range(a + 1, n_switches)
        if frozenset((f"s{a}", f"s{b}")) not in tree
    ]
    if pairs:
        links += draw(st.lists(st.sampled_from(pairs), unique=True))
    n_hosts = draw(st.integers(1, 4))
    links += [(f"h{i}", f"s{draw(st.integers(0, n_switches - 1))}") for i in range(n_hosts)]
    down = draw(st.sets(st.integers(0, len(links) - 1), max_size=3))
    return n_switches, links, down


def build(routing, n_switches, links, latencies):
    sim = Simulator()
    net = Network(sim, routing=routing)
    for name in sorted({a for a, _ in links if a.startswith("h")}):
        net.add_host(name)
    for i in range(n_switches):
        net.add_switch(f"s{i}")
    for (a, b), latency in zip(links, latencies):
        net.add_link(a, b, LinkConfig(latency_ms=latency))
    net.start()
    return net


def oracle_graph(net):
    graph = nx.Graph()
    graph.add_nodes_from(net.hosts)
    graph.add_nodes_from(net.switches)
    for link in net.links:
        if link.up:
            a, b = link.endpoints()
            graph.add_edge(a, b, weight=link.config.latency_ms + 1e-3)
    if net.controller.routing == "spanning-tree":
        graph = nx.minimum_spanning_tree(graph, weight="weight")
    return graph


def oracle_path(graph, src, dst):
    try:
        return tuple(nx.shortest_path(graph, src, dst, weight="weight"))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def neighbour_on(switch, port_number):
    port = switch.ports[port_number]
    return port.link.other_port(port).node.name


def assert_matches_oracle(net):
    graph = oracle_graph(net)
    names = list(graph) + ["ghost"]
    for src in names:
        for dst in names:
            assert net.controller.path_between(src, dst) == oracle_path(graph, src, dst), (src, dst)
    hosts = list(net.hosts)
    assert net.controller.reachability() == {
        src: {dst: nx.has_path(graph, src, dst) for dst in hosts} for src in hosts
    }
    for name, switch in net.switches.items():
        installed = {
            host: neighbour_on(switch, port) for host, port in switch.forwarding_table.items()
        }
        expected = {}
        for host in hosts:
            path = oracle_path(graph, name, host)
            if path is not None:
                expected[host] = path[1]
        assert installed == expected, name


@pytest.mark.parametrize(
    "routing, tied",
    [("shortest-path", False), ("spanning-tree", False), ("spanning-tree", True)],
    ids=["shortest-path", "spanning-tree", "spanning-tree-tied"],
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(topology=topologies(), data=st.data())
def test_routes_match_networkx(routing, tied, topology, data):
    n_switches, links, down = topology
    if tied:
        latencies = data.draw(
            st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=len(links), max_size=len(links))
        )
    else:
        latencies = [2.0 ** k for k in data.draw(st.permutations(range(len(links))))]
    net = build(routing, n_switches, links, latencies)
    assert_matches_oracle(net)
    for index in sorted(down):
        net.links[index].set_down()
    net.controller.handle_topology_change()
    assert_matches_oracle(net)


def test_uniform_triangle_spanning_tree_follows_kruskal_order():
    """Equal weights everywhere: edges are listed node by node (all of s0's
    before s1's), so s0-s1 and s0-s2 form the tree and s1-s2 is left out,
    although its link was added before s0-s2's."""
    net = build(
        "spanning-tree",
        3,
        [("h0", "s0"), ("h1", "s1"), ("s0", "s1"), ("s1", "s2"), ("s0", "s2")],
        [2.0] * 5,
    )
    assert net.controller.path_between("s1", "s2") == ("s1", "s0", "s2")
    assert_matches_oracle(net)
