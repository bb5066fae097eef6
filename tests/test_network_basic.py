"""Unit tests for addressing, packets, links, hosts and switches."""

import pytest

from repro.network import LinkConfig, Network, Packet
from repro.network.addressing import AddressAllocator
from repro.network.packet import estimate_size
from repro.simulation import Simulator


def make_two_host_net(latency_ms=10.0, bandwidth_mbps=100.0, loss=0.0, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_switch("s1")
    net.add_host("h1")
    net.add_host("h2")
    cfg = LinkConfig(latency_ms=latency_ms, bandwidth_mbps=bandwidth_mbps, loss_percent=loss)
    net.add_link("h1", "s1", cfg)
    net.add_link("h2", "s1", cfg)
    net.start(monitor=False)
    return sim, net


class TestAddressing:
    def test_sequential_ips(self):
        alloc = AddressAllocator()
        a = alloc.allocate("h1")
        b = alloc.allocate("h2")
        assert a.ip == "10.0.0.1"
        assert b.ip == "10.0.0.2"

    def test_allocate_is_idempotent(self):
        alloc = AddressAllocator()
        assert alloc.allocate("h1") is alloc.allocate("h1")
        assert len(alloc) == 1

    def test_lookup_and_resolve(self):
        alloc = AddressAllocator()
        addr = alloc.allocate("h9")
        assert alloc.lookup("h9") == addr
        assert alloc.resolve_ip(addr.ip) == addr
        assert alloc.lookup("nope") is None

    def test_macs_are_unique(self):
        alloc = AddressAllocator()
        macs = {alloc.allocate(f"h{i}").mac for i in range(50)}
        assert len(macs) == 50

    def test_invalid_base_network(self):
        with pytest.raises(ValueError):
            AddressAllocator("not-an-ip")


class TestPacket:
    def test_wire_size_includes_overhead(self):
        packet = Packet(src="a", dst="b", payload=b"x" * 100, size=100)
        assert packet.wire_size == 100 + 66

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", payload=None, size=-1)

    def test_estimate_size_strings_and_bytes(self):
        assert estimate_size("hello world, this is a test") == 27
        assert estimate_size(b"\x00" * 500) == 500
        assert estimate_size(None) == 16
        assert estimate_size({"key": "value"}) >= 8
        assert estimate_size([1, 2, 3]) >= 12

    def test_packet_ids_increase(self):
        p1 = Packet(src="a", dst="b", payload=None)
        p2 = Packet(src="a", dst="b", payload=None)
        assert p2.packet_id > p1.packet_id


class TestLinkConfig:
    def test_serialization_delay(self):
        cfg = LinkConfig(latency_ms=1.0, bandwidth_mbps=8.0)
        # 1000 bytes at 8 Mbps = 1 ms
        assert cfg.serialization_delay(1000) == pytest.approx(0.001)

    def test_unshaped_bandwidth(self):
        cfg = LinkConfig(bandwidth_mbps=None)
        assert cfg.serialization_delay(10**9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(latency_ms=-1)
        with pytest.raises(ValueError):
            LinkConfig(bandwidth_mbps=0)
        with pytest.raises(ValueError):
            LinkConfig(loss_percent=150)


class TestDelivery:
    def test_host_to_host_delivery(self):
        sim, net = make_two_host_net(latency_ms=10.0)
        received = []
        net.host("h2").bind(5000, lambda pkt: received.append((pkt.payload, sim.now)))
        net.host("h1").send("h2", "hello", size=100, dst_port=5000)
        sim.run()
        assert len(received) == 1
        payload, at = received[0]
        assert payload == "hello"
        # Two link latencies (10ms each) plus serialization and switching.
        assert 0.020 <= at <= 0.025

    def test_latency_scales_with_link_delay(self):
        arrivals = {}
        for delay in (5.0, 50.0):
            sim, net = make_two_host_net(latency_ms=delay)
            net.host("h2").bind(5000, lambda pkt, d=delay: arrivals.__setitem__(d, sim.now))
            net.host("h1").send("h2", "x", size=10, dst_port=5000)
            sim.run()
        assert arrivals[50.0] > arrivals[5.0] * 5

    def test_bandwidth_serialization_delay(self):
        # 1 MB over 8 Mbps takes ~1 s per hop; the path is two hops
        # (host->switch, switch->host) under store-and-forward.
        sim, net = make_two_host_net(latency_ms=0.0, bandwidth_mbps=8.0)
        seen = []
        net.host("h2").bind(80, lambda pkt: seen.append(sim.now))
        net.host("h1").send("h2", b"", size=1_000_000, dst_port=80)
        sim.run()
        assert seen and seen[0] == pytest.approx(2.0, rel=0.05)

    def test_loopback_delivery(self):
        sim, net = make_two_host_net()
        got = []
        net.host("h1").bind(1234, lambda pkt: got.append(pkt.payload))
        net.host("h1").send("h1", "local", dst_port=1234)
        sim.run()
        assert got == ["local"]

    def test_unbound_port_counts_undeliverable(self):
        sim, net = make_two_host_net()
        net.host("h1").send("h2", "x", dst_port=999)
        sim.run()
        assert net.host("h2").undeliverable == 1

    def test_total_loss_drops_everything(self):
        sim, net = make_two_host_net(loss=100.0)
        received = []
        net.host("h2").bind(5000, lambda pkt: received.append(pkt.payload))
        for _ in range(20):
            net.host("h1").send("h2", "x", size=10, dst_port=5000)
        sim.run()
        assert received == []
        assert net.total_packets_dropped() >= 20

    def test_partial_loss_statistical(self):
        sim, net = make_two_host_net(loss=50.0, seed=3)
        received = []
        net.host("h2").bind(5000, lambda pkt: received.append(pkt.payload))
        for _ in range(200):
            net.host("h1").send("h2", "x", size=10, dst_port=5000)
        sim.run()
        assert 40 < len(received) < 160

    def test_port_stats_counters(self):
        sim, net = make_two_host_net()
        net.host("h2").bind(5000, lambda pkt: None)
        net.host("h1").send("h2", "x", size=100, dst_port=5000)
        sim.run()
        h1 = net.host("h1")
        h2 = net.host("h2")
        assert h1.port.stats.tx_packets == 1
        assert h1.port.stats.tx_bytes == 166
        assert h2.port.stats.rx_packets == 1

    def test_link_down_drops_packets(self):
        sim, net = make_two_host_net()
        received = []
        net.host("h2").bind(5000, lambda pkt: received.append(pkt.payload))
        link = net.link_between("h1", "s1")
        link.set_down()
        net.host("h1").send("h2", "x", size=10, dst_port=5000)
        sim.run()
        assert received == []

    def test_link_recovery_allows_traffic_again(self):
        sim, net = make_two_host_net()
        received = []
        net.host("h2").bind(5000, lambda pkt: received.append(sim.now))
        link = net.link_between("h1", "s1")
        link.set_down()

        def scenario():
            net.host("h1").send("h2", "lost", size=10, dst_port=5000)
            yield sim.timeout(1.0)
            link.set_up()
            net.controller.handle_topology_change()
            net.host("h1").send("h2", "ok", size=10, dst_port=5000)

        sim.process(scenario())
        sim.run()
        assert len(received) == 1

    def test_drop_on_arrival_counts_on_the_link_and_the_sending_port(self):
        """A packet caught in flight by ``set_down`` is one link drop and one
        drop on the port that sent it, like every other drop."""
        sim, net = make_two_host_net(latency_ms=10.0)
        link = net.link_between("h1", "s1")
        net.host("h1").send("h2", "x", size=10, dst_port=5000)
        sim.call_later(0.005, link.set_down)  # launched, still propagating
        sim.run()
        assert (link.packets_dropped_down, link.packets_delivered) == (1, 0)
        assert net.host("h1").port.stats.tx_dropped == 1

    @pytest.mark.parametrize("case", ["hairpin", "port gone"])
    def test_switch_drop_without_an_output_port_counts_on_the_ingress_port(self, case):
        sim, net = make_two_host_net()
        switch = net.switches["s1"]
        ingress = net.link_between("h1", "s1").other_port(net.host("h1").port)
        if case == "hairpin":
            switch.forwarding_table["h2"] = ingress.number
        else:
            del switch.ports[switch.forwarding_table["h2"]]
        net.host("h1").send("h2", "x", size=10, dst_port=5000)
        sim.run()
        # Like the no-route miss: one table miss, one rx drop.
        assert (switch.table_misses, ingress.stats.rx_dropped, switch.packets_forwarded) == (1, 1, 0)


class TestNetworkContainer:
    def test_duplicate_names_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.add_host("h1")
        with pytest.raises(ValueError):
            net.add_host("h1")
        with pytest.raises(ValueError):
            net.add_switch("h1")

    def test_node_lookup(self):
        sim, net = make_two_host_net()
        assert net.node("h1") is net.host("h1")
        assert net.node("s1") is net.switches["s1"]
        with pytest.raises(KeyError):
            net.node("missing")
        with pytest.raises(KeyError):
            net.host("s1")

    def test_link_between(self):
        sim, net = make_two_host_net()
        assert net.link_between("h1", "s1") is not None
        assert net.link_between("s1", "h1") is not None
        assert net.link_between("h1", "h2") is None

    def test_links_of(self):
        sim, net = make_two_host_net()
        assert len(net.links_of("s1")) == 2
        assert len(net.links_of("h1")) == 1

    def test_describe(self):
        sim, net = make_two_host_net()
        info = net.describe()
        assert info["hosts"] == ["h1", "h2"]
        assert info["switches"] == ["s1"]
        assert len(info["links"]) == 2

    def test_host_cpu_validation(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            net.add_host("h1", cpu_percentage=0)
        with pytest.raises(ValueError):
            net.add_host("h2", cores=0)
