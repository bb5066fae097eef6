"""Tests for the controller, topologies, fault injection and transport layer."""

import pytest

from repro.network import LinkConfig, Network, RequestTimeout, RemoteError, Transport
from repro.network.faults import Fault, FaultInjector
from repro.core.emulation import Emulation
from repro.core.task import TaskDescription
from repro.network.topology import linear_topology, one_big_switch, star_topology
from repro.network.transport import DEFERRED, Request, Response
from repro.simulation import Simulator


class TestController:
    def test_routes_installed_for_all_hosts(self):
        sim = Simulator()
        net = one_big_switch(sim, ["h1", "h2", "h3"])
        switch = net.switches["s1"]
        assert set(switch.forwarding_table) == {"h1", "h2", "h3"}

    def test_multi_switch_path(self):
        sim = Simulator()
        net = linear_topology(sim, 3)
        path = net.controller.path_between("h1", "h3")
        assert path == ("h1", "s1", "s2", "s3", "h3")

    def test_delivery_across_multiple_switches(self):
        sim = Simulator()
        net = linear_topology(sim, 4, link_config=LinkConfig(latency_ms=1.0))
        got = []
        net.host("h4").bind(42, lambda pkt: got.append(pkt.payload))
        net.host("h1").send("h4", "far away", size=20, dst_port=42)
        sim.run()
        assert got == ["far away"]

    def test_reroute_after_link_failure(self):
        # Triangle of switches: traffic should survive one inter-switch failure.
        sim = Simulator()
        net = Network(sim)
        net.add_host("h1")
        net.add_host("h2")
        for s in ("s1", "s2", "s3"):
            net.add_switch(s)
        for a, b in (("h1", "s1"), ("h2", "s2"), ("s1", "s2"), ("s2", "s3"), ("s1", "s3")):
            net.add_link(a, b, LinkConfig(latency_ms=1.0))
        net.start()
        got = []
        net.host("h2").bind(7, lambda pkt: got.append(sim.now))

        def scenario():
            net.host("h1").send("h2", "before", size=10, dst_port=7)
            yield sim.timeout(1.0)
            net.link_between("s1", "s2").set_down()
            net.controller.handle_topology_change()
            net.host("h1").send("h2", "after", size=10, dst_port=7)

        sim.process(scenario())
        sim.run()
        assert len(got) == 2

    def test_parallel_links_route_around_the_one_that_is_down(self):
        sim = Simulator()
        net = Network(sim)
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s1")
        net.add_switch("s2")
        net.add_link("h1", "s1", LinkConfig(latency_ms=1.0))
        net.add_link("h2", "s2", LinkConfig(latency_ms=1.0))
        first = net.add_link("s1", "s2", LinkConfig(latency_ms=1.0))
        second = net.add_link("s1", "s2", LinkConfig(latency_ms=1.0))
        net.start()
        first.set_down()
        net.controller.handle_topology_change()
        s1_port = second.port_a if second.port_a.node.name == "s1" else second.port_b
        assert net.switches["s1"].forwarding_table["h2"] == s1_port.number
        got = []
        net.host("h2").bind(7, lambda pkt: got.append(pkt.payload))
        net.host("h1").send("h2", "around", size=10, dst_port=7)
        sim.run()
        assert got == ["around"]

    def test_parallel_links_weigh_as_the_lightest(self):
        """s1-s2 joined by a 1 ms and a 50 ms link (the slow one added last),
        with a 20 ms detour through s3: the route takes the 1 ms link."""
        sim = Simulator()
        net = Network(sim)
        net.add_host("h1")
        net.add_host("h2")
        for s in ("s1", "s2", "s3"):
            net.add_switch(s)
        net.add_link("h1", "s1", LinkConfig(latency_ms=1.0))
        net.add_link("h2", "s2", LinkConfig(latency_ms=1.0))
        net.add_link("s1", "s2", LinkConfig(latency_ms=1.0))
        net.add_link("s1", "s2", LinkConfig(latency_ms=50.0))
        net.add_link("s1", "s3", LinkConfig(latency_ms=10.0))
        net.add_link("s3", "s2", LinkConfig(latency_ms=10.0))
        net.start()
        assert net.controller.path_between("h1", "h2") == ("h1", "s1", "s2", "h2")
        assert net.controller._build_graph()["s1"]["s2"] == 1.0 + 1e-3

    def test_reachability_matrix_under_partition(self):
        sim = Simulator()
        net = one_big_switch(sim, ["h1", "h2", "h3"])
        net.link_between("h3", "s1").set_down()
        matrix = net.controller.reachability()
        assert matrix["h1"]["h2"] is True
        assert matrix["h1"]["h3"] is False
        assert matrix["h3"]["h3"] is True

    def test_spanning_tree_routing_mode(self):
        sim = Simulator()
        net = Network(sim, routing="spanning-tree")
        net.add_switch("s1")
        net.add_switch("s2")
        net.add_host("h1")
        net.add_host("h2")
        cfg = LinkConfig(latency_ms=1.0)
        net.add_link("h1", "s1", cfg)
        net.add_link("h2", "s2", cfg)
        net.add_link("s1", "s2", cfg)
        net.start()
        got = []
        net.host("h2").bind(1, lambda pkt: got.append(pkt.payload))
        net.host("h1").send("h2", "ok", size=10, dst_port=1)
        sim.run()
        assert got == ["ok"]

    def test_invalid_routing_mode(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, routing="magic")


class TestTopologies:
    def test_builder_validates_unknown_nodes(self):
        """A task whose link names an unknown node never reaches ``Network``."""
        task = TaskDescription()
        task.add_node("h1", brokerCfg={})
        task.add_link("h1", "ghost")
        assert task.validate() == ["link references unknown node 'ghost'"]
        with pytest.raises(ValueError, match="unknown node"):
            Emulation(task)

    def test_builder_rejects_disconnected_graphs(self):
        """h1-s1 and h2-s2 with nothing between the switches."""
        task = TaskDescription()
        for host, switch in (("h1", "s1"), ("h2", "s2")):
            task.add_node(host, brokerCfg={})
            task.add_switch(switch)
            task.add_link(host, switch)
        assert task.validate() == ["topology is not connected (2 components)"]
        with pytest.raises(ValueError, match="not connected"):
            Emulation(task)

    def test_builder_duplicate_names(self):
        net = Network(Simulator())
        net.add_host("x")
        with pytest.raises(ValueError, match="already in use"):
            net.add_switch("x")

    @pytest.mark.parametrize(
        "build",
        [
            lambda sim: one_big_switch(sim, ["h1", "h2", "h3"]),
            lambda sim: star_topology(sim, 4)[0],
            lambda sim: linear_topology(sim, 4),
        ],
        ids=["one_big_switch", "star", "linear"],
    )
    def test_canned_topology_is_fully_reachable(self, build):
        matrix = build(Simulator()).controller.reachability()
        assert matrix and all(all(row.values()) for row in matrix.values())

    def test_canned_topologies_give_each_link_its_own_config(self):
        """Mutating one link mid-run (``transient_loss`` does) must not reach
        the other links or the caller's config objects."""
        sim = Simulator()
        default = LinkConfig(latency_ms=1.0)
        override = LinkConfig(latency_ms=150.0)
        net = one_big_switch(
            sim, ["h1", "h2", "h3"], link_configs={"h3": override}, default_config=default
        )
        net.link_between("h1", "s1").config.loss_percent = 100.0
        net.link_between("h3", "s1").config.loss_percent = 100.0
        assert net.link_between("h2", "s1").config.loss_percent == 0.0
        assert default.loss_percent == 0.0 and override.loss_percent == 0.0

        shared = LinkConfig(latency_ms=2.0)
        star, sites = star_topology(sim, 3, link_config=shared)
        star.link_between(sites[0], "s0").config.latency_ms = 500.0
        assert [star.link_between(site, "s0").config.latency_ms for site in sites] == [
            500.0,
            2.0,
            2.0,
        ]
        assert shared.latency_ms == 2.0

        chain = linear_topology(sim, 3, link_config=shared)
        chain.link_between("s1", "s2").config.latency_ms = 500.0
        assert [link.config.latency_ms for link in chain.links].count(500.0) == 1
        assert shared.latency_ms == 2.0

    def test_star_topology_shape(self):
        sim = Simulator()
        net, sites = star_topology(sim, 5)
        assert len(sites) == 5
        assert len(net.hosts) == 5
        assert len(net.links) == 5
        assert len(net.switches) == 1

    def test_star_topology_requires_positive_sites(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            star_topology(sim, 0)

    def test_one_big_switch_custom_link(self):
        sim = Simulator()
        net = one_big_switch(
            sim,
            ["h1", "h2"],
            link_configs={"h1": LinkConfig(latency_ms=150.0)},
        )
        assert net.link_between("h1", "s1").config.latency_ms == 150.0
        assert net.link_between("h2", "s1").config.latency_ms == 1.0


class TestFaultInjection:
    def test_scheduled_link_fault_and_recovery(self):
        cases = [
            (Fault("link_down", ["h1", "s1"], start=5.0, duration=10.0),
             (False, 0.0), ["link-down", "link-up"]),
            (Fault("transient_loss", ["h1", "s1"], start=5.0, duration=10.0, loss_percent=50.0),
             (True, 50.0), ["loss-raise", "loss-restore"]),
        ]
        for fault, during, actions in cases:
            sim = Simulator()
            net = one_big_switch(sim, ["h1", "h2"])
            injector = FaultInjector(net)
            injector.schedule(fault)
            link = net.link_between("h1", "s1")

            states = {}

            def probe():
                yield sim.timeout(6.0)
                states["during"] = (link.up, link.config.loss_percent)
                yield sim.timeout(10.0)
                states["after"] = (link.up, link.config.loss_percent)

            sim.process(probe())
            sim.run(until=30.0)
            assert states == {"during": during, "after": (True, 0.0)}, fault.kind
            history = [(event.time, event.action, event.target) for event in injector.history()]
            assert history == [(5.0, actions[0], "h1-s1"), (15.0, actions[1], "h1-s1")]

    def test_node_disconnection_cuts_all_links(self):
        sim = Simulator()
        net, sites = star_topology(sim, 3)
        injector = FaultInjector(net)
        injector.schedule(Fault("node_disconnect", [sites[0]], start=1.0, duration=2.0))
        sim.run(until=1.5)
        assert all(not link.up for link in net.links_of(sites[0]))
        sim.run(until=4.0)
        assert all(link.up for link in net.links_of(sites[0]))

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("link_down", ["a", "b"], start=-1.0)
        with pytest.raises(ValueError):
            Fault("link_down", ["a", "b"], start=0.0, duration=0.0)
        # The network cannot resolve a partition's leader: the chaos harness does.
        injector = FaultInjector(one_big_switch(Simulator(), ["h1"]))
        with pytest.raises(ValueError):
            injector.schedule(Fault("leader_failover", ["topic-0"], start=1.0))


class TestTransport:
    def _net(self, latency_ms=5.0, loss=0.0, seed=1):
        sim = Simulator(seed=seed)
        net = one_big_switch(
            sim,
            ["client", "server"],
            default_config=LinkConfig(latency_ms=latency_ms, loss_percent=loss),
        )
        client = Transport(net.host("client"))
        server = Transport(net.host("server"))
        return sim, net, client, server

    def test_request_response_roundtrip(self):
        sim, net, client, server = self._net()
        server.register(9000, lambda req: {"echo": req.payload})
        results = []

        def caller():
            response = yield from client.request("server", 9000, "ping")
            results.append((response, sim.now))

        sim.process(caller())
        sim.run()
        assert results[0][0] == {"echo": "ping"}
        # 4 link traversals at 5 ms each = at least 20 ms round trip.
        assert results[0][1] >= 0.020

    def test_deferred_handler_takes_time(self):
        sim, net, client, server = self._net()

        def slow_handler(request):
            return request.after(sim.now + 1.0, lambda: Response(payload="done", size=10))

        server.register(9000, slow_handler)
        results = []

        def caller():
            response = yield from client.request("server", 9000, "work", timeout=5.0)
            results.append((response, sim.now))

        sim.process(caller())
        sim.run()
        assert results[0][0] == "done"
        assert results[0][1] >= 1.0

    def test_timeout_and_retry_on_loss(self):
        # 100% loss: every attempt times out and RequestTimeout is raised.
        sim, net, client, server = self._net(loss=100.0)
        server.register(9000, lambda req: "never")
        outcome = []

        def caller():
            try:
                yield from client.request("server", 9000, "ping", timeout=0.2, retries=2)
            except RequestTimeout:
                outcome.append(("timeout", sim.now))

        sim.process(caller())
        sim.run()
        assert outcome and outcome[0][0] == "timeout"
        assert outcome[0][1] == pytest.approx(0.6, rel=0.05)
        assert client.requests_retried == 2
        assert client.requests_failed == 1

    def test_retry_recovers_from_transient_loss(self):
        # 10% per-hop loss (four hops per round trip) with retries should
        # still deliver every request.
        sim, net, client, server = self._net(loss=10.0, seed=11)
        server.register(9000, lambda req: "pong")
        successes = []

        def caller(i):
            response = yield from client.request(
                "server", 9000, f"ping{i}", timeout=0.5, retries=5
            )
            successes.append(response)

        for i in range(10):
            sim.process(caller(i))
        sim.run()
        assert len(successes) == 10

    def test_remote_error_propagates(self):
        sim, net, client, server = self._net()

        def bad_handler(request):
            raise ValueError("bad request")

        server.register(9000, bad_handler)
        errors = []

        def caller():
            try:
                yield from client.request("server", 9000, "x")
            except RemoteError as exc:
                errors.append(str(exc))

        sim.process(caller())
        sim.run()
        assert errors and "bad request" in errors[0]

    def _remote_errors(self, sim, client):
        errors = []

        def caller():
            try:
                yield from client.request("server", 9000, "x", timeout=5.0)
            except RemoteError as exc:
                errors.append((str(exc), sim.now))

        sim.process(caller())
        sim.run()
        return errors

    @staticmethod
    def _fail():
        raise ValueError("bad request")

    def test_remote_error_raised_at_the_completion_time_propagates(self):
        sim, net, client, server = self._net()
        server.register(9000, lambda request: request.after(sim.now + 1.0, self._fail))
        ((error, answered_at),) = self._remote_errors(sim, client)
        assert error == "ValueError: bad request" and answered_at > 1.0

    def test_remote_error_raised_after_a_purgatory_release_propagates(self):
        sim, net, client, server = self._net()
        parked = []

        def parking_handler(request):
            parked.append(request)
            return DEFERRED

        server.register(9000, parking_handler)
        # The release: whatever the request waited for happens at 1.0.
        sim.call_at(1.0, lambda: parked[0].answer(self._fail))
        ((error, answered_at),) = self._remote_errors(sim, client)
        assert error == "ValueError: bad request" and answered_at > 1.0

    def test_reserved_port_rejected(self):
        sim, net, client, server = self._net()
        with pytest.raises(ValueError):
            server.register(60000, lambda req: None)

    def test_a_port_owned_by_another_transport_cannot_be_registered(self):
        sim, net, client, server = self._net()
        other = Transport(net.host("server"))
        server.register(9000, lambda req: "A")
        with pytest.raises(ValueError, match="already bound"):
            other.register(9000, lambda req: "B")
        results = []

        def caller():
            results.append((yield from client.request("server", 9000, "x")))

        sim.process(caller())
        sim.run()
        assert results == ["A"]

    def test_reregistering_a_port_replaces_its_handler(self):
        sim, net, client, server = self._net()
        server.register(9000, lambda req: "A")
        server.register(9000, lambda req: "B")
        results = []

        def caller():
            results.append((yield from client.request("server", 9000, "x")))

        sim.process(caller())
        sim.run()
        assert results == ["B"]
