"""End-to-end tests of the Emulation orchestrator and the monitoring stack."""

import pytest

from repro.broker.cluster import ClusterConfig
from repro.broker.coordinator import CoordinationMode
from repro.core import Emulation
from repro.core.configs import FaultSpec, PlatformOverrides, TopicSpec
from repro.core.monitoring import EventLog
from repro.core.resources import HostResourceModel, ServerSpec
from repro.core.task import TaskDescription
from repro.core.visualization import (
    cdf,
    moving_average,
    percentile,
    render_series_text,
    summarize_distribution,
)
from repro.network.topology import star_topology
from repro.simulation import Simulator


def simple_task(n_messages=30, rate=10.0, latency=5.0, replicas=1):
    """Producer -> broker -> consumer behind one switch."""
    task = TaskDescription("simple")
    task.add_node(
        "h1",
        prodType="SFST",
        prodCfg={
            "topicName": "events",
            "filePath": "events",
            "totalMessages": n_messages,
            "messagesPerSecond": rate,
        },
    )
    task.add_node("h2", brokerCfg={"coordinator": True})
    task.add_node("h3", consType="STANDARD", consCfg={"topics": ["events"]})
    task.add_switch("s1")
    for host in ("h1", "h2", "h3"):
        task.add_link(host, "s1", lat=latency, bw=100.0)
    task.set_topics([TopicSpec(name="events", replicas=replicas, primary_broker="h2")])
    return task


class TestEmulationLifecycle:
    def test_build_creates_all_components(self):
        emulation = Emulation(simple_task(), seed=1).build()
        assert len(emulation.network.hosts) == 3
        assert len(emulation.network.switches) == 1
        assert emulation.cluster is not None
        assert set(emulation.producers) == {"h1"}
        assert set(emulation.consumers) == {"h3"}

    def test_run_delivers_messages_end_to_end(self):
        emulation = Emulation(simple_task(n_messages=25), seed=1)
        result = emulation.run(duration=40.0)
        assert result.messages_produced == 25
        assert result.messages_consumed == 25
        assert result.acked_but_lost == 0
        assert result.latency_summary["mean"] > 0
        assert result.latency_summary["count"] == 25

    def test_dataset_contents_are_delivered(self):
        emulation = Emulation(
            simple_task(n_messages=5, rate=5.0),
            seed=2,
            datasets={"events": ["alpha", "beta", "gamma", "delta", "epsilon"]},
        )
        emulation.run(duration=30.0)
        sink = emulation.consumers["h3"]
        values = [record.value for record in sink.records]
        assert values == ["alpha", "beta", "gamma", "delta", "epsilon"]

    def test_invalid_task_rejected_at_construction(self):
        task = simple_task()
        task.add_link("h1", "ghost")
        with pytest.raises(ValueError):
            Emulation(task)

    def test_emulation_from_graphml_string(self):
        from repro.core.graphml import to_graphml

        text = to_graphml(simple_task(n_messages=5, rate=5.0))
        emulation = Emulation(text, seed=3)
        result = emulation.run(duration=30.0)
        assert result.messages_consumed == 5

    def test_run_twice_rejected(self):
        emulation = Emulation(simple_task(n_messages=3, rate=5.0), seed=1)
        emulation.run(duration=20.0)
        with pytest.raises(RuntimeError):
            emulation.run(duration=20.0)

    def test_accessors_require_build(self):
        emulation = Emulation(simple_task())
        with pytest.raises(RuntimeError):
            _ = emulation.network

    def test_resource_report_collected(self):
        emulation = Emulation(simple_task(n_messages=10), seed=1)
        result = emulation.run(duration=30.0)
        assert len(result.resource_report.samples) > 10
        assert 0 < result.resource_report.median_cpu() < 100
        assert 0 < result.resource_report.peak_memory() < 100

    def test_event_log_contains_lifecycle_events(self):
        emulation = Emulation(simple_task(n_messages=5, rate=5.0), seed=1)
        result = emulation.run(duration=25.0)
        events = [entry.event for entry in result.event_log.events]
        assert "built" in events
        assert "clients-started" in events
        assert "finished" in events
        assert any(entry.component == "coordinator" for entry in result.event_log.events)

    def test_latency_grows_with_link_delay(self):
        fast = Emulation(simple_task(n_messages=15, latency=2.0), seed=4).run(duration=35.0)
        slow = Emulation(simple_task(n_messages=15, latency=80.0), seed=4).run(duration=35.0)
        assert slow.latency_summary["mean"] > fast.latency_summary["mean"] * 3

    def test_fault_injection_from_task_description(self):
        task = simple_task(n_messages=60, rate=2.0, replicas=1)
        task.set_faults(
            [FaultSpec(kind="node_disconnect", targets=["h1"], start=20.0, duration=10.0)]
        )
        emulation = Emulation(task, seed=5)
        result = emulation.run(duration=60.0)
        actions = [event.action for event in emulation.fault_injector.history()]
        assert "node-disconnect" in actions
        assert "node-reconnect" in actions
        # The producer was cut off for a while, so delivery keeps working
        # afterwards and nothing is lost silently (acks retry through).
        assert result.messages_consumed > 0


class TestClusterConfigAndNames:
    def test_mode_none_means_what_cluster_config_says(self):
        """``Emulation(task, cluster_config=ClusterConfig(mode=KRAFT))`` used to
        run ZooKeeper: the ``mode`` parameter's default overwrote the config."""
        config = ClusterConfig(mode=CoordinationMode.KRAFT)
        emulation = Emulation(simple_task(), cluster_config=config).build()
        assert emulation.mode is CoordinationMode.KRAFT
        assert emulation.cluster.coordinator.mode is CoordinationMode.KRAFT
        assert all(
            broker.mode is CoordinationMode.KRAFT
            for broker in emulation.cluster.brokers.values()
        )

    def test_explicit_mode_wins_and_never_mutates_the_callers_config(self):
        config = ClusterConfig(mode=CoordinationMode.ZOOKEEPER, session_timeout=4.0)
        emulation = Emulation(simple_task(), mode="kraft", cluster_config=config).build()
        assert emulation.cluster.coordinator.mode is CoordinationMode.KRAFT
        assert emulation.cluster_config.session_timeout == 4.0
        assert config.mode is CoordinationMode.ZOOKEEPER

    def test_primary_broker_maps_through_the_brokers_given_name(self):
        """``brokerCfg: {name: b2}`` plus ``primaryBroker: h2`` used to crash
        mid-run with "preferred leader 'broker-h2' is not a live broker"."""
        task = simple_task(n_messages=5, rate=5.0)
        task.nodes["h2"].attributes["brokerCfg"] = {"coordinator": True, "name": "b2"}
        emulation = Emulation(task, seed=1)
        result = emulation.run(duration=25.0)
        assert emulation.cluster.topics["events"].preferred_leader == "b2"
        assert emulation.cluster.leader_broker("events").name == "b2"
        assert result.messages_consumed == 5

    def test_stub_names_come_from_the_description(self):
        task = simple_task()
        task.nodes["h1"].attributes["prodCfg"]["name"] = "source"
        task.nodes["h3"].attributes["consCfg"]["name"] = "sink"
        emulation = Emulation(task).build()
        assert emulation.producers["h1"].name == "source"
        assert emulation.producers["h1"].producer.name == "source-producer"
        assert emulation.consumers["h3"].name == "sink"
        # Unnamed stubs keep the node-derived default.
        assert Emulation(simple_task()).build().producers["h1"].name == "producer-h1"

    def test_delivery_timeout_reaches_the_producer_client(self):
        task = simple_task()
        task.nodes["h1"].attributes["prodCfg"]["deliveryTimeout"] = "45s"
        producer = Emulation(task).build().producers["h1"].producer
        assert producer.config.delivery_timeout == 45.0
        default = Emulation(simple_task()).build().producers["h1"].producer
        assert default.config.delivery_timeout == 120.0


class TestFaultTargetValidation:
    """A typo in ``faultCfg`` must be loud, not a run that injects nothing."""

    def test_unknown_fault_targets_are_reported(self):
        task = simple_task()
        task.set_faults(
            [
                FaultSpec(kind="node_disconnect", targets=["ghost"], start=5.0),
                FaultSpec(kind="transient_loss", targets=["h1", "nope"], start=5.0,
                          loss_percent=50.0),
            ]
        )
        problems = task.validate()
        assert "node_disconnect fault targets unknown node 'ghost'" in problems
        assert "transient_loss fault targets unknown node 'nope'" in problems
        with pytest.raises(ValueError, match="ghost"):
            Emulation(task)

    @pytest.mark.parametrize("kind", ["transient_loss", "link_down"])
    def test_link_faults_need_an_existing_link(self, kind):
        task = simple_task()
        # h1 and h3 both exist, but each hangs off s1: no h1-h3 link.
        task.set_faults([FaultSpec(kind=kind, targets=["h1", "h3"], start=5.0)])
        assert task.validate() == [f"{kind} fault: no link between ['h1', 'h3']"]
        task.set_faults([FaultSpec(kind=kind, targets=["s1", "h1"], start=5.0)])
        assert task.validate() == []


class TestPlatformOverrides:
    def test_set_knobs_reach_every_topic_producer_and_consumer(self):
        platform = PlatformOverrides(
            partitions=3,
            idempotence=True,
            isolation_level="read_committed",
            segment_records=64,
            cleanup_policy="compact",
        )
        emulation = Emulation(simple_task(), platform=platform).build()
        topic = emulation.cluster.topics["events"]
        assert (topic.partitions, topic.segment_records, topic.cleanup_policy) == (
            3, 64, "compact",
        )
        assert emulation.producers["h1"].producer.config.idempotence is True
        assert emulation.consumers["h3"].consumer.config.isolation_level == "read_committed"

    def test_unset_knobs_leave_the_descriptions_own_values(self):
        task = simple_task()
        task.set_topics([TopicSpec(name="events", partitions=2, primary_broker="h2")])
        task.nodes["h1"].attributes["prodCfg"]["idempotence"] = True
        emulation = Emulation(task, platform=PlatformOverrides()).build()
        assert emulation.cluster.topics["events"].partitions == 2
        assert emulation.producers["h1"].producer.config.idempotence is True
        assert task.topics[0].partitions == 2  # the description is never modified


class TestOneMonitoringTick:
    def test_one_periodic_process_feeds_both_readers(self):
        emulation = Emulation(simple_task(n_messages=10), seed=1).build()
        started = []
        process = emulation.sim.process

        def recording_process(generator, name=None):
            started.append(name)
            return process(generator, name=name)

        emulation.sim.process = recording_process
        result = emulation.run(duration=30.0, warmup=5.0)
        assert "emulation:monitor" in started
        assert "bandwidth-monitor" not in started and "resource-model" not in started
        # Same sampling instants for both readers; warm-up samples discarded.
        bandwidth = emulation.network.bandwidth_monitor.series_for("h2")
        assert bandwidth.times() == [0.5 * k for k in range(1, 70)]
        resource_times = [sample.time for sample in result.resource_report.samples]
        assert resource_times == [5.0 + 0.5 * k for k in range(1, 60)]


class TestMonitoringPrimitives:
    def test_event_log_queries(self):
        log = EventLog()
        log.record(1.0, "broker", "leader-elected", partition="t-0")
        log.record(2.0, "emulation", "finished")
        assert len(log) == 2
        assert log.by_component("broker")[0].event == "leader-elected"
        assert log.by_event("finished")[0].time == 2.0
        assert len(log.between(0.5, 1.5)) == 1
        assert [e.time for e in log.sorted()] == [1.0, 2.0]

    def test_visualization_helpers(self):
        points = cdf([3.0, 1.0, 2.0])
        assert points[0] == (1.0, pytest.approx(1 / 3))
        assert points[-1] == (3.0, pytest.approx(1.0))
        assert percentile([1, 2, 3, 4], 0.5) == 3 or percentile([1, 2, 3, 4], 0.5) == 2
        summary = summarize_distribution([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        smoothed = moving_average([(0, 0.0), (1, 10.0)], window=2)
        assert smoothed[1][1] == pytest.approx(5.0)
        text = render_series_text([(0, 1.0), (1, 2.0)], label="demo")
        assert "demo" in text

    def test_resource_model_scales_with_components(self):
        sim = Simulator(seed=1)
        network_small, _ = star_topology(sim, 2)
        model_small = HostResourceModel(network_small, server=ServerSpec())
        sample_small = model_small.sample()

        sim2 = Simulator(seed=1)
        network_large, _ = star_topology(sim2, 10)
        model_large = HostResourceModel(network_large, server=ServerSpec())
        sample_large = model_large.sample()
        assert sample_large.cpu_percent > sample_small.cpu_percent
        assert sample_large.memory_percent > sample_small.memory_percent

    def test_resource_report_cdf_and_fraction(self):
        from repro.core.resources import ResourceReport, ResourceSample

        report = ResourceReport(
            samples=[ResourceSample(time=i, cpu_percent=float(i), memory_percent=10.0) for i in range(1, 11)]
        )
        assert report.median_cpu() == pytest.approx(5.5)
        assert report.fraction_below(5.0) == pytest.approx(0.5)
        assert report.cpu_cdf()[-1][1] == pytest.approx(1.0)
        assert report.peak_memory() == 10.0
