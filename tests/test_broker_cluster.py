"""Integration tests for the event streaming platform over the emulated network."""

import pytest

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    ConsumerConfig,
    CoordinationMode,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.network.faults import FaultInjector, NodeDisconnection
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator


def build_cluster(
    n_sites=3,
    mode=CoordinationMode.ZOOKEEPER,
    replication=2,
    topics=("topicA",),
    preferred_leaders=None,
    seed=1,
    session_timeout=6.0,
    preferred_election_interval=20.0,
):
    """Small star-topology cluster helper used by the integration tests."""
    sim = Simulator(seed=seed)
    network, sites = star_topology(
        sim, n_sites, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(
        network,
        coordinator_host=sites[0],
        config=ClusterConfig(
            mode=mode,
            session_timeout=session_timeout,
            preferred_election_interval=preferred_election_interval,
        ),
    )
    for site in sites:
        cluster.add_broker(site)
    preferred_leaders = preferred_leaders or {}
    for topic in topics:
        cluster.add_topic(
            TopicConfig(
                name=topic,
                partitions=1,
                replication_factor=replication,
                preferred_leader=preferred_leaders.get(topic),
            )
        )
    cluster.start(settle_time=2.0)
    return sim, network, sites, cluster


class TestClusterBringUp:
    def test_brokers_register_and_topic_created(self):
        sim, network, sites, cluster = build_cluster()
        sim.run(until=10.0)
        assert set(cluster.coordinator.alive_brokers()) == {
            f"broker-{site}" for site in sites
        }
        state = cluster.coordinator.partition_state("topicA")
        assert state is not None
        assert state.leader is not None
        assert len(state.replicas) == 2

    def test_preferred_leader_respected(self):
        sim, network, sites, cluster = build_cluster(
            preferred_leaders={"topicA": "broker-site3"}
        )
        sim.run(until=10.0)
        assert cluster.coordinator.leader_of("topicA") == "broker-site3"

    def test_duplicate_topic_rejected(self):
        sim, network, sites, cluster = build_cluster()
        with pytest.raises(ValueError):
            cluster.add_topic(TopicConfig(name="topicA"))

    def test_replication_factor_larger_than_cluster_rejected(self):
        sim, network, sites, cluster = build_cluster()
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            cluster.coordinator.create_topic(
                TopicConfig(name="huge", replication_factor=10)
            )

    def test_describe(self):
        sim, network, sites, cluster = build_cluster()
        info = cluster.describe()
        assert info["mode"] == "zookeeper"
        assert info["topics"] == ["topicA"]
        assert len(info["brokers"]) == 3


class TestProduceConsume:
    def test_end_to_end_delivery(self):
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(sites[0])
        consumer = cluster.create_consumer(sites[2])
        consumer.subscribe(["topicA"])

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            consumer.start()
            for i in range(20):
                producer.send(ProducerRecord(topic="topicA", key=i, value=f"msg-{i}", size=200))
                yield sim.timeout(0.1)

        sim.process(workload())
        sim.run(until=40.0)
        assert producer.records_acked == 20
        assert consumer.records_consumed == 20
        assert [r.key for r in consumer.received] == list(range(20))

    def test_unread_futures_and_reports_are_not_kept(self):
        """A send whose future nobody reads delivers like any other and
        leaves nothing per record behind: no registered waiter, no stored
        report — ``reports`` builds a fresh snapshot on every read."""
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(sites[0])
        consumer = cluster.create_consumer(sites[2])
        consumer.subscribe(["topicA"])

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            consumer.start()
            for i in range(20):
                producer.send(
                    ProducerRecord(topic="topicA", key=i, value=f"msg-{i}", size=200)
                )
                yield sim.timeout(0.1)

        sim.process(workload())
        sim.run(until=40.0)
        assert producer.records_sent == 20
        assert producer.records_acked == 20
        assert producer.records_failed == 0
        assert producer._waiters == {}  # nobody waited: no future was retained
        assert len(producer.reports) == 20
        assert producer.reports[3] is not producer.reports[3]  # derived on read
        assert [r.key for r in producer.reports] == list(range(20))
        assert all(r.acknowledged for r in producer.reports)
        assert all(batch.wire is None for batch in producer._placement)  # payload released
        assert producer.buffer_used == 0  # buffer.memory fully released
        assert consumer.records_consumed == 20
        assert [r.key for r in consumer.received] == list(range(20))

    def test_waiting_on_futures_does_not_change_delivery(self):
        """Wire behavior does not depend on whether anybody reads the
        futures: same keys, same bytes, same consumed order, same ack times
        for the same seeded run."""

        def run_once(observed: bool):
            sim, network, sites, cluster = build_cluster()
            producer = cluster.create_producer(sites[0])
            consumer = cluster.create_consumer(sites[2])
            consumer.subscribe(["topicA"])
            offsets = []

            def wait_for(future):
                offsets.append((yield future).offset)

            def workload():
                yield sim.timeout(10.0)
                producer.start()
                consumer.start()
                for i in range(30):
                    future = producer.send(
                        ProducerRecord(topic="topicA", key=i, value=f"m-{i}", size=150)
                    )
                    if observed:
                        sim.process(wait_for(future))
                    yield sim.timeout(0.05)

            sim.process(workload())
            sim.run(until=40.0)
            assert offsets == (list(range(30)) if observed else [])
            return (
                [r.key for r in consumer.received],
                consumer.bytes_consumed,
                producer.records_acked,
                [r.acknowledged_at for r in producer.reports],
            )

        assert run_once(observed=False) == run_once(observed=True)

    def test_deferred_placement_matches_send_time_placement(self):
        """Keyless round-robin placement follows the send sequence: records
        that waited for metadata land exactly where they would have landed
        had the partition count been known when they were sent."""

        def placements(metadata_first: bool):
            sim, network, sites, cluster = build_cluster()
            producer = cluster.create_producer(sites[0])
            metadata = {
                "version": 1,
                "brokers": {},
                "partitions": {
                    "t-0": {"topic": "t", "partition": 0, "leader": None},
                    "t-1": {"topic": "t", "partition": 1, "leader": None},
                },
            }
            if metadata_first:
                producer.metadata = metadata
            for i in range(3):
                producer.send(ProducerRecord(topic="t", value=f"early{i}", size=10))
            if not metadata_first:
                assert producer.flush_pending() == 3 and not producer._accumulator
                producer.metadata = metadata
                producer._admit_waiting_records()
            for i in range(3):
                producer.send(ProducerRecord(topic="t", value=f"late{i}", size=10))
            assert producer.buffer_used == 60
            return {
                key: [value for batch in queue for value in batch.wire.values]
                for key, queue in producer._accumulator.items()
            }

        # Sequence 0..5 -> partitions 0,1,0,1,0,1 whenever placement happens.
        assert placements(metadata_first=True) == {
            "t-0": ["early0", "early2", "late1"],
            "t-1": ["early1", "late0", "late2"],
        }
        assert placements(metadata_first=False) == placements(metadata_first=True)

    def test_consumer_latency_accounting(self):
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(sites[1])
        consumer = cluster.create_consumer(sites[2])
        consumer.subscribe(["topicA"])

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            consumer.start()
            for i in range(5):
                producer.send(ProducerRecord(topic="topicA", value=f"m{i}", size=100))
                yield sim.timeout(0.5)

        sim.process(workload())
        sim.run(until=30.0)
        latencies = consumer.latencies("topicA")
        assert len(latencies) == 5
        assert all(0 < latency < 2.0 for latency in latencies)

    def test_replication_to_followers(self):
        sim, network, sites, cluster = build_cluster(replication=3)
        producer = cluster.create_producer(sites[0])

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            for i in range(10):
                producer.send(ProducerRecord(topic="topicA", value=f"m{i}", size=100))
            yield sim.timeout(10.0)

        sim.process(workload())
        sim.run(until=30.0)
        logs = [
            broker.log_for("topicA")
            for broker in cluster.brokers.values()
            if broker.log_for("topicA") is not None
        ]
        assert len(logs) == 3
        assert all(log.log_end_offset == 10 for log in logs)
        assert all(log.high_watermark == 10 for log in logs)

    def test_producer_metadata_discovers_new_topics(self):
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(sites[1])
        consumer = cluster.create_consumer(sites[0])
        consumer.subscribe(["topicA"])

        def workload():
            # Start clients *before* the topic exists; they must catch up.
            producer.start()
            consumer.start()
            yield sim.timeout(12.0)
            producer.send(ProducerRecord(topic="topicA", value="late", size=50))

        sim.process(workload())
        sim.run(until=40.0)
        assert producer.records_acked == 1
        assert consumer.records_consumed == 1

    def test_multiple_topics_are_isolated(self):
        sim, network, sites, cluster = build_cluster(topics=("alpha", "beta"))
        producer = cluster.create_producer(sites[0])
        consumer_alpha = cluster.create_consumer(sites[1], name="calpha")
        consumer_alpha.subscribe(["alpha"])
        consumer_beta = cluster.create_consumer(sites[2], name="cbeta")
        consumer_beta.subscribe(["beta"])

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            consumer_alpha.start()
            consumer_beta.start()
            for i in range(6):
                topic = "alpha" if i % 2 == 0 else "beta"
                producer.send(ProducerRecord(topic=topic, value=i, size=50))
                yield sim.timeout(0.2)

        sim.process(workload())
        sim.run(until=30.0)
        assert consumer_alpha.records_consumed == 3
        assert consumer_beta.records_consumed == 3
        assert all(r.topic == "alpha" for r in consumer_alpha.received)

    def test_producer_buffer_accounting_returns_to_zero(self):
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(buffer_memory=10_000)
        )

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            for i in range(50):
                producer.send(ProducerRecord(topic="topicA", value=i, size=500))
            yield sim.timeout(10.0)

        sim.process(workload())
        sim.run(until=40.0)
        assert producer.records_acked == 50
        assert producer.buffer_used == 0
        assert producer.flush_pending() == 0


class TestFailover:
    def _run_partition_scenario(self, mode, disconnect_for=40.0, until=140.0, acks=1):
        sim, network, sites, cluster = build_cluster(
            n_sites=4,
            mode=mode,
            replication=3,
            preferred_leaders={"topicA": "broker-site3"},
            session_timeout=6.0,
            preferred_election_interval=15.0,
        )
        injector = FaultInjector(network)
        # Producer co-located with the topicA leader (site3), which gets cut off.
        local_producer = cluster.create_producer(
            "site3",
            config=ProducerConfig(delivery_timeout=200.0, request_timeout=1.0, acks=acks),
            name="colocated-producer",
        )
        remote_producer = cluster.create_producer(
            "site2",
            config=ProducerConfig(delivery_timeout=200.0, request_timeout=1.0, acks=acks),
            name="remote-producer",
        )
        consumer = cluster.create_consumer("site4", name="observer")
        consumer.subscribe(["topicA"])
        injector.schedule_node_disconnection(
            NodeDisconnection(node="site3", start=30.0, duration=disconnect_for)
        )

        def workload():
            yield sim.timeout(10.0)
            local_producer.start()
            remote_producer.start()
            consumer.start()
            for i in range(100):
                local_producer.send(
                    ProducerRecord(topic="topicA", key=f"local-{i}", value=i, size=200)
                )
                remote_producer.send(
                    ProducerRecord(topic="topicA", key=f"remote-{i}", value=i, size=200)
                )
                yield sim.timeout(1.0)

        sim.process(workload())
        sim.run(until=until)
        return sim, cluster, local_producer, remote_producer, consumer

    def test_new_leader_elected_after_disconnection(self):
        sim, cluster, *_ = self._run_partition_scenario(CoordinationMode.ZOOKEEPER)
        elections = [e for e in cluster.coordinator.elections if e["reason"] == "leader-failure"]
        assert elections, "expected a leader election after the disconnection"
        assert elections[0]["leader"] != "broker-site3"

    def test_preferred_leader_reelected_after_recovery(self):
        sim, cluster, *_ = self._run_partition_scenario(CoordinationMode.ZOOKEEPER)
        # After reconnection and catch-up the preferred replica (site3) should lead again.
        assert cluster.coordinator.leader_of("topicA") == "broker-site3"
        reasons = [e["reason"] for e in cluster.coordinator.elections]
        assert "preferred-replica-election" in reasons

    def test_zookeeper_mode_silently_loses_acked_records(self):
        sim, cluster, local_producer, remote_producer, consumer = (
            self._run_partition_scenario(CoordinationMode.ZOOKEEPER)
        )
        received_keys = set(consumer.received_keys("topicA"))
        acked_local = {
            report.key
            for report in local_producer.reports
            if report.acknowledged
        }
        lost = acked_local - received_keys
        assert cluster.total_lost_records() > 0
        assert lost, "ZooKeeper mode should lose some acknowledged records"
        assert all(str(key).startswith("local-") for key in lost)

    def test_kraft_mode_does_not_lose_acked_records(self):
        # Raft-based clusters acknowledge writes only once they are quorum
        # replicated (acks=all), which is what prevents the silent loss.
        sim, cluster, local_producer, remote_producer, consumer = (
            self._run_partition_scenario(CoordinationMode.KRAFT, until=200.0, acks="all")
        )
        received_keys = set(consumer.received_keys("topicA"))
        acked = {
            report.key
            for report in list(local_producer.reports) + list(remote_producer.reports)
            if report.acknowledged
        }
        lost = acked - received_keys
        assert lost == set(), f"KRaft mode must not silently lose acked records: {lost}"

    def test_remote_producer_keeps_delivering_through_failover(self):
        sim, cluster, local_producer, remote_producer, consumer = (
            self._run_partition_scenario(CoordinationMode.ZOOKEEPER)
        )
        # The remote producer should have routed around the failed leader.
        remote_acked = [r for r in remote_producer.reports if r.acknowledged]
        assert len(remote_acked) > 80
        remote_received = {
            key for key in consumer.received_keys("topicA") if str(key).startswith("remote-")
        }
        assert len(remote_received) > 80
