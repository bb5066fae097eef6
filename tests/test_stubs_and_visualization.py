"""Tests for the producer/consumer stubs and the figure-data (visualization) helpers."""

import pytest

from repro.broker import BrokerCluster, ClusterConfig, TopicConfig
from repro.core.configs import ConsumerStubConfig, ProducerStubConfig
from repro.core.visualization import (
    DeliveryMatrix,
    delivery_matrix,
    latency_by_arrival,
    latency_spikes,
)
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator
from repro.store import StoreServer
from repro.stubs import (
    DirectoryProducerStub,
    FileSinkConsumerStub,
    RandomRateProducerStub,
    ReplayProducerStub,
    SFSTProducerStub,
    StandardConsumerStub,
    StoreSinkConsumerStub,
)


def make_cluster(n_sites=3, topics=("events",), seed=6):
    sim = Simulator(seed=seed)
    network, sites = star_topology(
        sim, n_sites, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites:
        cluster.add_broker(site)
    for topic in topics:
        cluster.add_topic(TopicConfig(name=topic, replication_factor=1))
    cluster.start(settle_time=2.0)
    return sim, network, sites, cluster


class TestProducerStubs:
    def test_sfst_produces_every_item_in_order(self):
        sim, network, sites, cluster = make_cluster()
        items = [f"line-{i}" for i in range(15)]
        stub = SFSTProducerStub(
            cluster,
            sites[0],
            items,
            config=ProducerStubConfig(topic="events", total_messages=15, messages_per_second=10),
        )
        sink = StandardConsumerStub(
            cluster, sites[2], config=ConsumerStubConfig(topics=["events"])
        )
        sim.call_later(8.0, lambda: (stub.start(), sink.start()))
        sim.run(until=30.0)
        assert stub.messages_produced == 15
        assert [record.value for record in sink.records] == items

    def test_sfst_cycles_when_total_exceeds_items(self):
        sim, network, sites, cluster = make_cluster()
        stub = SFSTProducerStub(
            cluster,
            sites[0],
            ["a", "b"],
            config=ProducerStubConfig(topic="events", total_messages=5, messages_per_second=20),
        )
        sim.call_later(8.0, stub.start)
        sim.run(until=20.0)
        assert stub.messages_produced == 5

    def test_directory_producer_sends_file_names_as_keys(self):
        sim, network, sites, cluster = make_cluster()
        files = [("a.txt", "alpha"), ("b.txt", "beta")]
        stub = DirectoryProducerStub(
            cluster,
            sites[1],
            files,
            config=ProducerStubConfig(topic="events", messages_per_second=10),
        )
        sink = StandardConsumerStub(
            cluster, sites[2], config=ConsumerStubConfig(topics=["events"])
        )
        sim.call_later(8.0, lambda: (stub.start(), sink.start()))
        sim.run(until=25.0)
        assert sink.received_keys("events") == ["a.txt", "b.txt"]

    def test_random_rate_producer_hits_target_bitrate(self):
        sim, network, sites, cluster = make_cluster()
        stub = RandomRateProducerStub(
            cluster,
            sites[0],
            config=ProducerStubConfig(topics=["events"], rate_kbps=30.0, message_size=512),
        )
        sim.call_later(8.0, stub.start)
        sim.run(until=68.0)
        elapsed = 60.0
        achieved_kbps = stub.bytes_produced * 8 / 1000.0 / elapsed
        assert achieved_kbps == pytest.approx(30.0, rel=0.25)

    def test_replay_producer_preserves_relative_timing(self):
        sim, network, sites, cluster = make_cluster()
        timeline = [(0.0, "first"), (5.0, "second"), (6.0, "third")]
        stub = ReplayProducerStub(
            cluster, sites[0], timeline, config=ProducerStubConfig(topic="events")
        )
        sink = StandardConsumerStub(
            cluster, sites[2], config=ConsumerStubConfig(topics=["events"])
        )
        sim.call_later(8.0, lambda: (stub.start(), sink.start()))
        sim.run(until=30.0)
        received_at = {record.value: record.received_at for record in sink.records}
        assert received_at["second"] - received_at["first"] == pytest.approx(5.0, abs=0.5)
        assert received_at["third"] - received_at["second"] == pytest.approx(1.0, abs=0.5)

    def test_a_producer_restarted_during_its_start_delay_runs_one_driver(self):
        sim, network, sites, cluster = make_cluster()
        stub = SFSTProducerStub(
            cluster, sites[0], [f"m{i}" for i in range(10)],
            config=ProducerStubConfig(
                topic="events", total_messages=10, messages_per_second=10, start_delay=5.0
            ),
        )
        sink = StandardConsumerStub(
            cluster, sites[1], config=ConsumerStubConfig(topics=["events"])
        )
        sim.call_later(3.0, lambda: (stub.start(), sink.start()))
        sim.call_later(4.0, stub.stop)
        sim.call_later(6.0, stub.start)
        produced = {}
        for at in (10.9, 11.1):
            sim.call_later(at, lambda at=at: produced.__setitem__(at, stub.messages_produced))
        sim.run(until=30.0)
        assert produced == {10.9: 0, 11.1: 1}
        assert stub.messages_produced == 10 and sink.messages_consumed == 10

    def test_a_transactional_producer_restarted_mid_run_keeps_full_transactions(self):
        sim, network, sites, cluster = make_cluster()
        stub = SFSTProducerStub(
            cluster, sites[0], [f"m{i}" for i in range(20)],
            config=ProducerStubConfig(
                topic="events", total_messages=20, messages_per_second=10,
                transactional_id="restarted", transaction_batch=5,
            ),
        )
        sim.call_later(10.0, stub.start)
        # Stopped between two sends and restarted before the old driver
        # wakes: that driver must leave the open transaction to the new one.
        sim.call_later(11.55, stub.stop)
        sim.call_later(11.57, stub.start)
        committed = []
        sim.call_later(11.65, lambda: committed.append(stub.transactions_committed))
        sim.run(until=40.0)
        assert committed == [3]  # the old driver woke at 11.6 s and committed nothing
        # Every transaction but the last holds ``transaction_batch`` records.
        assert stub.messages_produced == 36 and stub.transactions_committed == 8

    def test_a_transactional_producer_restarted_mid_commit_waits_for_that_commit(self):
        sim, network, sites, cluster = make_cluster()
        stub = SFSTProducerStub(
            cluster, sites[0], [f"m{i}" for i in range(20)],
            config=ProducerStubConfig(
                topic="events", total_messages=20, messages_per_second=10,
                transactional_id="restarted", transaction_batch=5,
            ),
        )
        commits = []  # per commit: records sent when it started, and whether it returned
        commit = stub.producer.commit_transaction

        def tracked_commit(*args, **kwargs):
            entry = [stub.messages_produced, False]
            commits.append(entry)
            yield from commit(*args, **kwargs)
            entry[1] = True

        stub.producer.commit_transaction = tracked_commit
        sim.call_later(3.0, stub.start)
        # The first commit starts at 3.4 s and waits for the producer's
        # first metadata until 8 s; the restarted driver sends after it.
        sim.call_later(4.05, stub.stop)
        sim.call_later(4.07, stub.start)
        sim.run(until=40.0)
        assert [returned for _, returned in commits] == [True] * 5
        sent = [at_start for at_start, _ in commits]
        assert [b - a for a, b in zip([0] + sent, sent)] == [5, 5, 5, 5, 5]
        assert stub.transactions_committed == 5
        log = cluster.leader_broker("events").logs["events-0"]
        assert log.log_end_offset == 25 + 5  # every record, one marker per commit


class TestConsumerStubs:
    def test_standard_consumer_latency_metrics(self):
        sim, network, sites, cluster = make_cluster()
        stub = SFSTProducerStub(
            cluster,
            sites[0],
            ["x"] * 10,
            config=ProducerStubConfig(topic="events", total_messages=10, messages_per_second=10),
        )
        sink = StandardConsumerStub(
            cluster, sites[1], config=ConsumerStubConfig(topics=["events"])
        )
        sim.call_later(8.0, lambda: (stub.start(), sink.start()))
        sim.run(until=25.0)
        assert sink.messages_consumed == 10
        assert 0 < sink.mean_latency() < 1.0
        assert sink.max_latency() >= sink.mean_latency()

    @pytest.mark.parametrize(
        "stopped_at, restarted_at", [(4.0, None), (None, None), (4.0, 6.0)]
    )
    def test_a_sink_starts_when_its_latest_start_delay_runs_out(
        self, stopped_at, restarted_at
    ):
        sim, network, sites, cluster = make_cluster()
        stub = SFSTProducerStub(
            cluster, sites[0], [f"m{i}" for i in range(20)],
            config=ProducerStubConfig(topic="events", total_messages=20, messages_per_second=10),
        )
        sink = StandardConsumerStub(
            cluster, sites[1], config=ConsumerStubConfig(topics=["events"], start_delay=5.0)
        )
        sim.call_later(3.0, lambda: (stub.start(), sink.start()))
        if stopped_at is not None:
            sim.call_later(stopped_at, sink.stop)
        if restarted_at is not None:
            sim.call_later(restarted_at, sink.start)
        running = {}
        for at in (7.9, 8.1, 10.9, 11.1):
            sim.call_later(at, lambda at=at: running.__setitem__(at, sink.consumer.running))
        sim.run(until=20.0)
        if stopped_at is None:
            # Started once at 3 s: the consumer runs from 8 s.
            assert running == {7.9: False, 8.1: True, 10.9: True, 11.1: True}
            assert sink.consumer.running and sink.messages_consumed == 20
        elif restarted_at is None:
            assert not any(running.values())
            assert not sink.consumer.running and sink.messages_consumed == 0
        else:
            # Restarted at 6 s: the consumer waits out the restart's delay,
            # not the first start's.
            assert running == {7.9: False, 8.1: False, 10.9: False, 11.1: True}
            assert sink.consumer.running and sink.messages_consumed == 20

    def test_file_sink_consumer_groups_by_topic(self):
        sim, network, sites, cluster = make_cluster(topics=("alpha", "beta"))
        producer_a = SFSTProducerStub(
            cluster, sites[0], ["a1", "a2"],
            config=ProducerStubConfig(topic="alpha", total_messages=2, messages_per_second=5),
        )
        producer_b = SFSTProducerStub(
            cluster, sites[1], ["b1"],
            config=ProducerStubConfig(topic="beta", total_messages=1, messages_per_second=5),
        )
        sink = FileSinkConsumerStub(
            cluster, sites[2], config=ConsumerStubConfig(topics=["alpha", "beta"])
        )
        sim.call_later(
            8.0, lambda: (producer_a.start(), producer_b.start(), sink.start())
        )
        sim.run(until=25.0)
        assert sink.lines("alpha") == ["a1", "a2"]
        assert sink.lines("beta") == ["b1"]

    def test_store_sink_consumer_writes_to_store(self):
        sim, network, sites, cluster = make_cluster()
        store = StoreServer(network.host(sites[1]))
        producer = SFSTProducerStub(
            cluster, sites[0], ["v1", "v2", "v3"],
            config=ProducerStubConfig(topic="events", total_messages=3, messages_per_second=5),
        )
        sink = StoreSinkConsumerStub(
            cluster,
            sites[2],
            config=ConsumerStubConfig(topics=["events"], store_host=sites[1], store_table="out"),
        )
        sim.call_later(8.0, lambda: (producer.start(), sink.start()))
        sim.run(until=30.0)
        assert store.tables.table("out").count() == 3

    def test_store_sink_requires_store_host(self):
        sim, network, sites, cluster = make_cluster()
        with pytest.raises(ValueError):
            StoreSinkConsumerStub(
                cluster, sites[2], config=ConsumerStubConfig(topics=["events"])
            )


class TestVisualizationFigures:
    def _delivered_scenario(self):
        sim, network, sites, cluster = make_cluster()
        producer_stub = SFSTProducerStub(
            cluster, sites[0], [f"m{i}" for i in range(10)],
            config=ProducerStubConfig(topic="events", total_messages=10, messages_per_second=10),
        )
        consumer = cluster.create_consumer(sites[2], name="obs")
        consumer.subscribe(["events"])
        sim.call_later(8.0, lambda: (producer_stub.start(), consumer.start()))
        sim.run(until=25.0)
        return producer_stub.producer, consumer

    def test_delivery_matrix_full_delivery(self):
        producer, consumer = self._delivered_scenario()
        matrix = delivery_matrix(producer, [consumer], topic="events")
        assert matrix.n_messages == 10
        assert matrix.delivery_rate(consumer.name) == 1.0
        assert matrix.lost_anywhere() == []
        assert "." in matrix.render_text()

    def test_delivery_matrix_detects_missing_messages(self):
        matrix = DeliveryMatrix(
            producer="p",
            message_keys=[0, 1, 2, 3],
            matrix={"c1": [True, False, True, False], "c2": [True, True, True, False]},
        )
        assert matrix.delivery_rate("c1") == 0.5
        assert matrix.lost_indices("c1") == [1, 3]
        assert matrix.lost_anywhere() == [1, 3]
        assert "X" in matrix.render_text(width=4)

    def test_latency_by_arrival_is_ordered_and_spikes_counted(self):
        producer, consumer = self._delivered_scenario()
        points = latency_by_arrival(consumer, topics=["events"])
        assert len(points) == 10
        assert [point.order for point in points] == list(range(10))
        assert latency_spikes(points, threshold=100.0) == {}
        spikes = latency_spikes(points, threshold=-1.0)
        assert spikes.get("events") == 10
