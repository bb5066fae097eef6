"""Consumer groups and the partition-aware data plane, end to end.

Covers the acceptance contract of the sharded-topics refactor:

* deterministic range / round-robin assignment (pure functions of sorted
  members and sorted partitions);
* a 4-partition topic with a 4-member group delivers every produced record
  exactly once per group, per-key order preserved, and the whole observable
  trace is bitwise-identical across same-seed runs;
* rebalance on graceful member stop (leave commits offsets: no loss, no
  re-delivery) and on broker failure (elections + generation bump, every log
  position still consumed exactly once per group);
* per-partition ``seek``/``position``;
* manual assignment and the sharded SPE ingest plane (one source instance
  per partition, merged deterministically, per-key order across operators).
"""

import pytest

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import GROUP_HEARTBEAT_INTERVAL, ConsumerConfig
from repro.broker.coordinator import assign_range, assign_roundrobin
from repro.broker.message import ProducerRecord
from repro.broker.producer import ProducerConfig
from repro.broker.topic import TopicConfig
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch, star_topology
from repro.simulation import Simulator


# -- assignors are deterministic pure functions --------------------------------------


class TestAssignors:
    def test_range_contiguous_chunks_with_remainder_to_first_members(self):
        members = {"m-b": ["t"], "m-a": ["t"]}
        partitions = {"t": [f"t-{p}" for p in range(5)]}
        assignment = assign_range(members, partitions)
        # Sorted member order: m-a first, so it gets the extra partition.
        assert assignment == {"m-a": ["t-0", "t-1", "t-2"], "m-b": ["t-3", "t-4"]}

    def test_roundrobin_deals_partitions_cyclically(self):
        members = {"m2": ["t"], "m1": ["t"], "m3": ["t"]}
        partitions = {"t": [f"t-{p}" for p in range(5)]}
        assignment = assign_roundrobin(members, partitions)
        assert assignment == {"m1": ["t-0", "t-3"], "m2": ["t-1", "t-4"], "m3": ["t-2"]}

    def test_assignors_ignore_unsubscribed_topics(self):
        members = {"m1": ["a"], "m2": ["a", "b"]}
        partitions = {"a": ["a-0", "a-1"], "b": ["b-0"]}
        for assignor in (assign_range, assign_roundrobin):
            assignment = assignor(members, partitions)
            assert "b-0" in assignment["m2"]
            assert all(not key.startswith("b") for key in assignment["m1"])

    def test_assignment_independent_of_dict_order(self):
        partitions = {"t": [f"t-{p}" for p in range(7)]}
        forward = assign_range({f"m{i}": ["t"] for i in range(4)}, partitions)
        backward = assign_range({f"m{i}": ["t"] for i in reversed(range(4))}, partitions)
        assert forward == backward


# -- the 4-partition / 4-member acceptance scenario -----------------------------------


def run_group_trace(seed: int, n_records: int = 300, n_keys: int = 23) -> dict:
    """One seeded 4-partition, 4-member group run; returns all observables."""
    sim = Simulator(seed=seed)
    network = one_big_switch(
        sim,
        ["broker", "c0", "c1", "c2", "c3", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=4))
    cluster.start(settle_time=1.0)

    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))
    members = []
    for index in range(4):
        member = cluster.create_consumer(
            f"c{index}",
            config=ConsumerConfig(group="workers", poll_interval=0.05),
            name=f"member-{index}",
        )
        member.subscribe(["events"])
        members.append(member)

    rng = sim.rng("group-workload")

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        for member in members:
            member.start()
        # Let the group stabilize (4 joins) before traffic flows, like a
        # deployed group that subscribes before the producers ramp up.
        yield sim.timeout(5.0)
        for i in range(n_records):
            producer.send(
                ProducerRecord(topic="events", key=f"k{i % n_keys}", value=i)
            )
            if i % 25 == 24:
                yield sim.timeout(rng.exponential(20.0))

    sim.process(drive(), name="group-drive")
    sim.run(until=40.0)

    group = cluster.coordinator.group_state("workers")
    per_member = {
        member.name: [
            (record.partition, record.offset, record.key, record.value)
            for record in member.received
        ]
        for member in members
    }
    return {
        "processed_events": sim.processed_events,
        "acked": producer.records_acked,
        "assignments": {member.name: member.assignment() for member in members},
        "generations": sorted({member.generation for member in members}),
        "group_generation": group.generation,
        "committed": dict(group.committed),
        "per_member": per_member,
    }


class TestGroupExactlyOnce:
    def setup_method(self):
        self.trace = run_group_trace(seed=7)

    def test_every_record_consumed_exactly_once_per_group(self):
        trace = self.trace
        assert trace["acked"] == 300
        consumed = [
            entry for records in trace["per_member"].values() for entry in records
        ]
        assert len(consumed) == 300
        # No (partition, offset) consumed twice, no value seen twice.
        positions = [(partition, offset) for partition, offset, _, _ in consumed]
        assert len(set(positions)) == 300
        values = sorted(value for _, _, _, value in consumed)
        assert values == list(range(300))

    def test_one_partition_per_member_and_committed_offsets_cover_log(self):
        trace = self.trace
        assignments = trace["assignments"]
        owned = [key for keys in assignments.values() for key in keys]
        assert sorted(owned) == [f"events-{p}" for p in range(4)]
        assert all(len(keys) == 1 for keys in assignments.values())
        # Heartbeat-committed offsets account for the full consumed log.
        assert sum(trace["committed"].values()) == 300

    def test_per_key_order_preserved_across_sharding(self):
        for records in self.trace["per_member"].values():
            by_key = {}
            for _, _, key, value in records:
                by_key.setdefault(key, []).append(value)
            for values in by_key.values():
                assert values == sorted(values)

    def test_trace_bitwise_identical_for_identical_seed(self):
        assert run_group_trace(seed=7) == self.trace

    def test_different_seed_changes_the_trace(self):
        assert run_group_trace(seed=8)["processed_events"] != self.trace["processed_events"]


# -- rebalance on graceful member stop ------------------------------------------------


def test_rebalance_on_member_stop_no_loss_no_redelivery():
    sim = Simulator(seed=5)
    network = one_big_switch(
        sim,
        ["broker", "c0", "c1", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=4))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))
    members = []
    for index in range(2):
        member = cluster.create_consumer(
            f"c{index}",
            config=ConsumerConfig(group="g", poll_interval=0.05),
            name=f"member-{index}",
        )
        member.subscribe(["events"])
        members.append(member)

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        for member in members:
            member.start()
        yield sim.timeout(4.0)
        for i in range(200):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 13}", value=i))
            if i == 99:
                # Mid-stream, member-1 leaves gracefully (commits its offsets).
                members[1].stop()
                yield sim.timeout(2.0)
            elif i % 20 == 19:
                yield sim.timeout(0.1)

    sim.process(drive())
    sim.run(until=45.0)

    group = cluster.coordinator.group_state("g")
    assert "member-1" not in group.members
    # The survivor inherited every partition.
    assert members[0].assignment() == [f"events-{p}" for p in range(4)]
    events = [e for e in cluster.coordinator.event_log if e["event"] == "group-rebalance"]
    assert any(e["reason"] == "member-left" for e in events)
    consumed = [
        (record.partition, record.offset, record.value)
        for member in members
        for record in member.received
    ]
    # Exactly once per group across the membership change: the leaving
    # member's committed offsets hand its partitions over without gaps or
    # re-delivery.
    assert len(consumed) == 200
    assert len({(partition, offset) for partition, offset, _ in consumed}) == 200
    assert sorted(value for _, _, value in consumed) == list(range(200))


def test_fetch_reply_landing_after_revocation_is_dropped():
    """A member fenced while its fetch is in flight must not deliver the
    reply: the partition is no longer its to read (the coordinator has handed
    it on), and offsets it advances now would be committed over the new
    owner's.  A fetch parked at the leader can be in flight for
    ``FETCH_MAX_WAIT``; here three 10 ms hops suffice."""
    sim = Simulator(seed=5)
    network = one_big_switch(
        sim, ["broker", "c0", "source"],
        default_config=LinkConfig(latency_ms=10.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=1))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))
    member = cluster.create_consumer(
        "c0", config=ConsumerConfig(group="g", poll_interval=0.05), name="member-0"
    )
    member.subscribe(["events"])
    request = member.transport.request
    fenced_at = []

    def fence_during_the_first_fetch(dst, port, payload, **options):
        if payload["type"] == "fetch" and not fenced_at:
            fenced_at.append(sim.now + 0.03)  # the reply is on its way back
            sim.call_at(fenced_at[0], member._fenced)
        return request(dst, port, payload, **options)

    member.transport.request = fence_during_the_first_fetch

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        for i in range(5):
            producer.send(ProducerRecord(topic="events", key="k", value=i))
        yield sim.timeout(2.0)
        member.start()

    sim.process(drive())
    sim.run(until=5.0)
    while not fenced_at:
        sim.step()
    sim.run(until=fenced_at[0] + 0.02)  # the reply (five records) has landed
    assert member.assignment() == [] and member.received == []
    assert member.position("events") == 0
    sim.run(until=15.0)
    # Rejoined, it reads the partition from the committed offset: once.
    assert [record.value for record in member.received] == list(range(5))


# -- rebalance and continuity across a broker failure ---------------------------------


def test_group_rides_through_broker_failure():
    sim = Simulator(seed=11)
    network, sites = star_topology(
        sim, 5, link_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0)
    )
    cluster = BrokerCluster(
        network,
        coordinator_host=sites[0],
        config=ClusterConfig(session_timeout=3.0),
    )
    cluster.add_broker(sites[1])
    cluster.add_broker(sites[2])
    cluster.add_topic(TopicConfig(name="events", partitions=4, replication_factor=2))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer(
        sites[3], config=ProducerConfig(linger=0.01, acks="all", request_timeout=1.0)
    )
    members = []
    for index in (3, 4):
        member = cluster.create_consumer(
            sites[index],
            config=ConsumerConfig(group="g", poll_interval=0.05),
            name=f"member-{index}",
        )
        member.subscribe(["events"])
        members.append(member)
    doomed = cluster.brokers[f"broker-{sites[2]}"]

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        for member in members:
            member.start()
        yield sim.timeout(5.0)
        for i in range(100):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 11}", value=i))
        yield sim.timeout(10.0)
        doomed.stop()  # crash: no heartbeats, session expires, leaders move
        yield sim.timeout(15.0)
        for i in range(100, 200):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 11}", value=i))

    sim.process(drive())
    sim.run(until=90.0)

    coordinator = cluster.coordinator
    # The failed broker led at least one of the rotated partitions, so the
    # failure triggered per-partition elections...
    elections = [e for e in coordinator.elections if e["reason"] == "leader-failure"]
    assert elections
    # ...and bumped the group generation so members re-synced promptly.
    events = [e for e in coordinator.event_log if e["event"] == "group-rebalance"]
    assert any(e["reason"] == "broker-failure" for e in events)
    assert all(member.generation == coordinator.group_state("g").generation
               for member in members)
    # Every acknowledged record survives the failover (acks=all) and every
    # log position is consumed exactly once per group.
    consumed = [
        (record.partition, record.offset, record.value)
        for member in members
        for record in member.received
    ]
    positions = [(partition, offset) for partition, offset, _ in consumed]
    assert len(positions) == len(set(positions))
    acked_values = {i for i in range(200)} - {
        report.sequence for report in producer.reports if not report.acknowledged
    }
    assert acked_values <= {value for _, _, value in consumed}


# -- seek / position generalize per partition -----------------------------------------


def test_seek_and_position_per_partition():
    sim = Simulator(seed=3)
    network = one_big_switch(
        sim,
        ["broker", "sink", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=3))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))
    consumer = cluster.create_consumer(
        "sink", config=ConsumerConfig(poll_interval=0.05)
    )
    consumer.subscribe(["events"])

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        for i in range(90):
            # Explicit partition: 30 records in each of the three partitions.
            producer.send(ProducerRecord(topic="events", value=i, partition=i % 3))
        yield sim.timeout(5.0)
        consumer.start()

    sim.process(drive())
    sim.run(until=20.0)
    assert consumer.records_consumed == 90
    assert [consumer.position("events", p) for p in range(3)] == [30, 30, 30]

    # Rewind only partition 1 and drain again: exactly that partition's
    # records re-deliver, the other positions stay put.
    before = consumer.records_consumed
    consumer.seek("events", 1, 10)
    assert consumer.position("events", 1) == 10
    sim.run(until=30.0)
    assert consumer.records_consumed == before + 20
    assert [consumer.position("events", p) for p in range(3)] == [30, 30, 30]


# -- manual assignment ----------------------------------------------------------------


def test_manual_assignment_splits_partitions_without_a_group():
    sim = Simulator(seed=9)
    network = one_big_switch(
        sim,
        ["broker", "a", "b", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=4))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))
    left = cluster.create_consumer("a", config=ConsumerConfig(poll_interval=0.05))
    left.assign("events", [0, 1])
    right = cluster.create_consumer("b", config=ConsumerConfig(poll_interval=0.05))
    right.assign("events", [2, 3])

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        left.start()
        right.start()
        yield sim.timeout(2.0)
        for i in range(120):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 19}", value=i))

    sim.process(drive())
    sim.run(until=20.0)
    assert left.assignment() == ["events-0", "events-1"]
    assert right.assignment() == ["events-2", "events-3"]
    assert {record.partition for record in left.received} <= {0, 1}
    assert {record.partition for record in right.received} <= {2, 3}
    values = sorted(
        record.value for consumer in (left, right) for record in consumer.received
    )
    assert values == list(range(120))


def test_manual_assign_rejects_group_mode():
    sim = Simulator(seed=1)
    network = one_big_switch(
        sim, ["broker"], default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0)
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    consumer = cluster.create_consumer(
        "broker", config=ConsumerConfig(group="g")
    )
    with pytest.raises(RuntimeError, match="manual assign"):
        consumer.assign("events", [0])


# -- producer placement under deferred metadata ---------------------------------------


def test_pre_metadata_keyed_sends_colocate_with_later_sends():
    """Keyed records sent before the first metadata refresh wait for the real
    partition count instead of being hashed against a guess — one key never
    splits across partitions."""
    sim = Simulator(seed=2)
    network = one_big_switch(
        sim,
        ["broker", "sink", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=4))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.02))
    consumer = cluster.create_consumer("sink", config=ConsumerConfig(poll_interval=0.05))
    consumer.subscribe(["events"])

    def drive():
        yield sim.timeout(2.0)
        producer.start()
        consumer.start()
        # Same keys before the metadata reply arrives and well after it.
        for i in range(20):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 5}", value=i))
        yield sim.timeout(3.0)
        for i in range(20, 40):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 5}", value=i))

    sim.process(drive())
    sim.run(until=15.0)
    assert consumer.records_consumed == 40
    partitions_by_key = {}
    for record in consumer.received:
        partitions_by_key.setdefault(record.key, set()).add(record.partition)
    assert all(len(partitions) == 1 for partitions in partitions_by_key.values())
    assert len({p for parts in partitions_by_key.values() for p in parts}) > 1


def test_unknown_topic_send_fails_at_delivery_timeout():
    """A record for a topic that never appears in the metadata still fails at
    ``delivery_timeout`` (it must not park forever awaiting placement)."""
    sim = Simulator(seed=2)
    network = one_big_switch(
        sim,
        ["broker", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events"))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer(
        "source", config=ProducerConfig(linger=0.02, delivery_timeout=5.0)
    )

    def drive():
        yield sim.timeout(2.0)
        producer.start()
        producer.send(ProducerRecord(topic="no-such-topic", key="k", value=1))

    sim.process(drive())
    sim.run(until=20.0)
    assert producer.records_failed == 1
    assert producer.reports[0].failed_at is not None
    assert producer.flush_pending() == 0


# -- the partition-aware SPE ingest plane ---------------------------------------------


def run_sharded_spe_trace(seed: int, partitions: int = 4) -> dict:
    """Produce keyed records into a sharded topic; consume via one SPE source
    instance per partition with a repartition-by-key stage."""
    from repro.engine import StreamingConfig, StreamingContext

    sim = Simulator(seed=seed)
    network = one_big_switch(
        sim,
        ["broker", "spark", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=partitions))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))

    ctx = StreamingContext(
        network.host("spark"),
        config=StreamingConfig(batch_interval=0.5),
        cluster=cluster,
        name="sharded-spe",
    )
    stream = ctx.sharded_kafka_stream("events", partitions=list(range(partitions)))
    seen = []
    stream.repartition_by_key().to_callback(
        lambda record, now: seen.append((record.key, record.value))
    )

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        ctx.start()
        yield sim.timeout(1.0)
        for i in range(150):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 7}", value=i))
            if i % 30 == 29:
                yield sim.timeout(0.3)

    sim.process(drive())
    sim.run(until=20.0)
    return {"seen": list(seen), "ingested": ctx.total_input_records()}


def test_sharded_spe_ingest_preserves_per_key_order():
    trace = run_sharded_spe_trace(seed=21)
    assert trace["ingested"] == 150
    assert len(trace["seen"]) == 150
    by_key = {}
    for key, value in trace["seen"]:
        by_key.setdefault(key, []).append(value)
    assert len(by_key) == 7
    for values in by_key.values():
        # Keyed partitioning puts one key on one partition; partition FIFO +
        # deterministic merge + stable repartition keep per-key send order.
        assert values == sorted(values)


def test_sharded_spe_ingest_deterministic_per_seed():
    assert run_sharded_spe_trace(seed=21) == run_sharded_spe_trace(seed=21)


# -- fig6's multi-partition arm -------------------------------------------------------


def test_fig6_multi_partition_arm_elects_per_partition():
    """The partition-fault study at partitions=3: round-robin placement
    spreads topic A's partition leaders across sites, the pinned site still
    leads partition 0, and its failure triggers exactly that partition's
    election — the fault's loss surface stays confined under sharding."""
    from repro.broker.coordinator import CoordinationMode
    from repro.core.configs import PlatformOverrides
    from repro.experiments.fig6_partition import Fig6Config, run_fig6

    config = Fig6Config(
        n_sites=4,
        duration=120.0,
        disconnect_start=40.0,
        disconnect_duration=30.0,
        mode=CoordinationMode.ZOOKEEPER,
        platform=PlatformOverrides(partitions=3),
        seed=3,
    )
    result = run_fig6(config)
    led = f"broker-site{config.leader_site_index}"
    created = {
        event["partition"]: event["leader"]
        for event in result.events
        if event.get("event") == "partition-created"
    }
    topic_a_leaders = [created[f"topicA-{p}"] for p in range(3)]
    assert topic_a_leaders[0] == led  # preferred leader pins partition 0
    assert len(set(topic_a_leaders)) >= 2  # rotation spreads the other leads
    elections = [e for e in result.events if e.get("event") == "leader-elected"]
    failed_partitions = {e["partition"] for e in elections if e["old_leader"] == led}
    assert "topicA-0" in failed_partitions
    assert result.messages_consumed > 0


def test_eager_join_at_least_once_window_is_at_most_one_heartbeat():
    """Regression lock for the documented eager-join delivery window.

    ``docs/partitioning.md`` claims: a member joining mid-consumption opens
    an at-least-once window, because assignment is handed out eagerly (not
    revoke-before-assign) and the old owner only discovers the rebalance on
    its next heartbeat — so re-delivery is bounded by one heartbeat interval.
    This test pins all three halves of that claim: (1) nothing is lost,
    (2) re-deliveries happen only on the partitions that changed owner, and
    (3) the old owner stops fetching a reassigned partition within one
    heartbeat interval (plus one in-flight fetch) of the rebalance.
    """
    heartbeat = GROUP_HEARTBEAT_INTERVAL
    sim = Simulator(seed=5)
    network = one_big_switch(
        sim,
        ["broker", "a", "b", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=2))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))

    def make_member(host, name):
        member = cluster.create_consumer(
            host,
            config=ConsumerConfig(group="workers", poll_interval=0.05),
            name=name,
        )
        member.subscribe(["events"])
        return member

    veteran = make_member("a", "member-a")
    joiner = make_member("b", "member-b")
    n_records = 500
    join_at = 11.0

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        veteran.start()
        yield sim.timeout(2.0)
        for i in range(n_records):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 7}", value=i))
            yield sim.timeout(0.02)

    def late_join():
        yield sim.timeout(join_at)
        joiner.start()

    sim.process(drive())
    sim.process(late_join())
    sim.run(until=35.0)

    assert producer.records_acked == n_records
    # The joiner really did take partitions over mid-consumption.
    taken = set(joiner.assignment() or ())
    assert taken and taken < {"events-0", "events-1"}
    rebalance_time = next(
        event["time"]
        for event in cluster.coordinator.event_log
        if event["event"] == "group-rebalance"
        and event["reason"] == "member-joined"
        and "member-b" in event["members"]
    )

    deliveries = {}
    for member in (veteran, joiner):
        for record in member.received:
            key = (record.partition, record.offset)
            deliveries.setdefault(key, []).append((member.name, record.received_at))
    # (1) At-least-once: every produced log position was delivered.
    produced_positions = {
        (int(partition_key.rsplit("-", 1)[1]), offset)
        for partition_key, log in cluster.brokers["broker-broker"].logs.items()
        if partition_key.startswith("events-")
        for offset in range(log.log_end_offset)
    }
    missing = produced_positions - set(deliveries)
    assert missing == set(), f"lost positions: {sorted(missing)[:5]}"
    # (2) The window is real (commits trail consumption) but confined to the
    # partitions that changed owner.
    duplicated = {key for key, owners in deliveries.items() if len(owners) > 1}
    assert duplicated, "expected re-deliveries inside the eager-join window"
    taken_partitions = {int(key.rsplit("-", 1)[1]) for key in taken}
    assert {partition for partition, _ in duplicated} <= taken_partitions
    # (3) ...and closes within one heartbeat (+ one in-flight fetch) of the
    # rebalance: after that, the old owner never delivers from a partition
    # it no longer owns.
    fetch_slack = 0.25
    veteran_tail = max(
        (
            record.received_at
            for record in veteran.received
            if record.partition in taken_partitions
        ),
        default=0.0,
    )
    assert veteran_tail <= rebalance_time + heartbeat + fetch_slack, (
        f"old owner kept delivering {veteran_tail - rebalance_time:.2f}s past "
        f"the rebalance (heartbeat={heartbeat})"
    )
