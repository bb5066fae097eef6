"""Idempotent producer: id allocation, broker-side dedup, fencing, failover.

Covers the exactly-once produce path end to end (see
``docs/exactly_once.md``): the coordinator's ``(producer_id, epoch)``
allocation, the producer's per-partition sequence stamping, the partition
leader's duplicate-retry drop (acknowledged distinguishably, observable via
``broker.metrics``), zombie-epoch fencing, and the dedup state surviving
leader elections through replica fetch.  The seeded chaos matrix lives in
``tests/test_chaos_exactly_once.py``; this file pins the mechanisms.
"""

import pytest

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    CoordinationMode,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.broker.batch import RecordBatch
from repro.broker.log import PartitionLog
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator


def build_cluster(
    n_sites=3,
    partitions=1,
    replication=2,
    mode=CoordinationMode.ZOOKEEPER,
    seed=1,
    session_timeout=6.0,
    preferred_leader=None,
):
    sim = Simulator(seed=seed)
    network, sites = star_topology(
        sim, n_sites, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(
        network,
        coordinator_host=sites[0],
        config=ClusterConfig(mode=mode, session_timeout=session_timeout),
    )
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(
        TopicConfig(
            name="topicA",
            partitions=partitions,
            replication_factor=replication,
            preferred_leader=preferred_leader,
        )
    )
    cluster.start(settle_time=2.0)
    return sim, network, sites, cluster


# ---------------------------------------------------------------------------
# PartitionLog dedup table
# ---------------------------------------------------------------------------
class TestDedupTable:
    def make_batch(self, pid, epoch, base_seq, n=3, topic="t"):
        batch = RecordBatch(topic, 0)
        for i in range(n):
            batch.append(key=f"k{i}", value=base_seq + i, size=10, produced_at=0.0)
        batch.producer_id = pid
        batch.producer_epoch = epoch
        batch.base_sequence = base_seq
        return batch

    def test_first_batch_accepted_and_state_recorded(self):
        log = PartitionLog("t")
        batch = self.make_batch(7, 0, 0)
        assert log.check_producer_batch(7, 0, 0) == "ok"
        log.append_batch(batch, timestamp=1.0, leader_epoch=0)
        entry = log.producer_entry(7)
        assert entry.epoch == 0
        assert entry.last_sequence == 2
        assert entry.last_base_offset == 0
        assert entry.last_count == 3

    def test_exact_retry_is_duplicate(self):
        log = PartitionLog("t")
        log.append_batch(self.make_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        assert log.check_producer_batch(7, 0, 0) == "duplicate"
        # Older batches are duplicates too, whatever their length.
        log.append_batch(self.make_batch(7, 0, 3), timestamp=1.0, leader_epoch=0)
        assert log.check_producer_batch(7, 0, 0) == "duplicate"
        assert log.check_producer_batch(7, 0, 3) == "duplicate"
        assert log.check_producer_batch(7, 0, 6) == "ok"

    def test_partial_overlap_distinguished_from_full_duplicate(self):
        # The replica held only a prefix of the batch when it took over: the
        # retry is NOT a full duplicate — acking it as one would lose the
        # tail records forever.
        log = PartitionLog("t")
        log.append_batch(self.make_batch(7, 0, 0, n=3), timestamp=1.0, leader_epoch=0)
        assert log.check_producer_batch(7, 0, 0, count=3) == "duplicate"
        assert log.check_producer_batch(7, 0, 2, count=1) == "duplicate"
        assert log.check_producer_batch(7, 0, 2, count=3) == "partial"
        assert log.check_producer_batch(7, 0, 0, count=5) == "partial"
        assert log.check_producer_batch(7, 0, 3, count=3) == "ok"

    def test_sequence_gap_allowed(self):
        # Sequences are consumed at drain time; an expired batch leaves a gap.
        log = PartitionLog("t")
        log.append_batch(self.make_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        assert log.check_producer_batch(7, 0, 10) == "ok"

    def test_stale_epoch_fenced_and_new_epoch_resets_sequences(self):
        log = PartitionLog("t")
        log.append_batch(self.make_batch(7, 1, 5), timestamp=1.0, leader_epoch=0)
        assert log.check_producer_batch(7, 0, 8) == "fenced"
        # A fresh epoch restarts the sequence space from zero.
        assert log.check_producer_batch(7, 2, 0) == "ok"
        log.append_batch(self.make_batch(7, 2, 0), timestamp=1.0, leader_epoch=0)
        assert log.producer_entry(7).epoch == 2
        assert log.producer_entry(7).last_sequence == 2

    def test_independent_producers_do_not_interfere(self):
        log = PartitionLog("t")
        log.append_batch(self.make_batch(1, 0, 0), timestamp=1.0, leader_epoch=0)
        assert log.check_producer_batch(2, 0, 0) == "ok"
        log.append_batch(self.make_batch(2, 0, 0), timestamp=1.0, leader_epoch=0)
        assert log.check_producer_batch(1, 0, 0) == "duplicate"
        assert log.check_producer_batch(2, 0, 3) == "ok"

    def test_replica_fetch_batch_carries_and_rebuilds_state(self):
        leader = PartitionLog("t")
        leader.append_batch(self.make_batch(3, 1, 0), timestamp=1.0, leader_epoch=0)
        leader.append(key="x", value="plain", size=5, timestamp=1.0,
                      produced_at=1.0, leader_epoch=0)
        leader.append_batch(self.make_batch(3, 1, 3), timestamp=2.0, leader_epoch=0)
        wire = leader.read_batch(0, with_epochs=True)
        assert wire.producer_ids == [3, 3, 3, -1, 3, 3, 3]
        assert wire.sequences == [0, 1, 2, -1, 3, 4, 5]
        follower = PartitionLog("t")
        follower.append_wire_batch(wire)
        entry = follower.producer_entry(3)
        assert entry.epoch == 1
        assert entry.last_sequence == 5
        # The follower (a future leader) rejects the same retries.
        assert follower.check_producer_batch(3, 1, 3) == "duplicate"
        assert follower.check_producer_batch(3, 1, 6) == "ok"

    def test_consumer_fetch_batches_do_not_carry_producer_columns(self):
        log = PartitionLog("t")
        log.append_batch(self.make_batch(3, 0, 0), timestamp=1.0, leader_epoch=0)
        log.advance_high_watermark(3)
        batch = log.committed_read_batch(0)
        assert batch.producer_ids is None
        assert batch.sequences is None

    def test_truncation_rolls_the_dedup_table_back(self):
        log = PartitionLog("t")
        log.append_batch(self.make_batch(3, 0, 0), timestamp=1.0, leader_epoch=0)
        log.append_batch(self.make_batch(3, 0, 3), timestamp=2.0, leader_epoch=0)
        assert log.producer_entry(3).last_sequence == 5
        log.truncate_to(3)
        assert log.producer_entry(3).last_sequence == 2
        # The truncated batch may legitimately be re-sent now.
        assert log.check_producer_batch(3, 0, 3) == "ok"
        log.truncate_to(0)
        assert log.producer_entry(3) is None

    def test_record_views_expose_producer_identity(self):
        log = PartitionLog("t")
        log.append_batch(self.make_batch(9, 2, 4, n=2), timestamp=1.0, leader_epoch=0)
        records = log.all_records()
        assert [r.producer_id for r in records] == [9, 9]
        assert [r.producer_epoch for r in records] == [2, 2]
        assert [r.sequence for r in records] == [4, 5]


# ---------------------------------------------------------------------------
# Coordinator id allocation
# ---------------------------------------------------------------------------
class TestProducerIdAllocation:
    def test_ids_sequential_and_epoch_bumps_on_reinit(self):
        sim, network, sites, cluster = build_cluster()
        coordinator = cluster.coordinator
        first = coordinator._handle_init_producer_id({"name": "alpha"})
        second = coordinator._handle_init_producer_id({"name": "beta"})
        again = coordinator._handle_init_producer_id({"name": "alpha"})
        assert (first["producer_id"], first["producer_epoch"]) == (0, 0)
        assert (second["producer_id"], second["producer_epoch"]) == (1, 0)
        assert (again["producer_id"], again["producer_epoch"]) == (0, 1)
        events = [e["event"] for e in coordinator.event_log]
        assert "producer-id-allocated" in events
        assert "producer-epoch-bumped" in events

    def test_missing_name_rejected(self):
        sim, network, sites, cluster = build_cluster()
        assert cluster.coordinator._handle_init_producer_id({})["error"]

    def test_producer_initializes_over_the_wire(self):
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[1], config=ProducerConfig(idempotence=True)
        )

        def workload():
            yield sim.timeout(8.0)
            producer.start()

        sim.process(workload())
        sim.run(until=15.0)
        assert producer.producer_id == 0
        assert producer.producer_epoch == 0
        assert cluster.coordinator.producer_ids[producer.name] == [0, 0]


# ---------------------------------------------------------------------------
# End-to-end: dedup, fencing, failover inheritance
# ---------------------------------------------------------------------------
class TestIdempotentProduce:
    def test_clean_run_allocates_sequences_and_delivers_once(self):
        sim, network, sites, cluster = build_cluster(partitions=2)
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(idempotence=True)
        )
        consumer = cluster.create_consumer(sites[2])
        consumer.subscribe(["topicA"])

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            consumer.start()
            for i in range(30):
                producer.send(
                    ProducerRecord(topic="topicA", key=i % 6, value=i, size=100)
                )
                yield sim.timeout(0.05)

        sim.process(workload())
        sim.run(until=40.0)
        assert producer.records_acked == 30
        assert consumer.records_consumed == 30
        assert producer.duplicate_acks == 0
        # Per-partition sequence counters cover exactly the sent records.
        assert sum(producer._next_sequences.values()) == 30
        leader = cluster.leader_broker("topicA", 0)
        entry = leader.log_for("topicA", 0).producer_entry(producer.producer_id)
        assert entry is not None and entry.epoch == 0

    def test_duplicate_retry_dropped_with_distinguishable_ack(self):
        """Replay the exact wire batch the leader already appended: the second
        produce is acknowledged as a duplicate (not appended, not silent)."""
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(idempotence=True)
        )

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            producer.send(ProducerRecord(topic="topicA", key="a", value=1, size=80))
            yield sim.timeout(4.0)

        sim.process(workload())
        sim.run(until=20.0)
        leader = cluster.leader_broker("topicA", 0)
        log = leader.log_for("topicA", 0)
        assert log.log_end_offset == 1
        # Rebuild the identical retry batch and replay it straight into the
        # leader's produce handler (what a Transport retry does after an ack
        # loss: same producer id, same epoch, same base sequence).
        retry = RecordBatch("topicA", 0)
        retry.append(key="a", value=1, size=80, produced_at=0.0)
        retry.producer_id = producer.producer_id
        retry.producer_epoch = producer.producer_epoch
        retry.base_sequence = 0
        replies = []

        def replay():
            handler = leader._handle_produce(
                {"type": "produce", "topic": "topicA", "partition": 0,
                 "batch": retry, "acks": 1}
            )
            reply = yield sim.process(handler)
            replies.append(reply)

        sim.process(replay())
        sim.run(until=25.0)
        payload = replies[0].payload
        assert payload["error"] is None
        assert payload["duplicate"] is True
        assert payload["base_offset"] == 0  # original offsets echoed back
        assert log.log_end_offset == 1  # nothing re-appended
        assert leader.metrics["duplicate_batches"] == 1
        assert leader.metrics["duplicate_records"] == 1

    def test_partial_prefix_retry_appends_only_the_lost_tail(self):
        """A leader holding only a replicated *prefix* of a batch (replica
        fetch sliced mid-batch before the election) must append the missing
        tail on retry — never ack the whole batch as a duplicate."""
        sim, network, sites, cluster = build_cluster()
        sim.run(until=10.0)
        leader = cluster.leader_broker("topicA", 0)
        log = leader.log_for("topicA", 0)
        # The replica-inherited prefix: records 0-1 of a 5-record batch.
        prefix = RecordBatch("topicA", 0)
        for i in range(2):
            prefix.append(key="k", value=i, size=40, produced_at=0.0)
        prefix.producer_id, prefix.producer_epoch, prefix.base_sequence = 9, 0, 0
        log.append_batch(prefix, timestamp=sim.now, leader_epoch=0)
        # The producer's full retry of the original 5-record batch.
        retry = RecordBatch("topicA", 0)
        for i in range(5):
            retry.append(key="k", value=i, size=40, produced_at=0.0)
        retry.producer_id, retry.producer_epoch, retry.base_sequence = 9, 0, 0
        replies = []

        def replay():
            handler = leader._handle_produce(
                {"type": "produce", "topic": "topicA", "partition": 0,
                 "batch": retry, "acks": 1}
            )
            reply = yield sim.process(handler)
            replies.append(reply)

        sim.process(replay())
        sim.run(until=15.0)
        payload = replies[0].payload
        assert payload["error"] is None
        assert payload["duplicate"] is True  # positions not re-derived
        assert payload["base_offset"] == -1
        # Exactly the lost tail was appended: one copy of every record.
        assert [r.value for r in log.all_records()] == [0, 1, 2, 3, 4]
        assert leader.metrics["duplicate_records"] == 2  # the prefix only
        assert log.producer_entry(9).last_sequence == 4
        # A further identical retry is now a plain full duplicate.
        assert log.check_producer_batch(9, 0, 0, count=5) == "duplicate"

    def test_zombie_instance_fenced_after_epoch_bump(self):
        sim, network, sites, cluster = build_cluster()
        config = ProducerConfig(idempotence=True, delivery_timeout=8.0)
        zombie = cluster.create_producer(sites[0], config=config, name="app-producer")
        successor = cluster.create_producer(
            sites[1],
            config=ProducerConfig(idempotence=True, delivery_timeout=8.0),
            name="app-producer",
        )

        def workload():
            yield sim.timeout(8.0)
            zombie.start()
            zombie.send(ProducerRecord(topic="topicA", key="k", value=1, size=50))
            yield sim.timeout(4.0)
            successor.start()  # re-init same name -> epoch bump on coordinator
            yield sim.timeout(3.0)
            successor.send(ProducerRecord(topic="topicA", key="k", value=2, size=50))
            yield sim.timeout(3.0)
            zombie.send(ProducerRecord(topic="topicA", key="k", value=3, size=50))
            yield sim.timeout(10.0)

        sim.process(workload())
        sim.run(until=60.0)
        assert successor.producer_id == zombie.producer_id
        assert successor.producer_epoch == zombie.producer_epoch + 1
        assert zombie.records_acked == 1  # only the pre-fence record landed
        assert zombie.records_failed == 1
        fenced = sum(b.metrics["fenced_produces"] for b in cluster.brokers.values())
        assert fenced >= 1
        # The fenced record never reached the log.
        log = cluster.leader_broker("topicA", 0).log_for("topicA", 0)
        assert [r.value for r in log.all_records()] == [1, 2]

    def test_dedup_state_survives_leader_election(self):
        """Kill the leader after an acked batch replicated: the new leader's
        replica-built dedup table recognizes the stale retry."""
        sim, network, sites, cluster = build_cluster(
            n_sites=4,
            replication=3,
            session_timeout=4.0,
            # Lead away from the coordinator's host, so disconnecting the
            # leader leaves the coordinator able to run the election.
            preferred_leader="broker-site3",
        )
        producer = cluster.create_producer(
            sites[3], config=ProducerConfig(idempotence=True)
        )

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            for i in range(5):
                producer.send(
                    ProducerRecord(topic="topicA", key="k", value=i, size=60)
                )
            yield sim.timeout(6.0)  # replicate everywhere

        sim.process(workload())
        sim.run(until=20.0)
        old_leader = cluster.leader_broker("topicA", 0)
        old_log = old_leader.log_for("topicA", 0)
        assert old_log.log_end_offset == 5
        # Fail the leader's host; a follower is elected.
        from repro.network.faults import FaultInjector, NodeDisconnection

        injector = FaultInjector(network)
        # Fault start times are delays from scheduling time.
        injector.schedule_node_disconnection(
            NodeDisconnection(node=old_leader.host.name, start=0.1)
        )
        sim.run(until=sim.now + 15.0)
        new_leader = cluster.leader_broker("topicA", 0)
        assert new_leader is not None and new_leader is not old_leader
        new_log = new_leader.log_for("topicA", 0)
        entry = new_log.producer_entry(producer.producer_id)
        assert entry is not None
        assert entry.last_sequence == 4  # inherited through replica fetch
        # A stale retry of the last batch replayed against the new leader is
        # dropped as a duplicate, not re-appended.
        retry = RecordBatch("topicA", 0)
        retry.append(key="k", value=4, size=60, produced_at=0.0)
        retry.producer_id = producer.producer_id
        retry.producer_epoch = producer.producer_epoch
        retry.base_sequence = 4
        replies = []

        def replay():
            handler = new_leader._handle_produce(
                {"type": "produce", "topic": "topicA", "partition": 0,
                 "batch": retry, "acks": 1}
            )
            reply = yield sim.process(handler)
            replies.append(reply)

        before = new_log.log_end_offset
        sim.process(replay())
        sim.run(until=sim.now + 5.0)
        payload = replies[0].payload
        assert payload["error"] is None and payload["duplicate"] is True
        assert new_log.log_end_offset == before
        assert new_leader.metrics["duplicate_records"] == 1

    def test_records_expire_while_init_handshake_is_unreachable(self):
        """An idempotent producer cut off from the cluster can never finish
        the id handshake — queued records must still fail at their
        ``delivery_timeout`` instead of hanging forever."""
        from repro.broker.errors import DeliveryFailed
        from repro.network.faults import FaultInjector, NodeDisconnection

        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[1],
            config=ProducerConfig(idempotence=True, delivery_timeout=5.0),
        )
        injector = FaultInjector(network)
        injector.schedule_node_disconnection(
            NodeDisconnection(node=sites[1], start=6.0)
        )
        outcomes = []

        def workload():
            yield sim.timeout(8.0)  # host already cut off; handshake can't run
            producer.start()
            # Explicit partition: resolves immediately, lands in the
            # accumulator (the path only the init loop can expire).
            future = producer.send(
                ProducerRecord(topic="topicA", partition=0, key="k", value=1, size=50)
            )
            try:
                value = yield future
                outcomes.append(("acked", value))
            except DeliveryFailed as exc:
                outcomes.append(("failed", str(exc), sim.now))

        sim.process(workload())
        sim.run(until=30.0)
        assert producer.producer_id == -1  # handshake never completed
        assert outcomes and outcomes[0][0] == "failed"
        assert "delivery timeout" in outcomes[0][1]
        assert outcomes[0][2] == pytest.approx(13.0, abs=1.0)  # send + 5s
        assert producer.records_failed == 1
        assert producer.buffer_used == 0

    def test_non_idempotent_path_untouched(self):
        """With idempotence off nothing changes: no id handshake, headers stay
        -1, no producer columns in the log, dedup metrics stay zero."""
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(sites[0])
        consumer = cluster.create_consumer(sites[2])
        consumer.subscribe(["topicA"])

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            consumer.start()
            for i in range(10):
                producer.send(ProducerRecord(topic="topicA", key=i, value=i, size=90))
                yield sim.timeout(0.1)

        sim.process(workload())
        sim.run(until=30.0)
        assert producer.producer_id == -1
        assert producer._next_sequences == {}
        assert consumer.records_consumed == 10
        assert cluster.coordinator.producer_ids == {}
        log = cluster.leader_broker("topicA", 0).log_for("topicA", 0)
        assert log.producer_state == {}
        assert all(r.producer_id == -1 for r in log.all_records())
        assert cluster.total_duplicates_dropped() == 0

    def test_idempotent_wire_size_matches_non_idempotent(self):
        """The identity rides inside the 61-byte v2 batch header: wire sizes
        (and therefore simulated timings) are identical either way."""
        batch_plain = RecordBatch("t", 0)
        batch_idem = RecordBatch("t", 0, producer_id=5, producer_epoch=1,
                                 base_sequence=7)
        for batch in (batch_plain, batch_idem):
            batch.append(key="k", value="v", size=100, produced_at=0.0)
        assert batch_plain.wire_size == batch_idem.wire_size

    def test_stub_config_parses_idempotence(self):
        from repro.core.configs import ProducerStubConfig

        parsed = ProducerStubConfig.from_dict({"topicName": "t", "idempotence": True})
        assert parsed.idempotence is True
        assert ProducerStubConfig.from_dict({"topicName": "t"}).idempotence is False
